"""Edits of a built circuit for the tests. A circuit cannot change, so an
edit builds new records through their constructors and calls
``dataclasses.replace``, as any user of the package does."""

import dataclasses

UNBIND = object()  # a value in ``pins`` that unbinds the pin


def edited(circuit, pins=None, pin_encodings=None, **fields):
    """A copy of ``circuit`` with ``fields`` (``ports``, ``instances``, ...)
    replaced and instance pins rebound: ``pins`` and ``pin_encodings`` map
    "instance.pin" to the new net id or encoding, or to UNBIND."""
    instances = dict(fields.pop("instances", circuit.instances))
    changes: dict = {}
    for which, edits in (("pins", pins or {}), ("pin_encodings", pin_encodings or {})):
        for where, value in edits.items():
            iid, _, pin = where.rpartition(".")
            m = changes.setdefault(iid, {}).setdefault(which, getattr(instances[iid], which).copy())
            if value is UNBIND:
                del m[pin]
            else:
                m[pin] = value
    for iid, maps in changes.items():
        instances[iid] = instances[iid]._replace(**maps)
    return dataclasses.replace(circuit, instances=instances, **fields)
