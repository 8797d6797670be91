"""Static timing analysis over the acyclic gate graph.

Arrivals come from longest-path relaxation in topological order using the
same tick-quantized arc delays the event engine uses, so a fully
sensitized measurement matches its STA bound to the tick. False paths are
not pruned: STA is the upper bound, the engine's sensitized measurement
the matching lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel import TICK_PS, compile_circuit
from .gates import KIND_SPECS
from .levels import DomainError
from .netlist import Circuit, gc_paused


@dataclass(frozen=True)
class TimingArc:
    instance: str
    kind: str
    from_pin: str
    to_pin: str
    from_net: str
    to_net: str
    delay_ps: float
    cell_tag: str


@dataclass(frozen=True)
class TimingReport:
    sources: tuple
    sinks: tuple
    arrivals_ps: dict  # sink port -> ps (None if unreachable)
    worst_sink: str | None
    worst_arrival_ps: float | None
    critical_path: tuple  # TimingArc source -> sink
    stage_cells: int
    stage_gate_arcs: int

    def as_dict(self) -> dict:
        return {
            "sources": list(self.sources),
            "sinks": list(self.sinks),
            "arrivals_ps": dict(self.arrivals_ps),
            "worst": {"sink": self.worst_sink, "arrival_ps": self.worst_arrival_ps},
            "critical_path": [
                {"instance": a.instance, "kind": a.kind,
                 "from_pin": a.from_pin, "to_pin": a.to_pin,
                 "from_net": a.from_net, "to_net": a.to_net,
                 "delay_ps": a.delay_ps, "cell": a.cell_tag}
                for a in self.critical_path
            ],
            "stages": {"cells": self.stage_cells, "gate_arcs": self.stage_gate_arcs},
        }


def _cells_crossed(path) -> int:
    tags = []
    for arc in path:
        if not tags or tags[-1] != arc.cell_tag:
            tags.append(arc.cell_tag)
    return len(tags)


@gc_paused
def sta(circuit: Circuit, sources, sinks) -> TimingReport:
    """Worst arrival per sink port from any source port, with the critical
    path of the globally worst sink. Both port lists must be non-empty.
    Ties break on lexicographic arc id (instance, from_pin, to_pin) so
    reports are deterministic."""
    comp = compile_circuit(circuit)  # rejects an invalid circuit first
    sources = tuple(sources)
    sinks = tuple(sinks)
    for field, names in (("sources", sources), ("sinks", sinks)):
        if not names:
            raise DomainError(f"{field}: expected at least one port, got none")
    for name in (*sources, *sinks):
        if name not in circuit.ports:
            raise DomainError(f"{name!r} is not a port of {circuit.name!r}")

    insts = list(circuit.instances.values())

    arrival = [-1] * comp.n_nets  # ticks; -1 = unreached
    # (arc sort key, TimingArc, upstream net index) chosen per net
    pred: list = [None] * comp.n_nets
    for s in sources:
        arrival[comp.net_index[circuit.ports[s].net]] = 0

    for gi in comp.topo_order:
        inst = insts[gi]
        spec = KIND_SPECS[inst.primitive.kind]
        for opin, out_ni, delay in zip(spec.outputs, comp.gate_out[gi], comp.gate_delay[gi]):
            for ipin, in_ni in zip(spec.inputs, comp.gate_in[gi]):
                if arrival[in_ni] < 0:
                    continue
                cand = arrival[in_ni] + delay
                key = (inst.id, ipin, opin)
                if cand > arrival[out_ni] or (
                    cand == arrival[out_ni]
                    and pred[out_ni] is not None
                    and key < pred[out_ni][0]
                ):
                    arrival[out_ni] = cand
                    arc = TimingArc(
                        instance=inst.id, kind=inst.primitive.kind,
                        from_pin=ipin, to_pin=opin,
                        from_net=comp.net_ids[in_ni], to_net=comp.net_ids[out_ni],
                        delay_ps=delay * TICK_PS, cell_tag=inst.cell_tag,
                    )
                    pred[out_ni] = (key, arc, in_ni)

    arrivals_ps = {}
    worst_sink = None
    worst_ticks = -1
    for s in sinks:
        ni = comp.net_index[circuit.ports[s].net]
        if arrival[ni] < 0:
            arrivals_ps[s] = None
            continue
        arrivals_ps[s] = arrival[ni] * TICK_PS
        if arrival[ni] > worst_ticks or (arrival[ni] == worst_ticks and s < worst_sink):
            worst_ticks = arrival[ni]
            worst_sink = s

    path: list[TimingArc] = []
    if worst_sink is not None:
        ni = comp.net_index[circuit.ports[worst_sink].net]
        while pred[ni] is not None:
            _, arc, up = pred[ni]
            path.append(arc)
            ni = up
        path.reverse()

    return TimingReport(
        sources=sources,
        sinks=sinks,
        arrivals_ps=arrivals_ps,
        worst_sink=worst_sink,
        worst_arrival_ps=None if worst_sink is None else worst_ticks * TICK_PS,
        critical_path=tuple(path),
        stage_cells=_cells_crossed(path),
        stage_gate_arcs=len(path),
    )
