"""Static timing analysis over the acyclic gate graph.

Arrivals come from longest-path relaxation in topological order using the
same tick-quantized arc delays the event engine uses, so a fully
sensitized measurement matches its STA bound to the tick. False paths are
not pruned: STA is the upper bound, the engine's sensitized measurement
the matching lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from ._kernel import TICK_PS, compile_circuit
from .gates import KIND_SPECS
from .levels import DomainError, listed
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
    critical_path: tuple  # TimingArc source -> sink

    @property
    def worst_arrival_ps(self) -> float | None:
        return None if self.worst_sink is None else self.arrivals_ps[self.worst_sink]

    @property
    def stage_cells(self) -> int:
        """Runs of consecutive critical-path arcs within one cell."""
        return sum(1 for _ in groupby(arc.cell_tag for arc in self.critical_path))

    @property
    def stage_gate_arcs(self) -> int:
        return len(self.critical_path)

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


@gc_paused
def sta(circuit: Circuit, sources, sinks) -> TimingReport:
    """Worst arrival per sink port from any source port, with the critical
    path of the globally worst sink. Both port lists must be non-empty.
    Ties break on the least arc id (instance, from_pin, to_pin), and then
    the least sink name, so reports are deterministic."""
    comp = compile_circuit(circuit)  # rejects an invalid circuit first
    sources, sinks = listed("sources", sources), listed("sinks", sinks)
    for field, names in (("sources", sources), ("sinks", sinks)):
        if not names:
            raise DomainError(f"{field}: expected at least one port, got none")
        for name in names:
            if not isinstance(name, str) or name not in circuit.ports:  # a list is unhashable
                raise DomainError(f"{field}: {name!r} is not a port of {circuit.name!r}")

    arrival = [-1] * comp.n_nets  # ticks; -1 = unreached
    pred: list = [None] * comp.n_nets  # (gate, input position, output position)
    for s in sources:
        arrival[comp.net_index[circuit.ports[s].net]] = 0
    # A net has one driver, so a gate's output is reached only through that
    # gate (a source's 0 is below every delay). Its latest input wins, the
    # first on a tie: KIND_SPECS lists pins in name order, so the least arc.
    gate_in, gate_out, gate_delay = comp.gate_in, comp.gate_out, comp.gate_delay
    for g in comp.topo_order:
        ins = [arrival[n] for n in gate_in[g]]
        latest = max(ins)
        if latest < 0:
            continue
        i = ins.index(latest)
        for o, (n, delay) in enumerate(zip(gate_out[g], gate_delay[g])):
            arrival[n] = latest + delay
            pred[n] = (g, i, o)

    sink_net = {s: comp.net_index[circuit.ports[s].net] for s in sinks}
    arrivals_ps = {s: arrival[n] * TICK_PS if arrival[n] >= 0 else None
                   for s, n in sink_net.items()}
    reached = [s for s in sinks if arrival[sink_net[s]] >= 0]
    worst_sink = min(reached, key=lambda s: (-arrival[sink_net[s]], s), default=None)

    path: list[TimingArc] = []
    n = sink_net.get(worst_sink)  # None when no sink is reached
    while n is not None and pred[n] is not None:
        g, i, o = pred[n]
        spec, gid, up = KIND_SPECS[comp.gate_kind[g]], comp.gate_ids[g], gate_in[g][i]
        path.append(TimingArc(gid, comp.gate_kind[g], spec.inputs[i], spec.outputs[o],
                              comp.net_ids[up], comp.net_ids[n], gate_delay[g][o] * TICK_PS,
                              circuit.instances[gid].cell_tag))
        n = up
    path.reverse()
    return TimingReport(sources, sinks, arrivals_ps, worst_sink, tuple(path))
