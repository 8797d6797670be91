"""The benchmark's three closed-loop workloads.

Each workload prepares its inputs from the seed once (that is the set-up
the benchmark times), then runs operations by index. An operation's inputs
depend only on the seed and the index. ``op(index, mark)`` calls ``mark()``
between its stages, where the benchmark samples the host's speed. Every operation checks its own
outputs and raises ``CheckFailed`` when they are wrong. It returns facts
that go into the workload's fingerprint: simulated statistics that a pure
speed-up must leave identical.

Calls into mvadder go through module attributes (``netlist.build_cpa``),
so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from mvadder import TICK_PS, engine, netlist, report, timing, verify
from mvadder.levels import DigitVector, Level, cpa_oracle

CL = 2e-15
VDD = 0.9


class CheckFailed(AssertionError):
    """An operation's output disagrees with its oracle or reference."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Verify:
    """verify_cpa with 32 seeded random vectors on each of four prebuilt
    ripple CPAs: QFA2 at 4, 8 and 16 digits and BFA2 at 32 cells. One
    operation is one call on each, so every operation does the same mix."""

    VECTORS = 32

    def __init__(self, seed: int, pinned: dict):
        self.seed = seed
        qfa2 = netlist.build_qfa("qfa2", VDD)
        bfa2 = netlist.build_bfa("bfa2", VDD)
        self.cpas = [(netlist.build_cpa(qfa2, n, cl=CL), n) for n in (4, 8, 16)]
        self.cpas.append((netlist.build_cpa(bfa2, 32, cl=CL), 32))
        # Validation and compilation belong to set-up: one vector each.
        for cpa, n in self.cpas:
            bad = verify.verify_cpa(cpa, n, vectors=1, seed=seed)
            _check(not bad, f"{cpa.name}: {bad[:1]}")

    def op(self, index: int, mark) -> dict:
        for k, (cpa, n) in enumerate(self.cpas):
            if k:
                mark()
            call_seed = (self.seed * 1_000_003 + index) * len(self.cpas) + k
            bad = verify.verify_cpa(cpa, n, vectors=self.VECTORS, seed=call_seed)
            _check(not bad, f"{cpa.name} seed {call_seed}: {bad[:1]}")
        return {}


class Compare:
    """The paper's comparison table: qfa1, qfa2, bfa1x2 and bfa2x2 at 0.9 V
    and 0.7 V, cl = 2 fF, one thread, then JSON and CSV serialization. The
    seed permutes the order in which configs are measured; the rows are put
    back in table order before serializing, so the report bytes are fixed
    and must match the digests pinned in the workload's fingerprint."""

    KINDS = ("qfa1", "qfa2", "bfa1x2", "bfa2x2")
    VDDS = (0.9, 0.7)

    def __init__(self, seed: int, pinned: dict):
        self.seed = seed
        self.configs = [report.AdderConfig(kind, vdd, cl=CL)
                        for vdd in self.VDDS for kind in self.KINDS]
        self.pinned = pinned

    def op(self, index: int, mark) -> dict:
        order = np.random.default_rng([self.seed, index]).permutation(len(self.configs))
        rows = report.compare([self.configs[i] for i in order], threads=1)
        table = [None] * len(rows)
        for pos, i in enumerate(order):
            table[i] = rows[pos]
        _check([r.config for r in table] == self.configs, "rows do not match configs")
        facts = {
            "report_json_sha256": hashlib.sha256(report.rows_to_json(table).encode()).hexdigest(),
            "report_csv_sha256": hashlib.sha256(report.rows_to_csv(table).encode()).hexdigest(),
        }
        for key, digest in facts.items():
            _check(digest == self.pinned[key], f"{key} {digest} != pinned {self.pinned[key]}")
        return facts


class Scale:
    """One operation builds fresh QFA2 CPAs of 32 and then 128 digits. For
    each it runs STA from C0,A0,B0 to the last carry and sum, round-trips
    the netlist through to_json/from_json in memory, and simulates a full
    carry ripple on the reloaded circuit: every digit pair sums to 3 (the
    seed picks the pairs) and C0 steps to 1."""

    DIGITS = (32, 128)
    STEP_PS = 2000.0

    def __init__(self, seed: int, pinned: dict):
        self.seed = seed
        # STA arrival is affine in the digit count: reference from 2 and 3.
        two, three = (self._arrival_ticks(netlist.build_cpa(
            netlist.build_qfa("qfa2", VDD), n, cl=CL), n)[0] for n in (2, 3))
        self.base = two
        self.slope = {k: three[k] - two[k] for k in two}
        _check(all(s > 0 for s in self.slope.values()), f"non-positive slope {self.slope}")

    @staticmethod
    def _arrival_ticks(cpa, n: int):
        rep = timing.sta(cpa, ("C0", "A0", "B0"), (f"C{n}", f"S{n - 1}"))
        ticks = {"carry": round(rep.arrivals_ps[f"C{n}"] / TICK_PS),
                 "sum": round(rep.arrivals_ps[f"S{n - 1}"] / TICK_PS)}
        return ticks, rep

    def op(self, index: int, mark) -> dict:
        rng = np.random.default_rng([self.seed, index])
        facts = {"sta_arrival_ticks": {}}
        for k, n in enumerate(self.DIGITS):
            if k:
                mark()
            cpa = netlist.build_cpa(netlist.build_qfa("qfa2", VDD), n, cl=CL)
            ticks, rep = self._arrival_ticks(cpa, n)
            want = {k: self.base[k] + (n - 2) * self.slope[k] for k in ticks}
            _check(ticks == want, f"N={n}: STA ticks {ticks} not affine, want {want}")
            facts["sta_arrival_ticks"][str(n)] = ticks
            mark()

            data = netlist.to_json(cpa)
            reloaded = netlist.from_json(data)
            _check(netlist.to_json(reloaded) == data, f"N={n}: reloaded netlist differs")
            mark()

            a = rng.integers(0, 4, size=n)
            b = 3 - a
            initial = {"C0": Level.L0}
            for i in range(n):
                initial[f"A{i}"] = Level(int(a[i]))
                initial[f"B{i}"] = Level(int(b[i]))
            duration = 2 * self.STEP_PS + max(2000.0, 2 * rep.worst_arrival_ps)
            stim = engine.Stimulus(initial=initial, events=((self.STEP_PS, "C0", Level.L1),),
                                   duration_ps=duration)
            trace = engine.simulate(reloaded, stim)
            delays = [d for _, d in engine.step_response_delays(trace, f"C{n}")
                      if d is not None]
            bound = rep.arrivals_ps[f"C{n}"]
            _check(bool(delays) and max(delays) <= bound,
                   f"N={n}: ripple {delays} exceeds STA {bound} ps")
            want_sum, want_cout = cpa_oracle(DigitVector(4, tuple(int(x) for x in a)),
                                             DigitVector(4, tuple(int(x) for x in b)), 1)
            got = tuple(int(trace.final_level(f"S{i}")) for i in range(n))
            _check(got == want_sum.digits and int(trace.final_level(f"C{n}")) == want_cout,
                   f"N={n}: final levels disagree with the oracle")
        return facts


WORKLOADS = {"verify": Verify, "compare": Compare, "scale": Scale}
