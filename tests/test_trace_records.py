"""A trace keeps the event kernel's records, and only ``times`` as a numpy
column, built on first read. The measurements and the CSV writers read the
records, and must give what the array-and-mask formulas give over numpy
columns built from the records, bit for bit, and the same CSV bytes."""

import csv
from bisect import bisect_right

import numpy as np
import pytest

from mvadder import report
from mvadder._kernel import TICK_PS, SimulationTimeoutError, UnsettledOutputError, _ticks
from mvadder.engine import (
    Stimulus,
    measure_power,
    simulate,
    step_response_delays,
    worst_case_stimulus,
)
from mvadder.levels import Level
from mvadder.netlist import CELL_KINDS, build_cell, build_cpa, build_qfa
from random_circuits import INPUTS, random_circuit

TARGETS = ("input_to_carry", "carry_to_carry")


def columns(tr) -> list:
    """The records as five numpy columns: ticks, nets, levels, joules and
    srcs, float64 for the joules and int64 for the rest."""
    return [np.array([r[k] for r in tr.records], np.float64 if k == 3 else np.int64)
            for k in range(5)]


def mask_power(tr, window) -> float:
    """measure_power over the columns: a mask, then numpy's sum."""
    w0, w1 = window
    t0, t1 = tr.origin_ticks + _ticks(w0), tr.origin_ticks + _ticks(w1)
    times, _, _, energies, srcs = columns(tr)
    mask = (srcs == 0) & (times >= t0) & (times < t1)
    return float(energies[mask].sum()) / ((w1 - w0) * 1e-12)


def mask_step_delays(tr, dst) -> list:
    """step_response_delays over the columns, settle records included."""
    steps = sorted({t for t, _, _ in tr.stim_events})
    times, nets, *_ = columns(tr)
    times = times[nets == tr.net_index(dst)].tolist()
    ends = [*steps[1:], tr.origin_ticks + tr.duration_ticks]
    return [((t - tr.origin_ticks) * TICK_PS,
             float((times[h - 1] - t) * TICK_PS)
             if (h := bisect_right(times, end)) and times[h - 1] > t else None)
            for t, end in zip(steps, ends)]


def column_csv(tr, path, energy: bool) -> None:
    """The CSV writers' format, written from the columns' numpy scalars."""
    comp = tr.compiled
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_ps", "net", *(["joules"] if energy else ["level", "voltage"])])
        for t, n, l, e, s in zip(*columns(tr)):
            head = [repr(float(t) * TICK_PS), comp.net_ids[n]]
            if energy:
                if s == 0:
                    w.writerow([*head, repr(float(e))])
            else:
                rail = comp.net_rail[n]
                w.writerow([*head, int(l), repr(float(rail[l])) if l >= 0 else ""])


def assert_measurements_agree(tr, windows) -> None:
    for dst in tr.compiled.net_ids:
        assert step_response_delays(tr, dst) == mask_step_delays(tr, dst), dst
    for window in windows:
        assert measure_power(tr, window).hex() == mask_power(tr, window).hex(), window


def cell_traces():
    for kind in CELL_KINDS:
        cell = build_cell(kind, 0.9, cl=2e-15)
        for target in TARGETS:
            yield simulate(cell, worst_case_stimulus(target, kind))


def cpa_trace():
    n = 4
    cpa = build_cpa(build_qfa("qfa2", 0.9), n, cl=2e-15)
    initial = {"C0": Level.L0}
    for i, a in enumerate((0, 3, 1, 2)):
        initial[f"A{i}"], initial[f"B{i}"] = Level(a), Level(3 - a)
    events = ((2000.0, "C0", Level.L1), (4000.0, "C0", Level.L0), (4000.0, "A1", Level.L1))
    return simulate(cpa, Stimulus(initial, events, 8000.0))


def random_trace(rng):
    """A random circuit and a few random input events, or None if it does not
    settle or go quiet in its window."""
    level = [int(rng.integers(r)) for r in INPUTS.values()]
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)), vectors=[level])
    events, t = [], 0.0
    for _ in range(int(rng.integers(0, 9))):
        t += float(rng.choice([0.5, 3.0, 20.0, 150.0]))
        p = str(rng.choice(list(INPUTS)))
        events.append((t, p, Level(int(rng.integers(INPUTS[p])))))
    initial = {p: Level(v) for p, v in zip(INPUTS, level)}
    try:
        return simulate(c, Stimulus(initial, tuple(events), t + 2000.0))
    except (SimulationTimeoutError, UnsettledOutputError):
        return None


def test_times_is_the_records_ticks_built_on_first_read():
    for tr in [*cell_traces(), cpa_trace()]:
        assert "times" not in vars(tr)  # not built yet
        times = tr.times
        assert times.dtype == np.int64 and times.shape == (len(tr.records),)
        assert times.tolist() == [r[0] for r in tr.records]
        assert tr.times is times  # built once
        assert not {"nets", "levels", "energies", "srcs"} & set(dir(tr))  # records only


def test_measurements_equal_the_column_formulas_on_every_cell():
    for tr in cell_traces():
        end = tr.duration_ticks * TICK_PS
        assert_measurements_agree(tr, [(0.0, end), (0.0, end / 3), (end / 3, end),
                                       (1999.9, 2000.1), (2000.0, 4000.0), (0.3, 0.4)])


def test_measurements_equal_the_column_formulas_on_random_circuits():
    rng = np.random.default_rng(25)
    done = 0
    while done < 60:
        tr = random_trace(rng)
        if tr is None:
            continue
        end = tr.duration_ticks * TICK_PS
        cuts = sorted(float(x) for x in rng.uniform(0.0, end, 4))
        assert_measurements_agree(tr, [(0.0, end), (cuts[0], cuts[3]), (cuts[1], cuts[2]),
                                       (0.0, cuts[0] + 0.1)])
        done += 1


@pytest.mark.parametrize("energy", [False, True], ids=["trace", "energy"])
def test_csv_bytes_equal_the_column_format(tmp_path, energy):
    traces = [simulate(build_qfa("qfa2", 0.9, cl=2e-15),
                       worst_case_stimulus("input_to_carry", "qfa2")), cpa_trace()]
    for k, tr in enumerate(traces):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        (tr.write_energy_csv if energy else tr.write_csv)(got)
        column_csv(tr, want, energy)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) > 40


def test_measure_config_builds_no_column(monkeypatch):
    """A comparison row is measured from the records alone: neither trace of
    measure_config builds ``times``, nor do a trace's energy sums, which are
    numpy's sums over the records' joules bit for bit."""
    traces = []

    def kept(circuit, stim):
        traces.append(simulate(circuit, stim))
        return traces[-1]

    monkeypatch.setattr(report, "simulate", kept)
    for kind in ("qfa2", "bfa2x2"):
        traces.clear()
        report.measure_config(report.AdderConfig(kind, 0.9))
        assert len(traces) == 2
        for tr in traces:
            assert "times" not in vars(tr), kind
        tr = simulate(build_cell(kind, 0.9), worst_case_stimulus("input_to_carry", kind))
        sums = tr.total_energy, tr.settle_energy, tr.measurement_energy
        assert "times" not in vars(tr), kind
        e = columns(tr)[3]
        assert sums == (float(e.sum()), float(e[: tr.n_settle].sum()),
                        float(e[tr.n_settle:].sum()))
