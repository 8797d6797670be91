"""The cyclic collector pause around mvadder's bulk calls: it nests, it
gives the caller's state back (on an exception too), it is safe across
threads, and it never collects, freezes or retunes the collector."""

import gc
import re
import sys
import threading
import time
from pathlib import Path

import pytest

import mvadder
from mvadder import netlist
from mvadder.engine import Stimulus, simulate
from mvadder.levels import Level
from mvadder.netlist import NetlistError, build_cpa, build_qfa, from_json, gc_paused, to_json
from mvadder.report import AdderConfig, compare, rows_to_csv, rows_to_json
from mvadder.timing import sta


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Each test starts with the collector on and leaves it as it found it."""
    was = gc.isenabled()
    gc.enable()
    try:
        yield
        assert netlist.gc_paused._depth == 0
    finally:
        (gc.enable if was else gc.disable)()


def test_nested_pauses_keep_the_collector_off_until_the_outermost_exits():
    with gc_paused:
        assert not gc.isenabled()
        with gc_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_decorated_function_keeps_its_name_and_runs_paused():
    assert to_json.__name__ == "to_json" and "interchange" in to_json.__doc__

    @gc_paused
    def inside():
        return gc.isenabled()

    assert inside() is False and inside() is False
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_the_state_comes_back_after_an_exception_inside_a_pause(enabled):
    dump = to_json(build_qfa("qfa2"))
    del dump["nets"][0]["external_load"]
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(NetlistError, match="missing field 'external_load'"):
        from_json(dump)
    assert gc.isenabled() is enabled
    with pytest.raises(ZeroDivisionError):
        with gc_paused:
            1 / 0
    assert gc.isenabled() is enabled


def test_a_collector_the_caller_disabled_stays_disabled():
    gc.disable()
    cpa = build_cpa(build_qfa("qfa2"), 4)
    assert not gc.isenabled()
    to_json(cpa)
    assert not gc.isenabled()
    with gc_paused:
        pass
    assert not gc.isenabled()


def test_threaded_compare_leaves_the_collector_on_and_its_rows_unchanged():
    configs = [AdderConfig(k, v) for k in ("qfa1", "qfa2", "bfa2x2") for v in (0.9, 0.7)]
    serial = compare(configs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [compare(configs, threads=4) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()
    for rows in runs:
        assert rows_to_json(rows) == rows_to_json(serial)
        assert rows_to_csv(rows) == rows_to_csv(serial)


class _YieldingCollector:
    """Stands in for the ``gc`` module; each call lets another thread run
    first, so an unlocked check-then-act on the collector's state, or a lost
    update to the depth count, interleaves."""

    def __init__(self):
        self.enabled = True

    def isenabled(self):
        time.sleep(0)
        return self.enabled

    def disable(self):
        time.sleep(0)
        self.enabled = False

    def enable(self):
        time.sleep(0)
        self.enabled = True


def test_pauses_from_many_threads_share_one_depth_count(monkeypatch):
    """More threads than cores enter and leave pauses with a short switch
    interval; a race would turn the collector on inside a pause or leave it
    off after the last one."""
    collector = _YieldingCollector()
    monkeypatch.setattr(netlist, "gc", collector)
    on_inside = []

    def worker():
        for _ in range(200):
            with gc_paused:
                time.sleep(0)
                if collector.enabled:
                    on_inside.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not on_inside
    assert collector.enabled and netlist.gc_paused._depth == 0


def test_a_scale_like_sequence_never_retunes_or_freezes_the_collector():
    threshold, frozen = gc.get_threshold(), gc.get_freeze_count()
    n = 8
    cpa = build_cpa(build_qfa("qfa2"), n, cl=2e-15)
    report = sta(cpa, ("C0", "A0", "B0"), (f"C{n}", f"S{n - 1}"))
    reloaded = from_json(to_json(cpa))
    initial = {"C0": Level.L0, **{f"{p}{i}": Level(1 if p == "A" else 2)
                                   for i in range(n) for p in "AB"}}
    stim = Stimulus(initial=initial, events=((2000.0, "C0", Level.L1),),
                    duration_ps=4000.0 + 2 * report.worst_arrival_ps)
    trace = simulate(reloaded, stim)
    assert trace.final_level(f"C{n}") == Level.L1
    assert gc.get_threshold() == threshold and gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_the_package_leaves_collecting_freezing_and_thresholds_to_the_caller():
    sources = Path(mvadder.__file__).parent.glob("*.py")
    calls = [(p.name, m) for p in sources
             for m in re.findall(r"gc\.(?:collect|freeze|unfreeze|set_threshold)\b", p.read_text())]
    assert not calls
