import csv
import dataclasses
import json
import re
import sys

import pytest

from mvadder import gates
from mvadder.engine import measure_power, simulate, worst_case_stimulus
from mvadder.levels import DomainError
from mvadder.netlist import NetlistError, build_bfa, build_cell, build_qfa
from mvadder.report import (
    AdderConfig,
    ComparisonRow,
    compare,
    cpa_scaling,
    measure_config,
    parse_config_spec,
    rows_to_csv,
    rows_to_json,
)
from mvadder.timing import sta


FOUR_CONFIGS = [
    AdderConfig("qfa1", 0.9),
    AdderConfig("qfa2", 0.9),
    AdderConfig("bfa2x2", 0.9),
    AdderConfig("bfa2x2", 0.45),
]


@pytest.fixture(scope="module")
def four_rows():
    return compare(FOUR_CONFIGS)


def test_row_order_follows_input_order(four_rows):
    assert [r.config for r in four_rows] == FOUR_CONFIGS


@pytest.fixture(scope="module")
def rows_by_load():
    """{cl: (qfa1 row, qfa2 row)} at 0.9 V: the 200 fF QFA1 carry takes 14 ns."""
    return {cl: tuple(measure_config(AdderConfig(k, 0.9, cl)) for k in ("qfa1", "qfa2"))
            for cl in (2e-15, 20e-15, 200e-15)}


@pytest.mark.parametrize("cl, qfa1_ps, qfa2_ps", [
    (2e-15, 144.0, 24.0), (20e-15, 1404.0, 204.0), (200e-15, 14004.0, 2004.0)])
def test_qfa2_carry_delay_beats_qfa1(rows_by_load, cl, qfa1_ps, qfa2_ps):
    # the paper's claim: a full-swing carry beats a vdd/3 carry at every load
    qfa1, qfa2 = rows_by_load[cl]
    assert qfa2.delay_cin_to_cout_ps < qfa1.delay_cin_to_cout_ps
    assert (qfa1.delay_cin_to_cout_ps, qfa2.delay_cin_to_cout_ps) == (qfa1_ps, qfa2_ps)


def test_compare_delays_stay_within_their_sta_arrivals(rows_by_load):
    for row in (r for rows in rows_by_load.values() for r in rows):
        cfg = row.config
        cell = build_cell(cfg.kind, cfg.vdd, cl=cfg.cl)
        for delay, src, dst in ((row.delay_input_to_cout_ps, "A", "Cout"),
                                (row.delay_cin_to_cout_ps, "Cin", "Cout"),
                                (row.delay_cin_to_sum_ps, "Cin", "Sum")):
            assert 0 < delay <= sta(cell, [src], [dst]).worst_arrival_ps, (cfg, src, dst)


def test_halved_supply_quarters_power(four_rows):
    by = {r.config.label(): r for r in four_rows}
    ratio = by["bfa2x2@0.45"].power_uw / by["bfa2x2@0.9"].power_uw
    assert ratio == pytest.approx(0.25, abs=0.02)


def test_area_ratio_near_four(four_rows):
    by = {r.config.label(): r for r in four_rows}
    ratio = by["qfa2@0.9"].sigma_di_nm / by["bfa2x2@0.9"].sigma_di_nm
    assert 3.0 <= ratio <= 5.0


def test_pdp_recomputable_from_row(four_rows):
    for r in four_rows:
        worst = max(r.delay_input_to_cout_ps, r.delay_cin_to_cout_ps,
                    r.delay_cin_to_sum_ps)
        assert r.pdp_fj == pytest.approx(r.power_uw * 1e-6 * worst * 1e-12 * 1e15)


def test_rows_match_fresh_measurements(four_rows):
    # no caching drift: re-measure one config from scratch
    again = measure_config(AdderConfig("qfa2", 0.9))
    row = four_rows[1]
    assert again == row


def test_power_window_matches_engine(four_rows):
    cfg = AdderConfig("qfa1", 0.9)
    cell = build_cell(cfg.kind, cfg.vdd, cl=cfg.cl)
    stim = worst_case_stimulus("input_to_carry", "qfa1")
    tr = simulate(cell, stim)
    direct = measure_power(tr, (0.0, stim.duration_ps))
    assert four_rows[0].power_uw == pytest.approx(direct * 1e6)


def test_reports_byte_identical_across_runs_and_threads(four_rows):
    rows_t4 = compare(FOUR_CONFIGS, threads=4)
    rows_again = compare(FOUR_CONFIGS, threads=1)
    blob = rows_to_json(four_rows)
    assert rows_to_json(rows_t4) == blob
    assert rows_to_json(rows_again) == blob
    assert rows_to_csv(rows_t4) == rows_to_csv(four_rows)


@pytest.mark.parametrize("threads, message", [
    (True, "threads must be a whole number, got True"),
    (2.0, "threads must be a whole number, got 2.0"),
    ("2", "threads must be a whole number, got '2'"),
    (None, "threads must be a whole number, got None"),
    (0, "threads must be >= 1, got 0"),
    (-3, "threads must be >= 1, got -3"),
])
def test_compare_takes_a_whole_number_of_threads_from_one(threads, message):
    """No value runs serially in place of an error, and none escapes as a TypeError."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        compare(FOUR_CONFIGS[:1], threads=threads)


def test_threads_that_keep_clearing_the_shared_primitive_memo_give_the_serial_rows(
        four_rows, monkeypatch):
    """More threads than cores share the memo at a 1 us switch interval, with
    a bound of 4 clearing it on nearly every request; a primitive handed to
    another request would change a row."""
    monkeypatch.setattr(gates, "_PRIMITIVES_KEPT", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = compare(FOUR_CONFIGS, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert rows_to_json(rows) == rows_to_json(four_rows)


def test_bfa1x2_config_builds_and_measures():
    row = measure_config(AdderConfig("bfa1x2", 0.9))
    assert row.transistor_count == 56  # two 28T cells
    assert row.delay_cin_to_cout_ps > 0


def test_cpa_scaling_affine_and_cells():
    rows = cpa_scaling(AdderConfig("qfa2", 0.9), [1, 2, 4, 8])
    by_n = {r.n_digits: r for r in rows}
    slope = by_n[2].sta_arrival_ps - by_n[1].sta_arrival_ps
    assert by_n[8].sta_arrival_ps - by_n[4].sta_arrival_ps == pytest.approx(4 * slope)
    assert [by_n[n].cells_on_path for n in (1, 2, 4, 8)] == [1, 2, 4, 8]
    # measured full ripple stays under the full-chain STA bound
    for r in rows:
        assert r.measured_ps <= r.sta_arrival_ps + 1e-9


def test_binary_cpa_scaling_has_twice_the_cells():
    rows = cpa_scaling(AdderConfig("bfa2x2", 0.9), [4])
    assert rows[0].cells_on_path == 8


def test_parse_config_spec():
    cfg = parse_config_spec("qfa2@0.9", cl=2e-15)
    assert cfg == AdderConfig("qfa2", 0.9, 2e-15)
    assert parse_config_spec("BFA2x2@0.45", cl=1e-15).kind == "bfa2x2"
    for bad in ("qfa2", "qfa9@0.9", "qfa2@abc", "qfa2@-1"):
        with pytest.raises(DomainError):
            parse_config_spec(bad, cl=2e-15)


def test_json_and_csv_shapes(four_rows):
    parsed = json.loads(rows_to_json(four_rows))
    assert len(parsed) == 4
    assert parsed[0]["config"] == "qfa1@0.9"
    csv_text = rows_to_csv(four_rows)
    lines = csv_text.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("config,kind,vdd")


class _TwoArgError(Exception):
    """An exception whose constructor takes more than a message."""

    def __init__(self, code, detail):
        super().__init__(code, detail)


def test_measure_config_reraises_the_same_error_with_the_config_named(monkeypatch):
    import mvadder.report as report_mod

    def fail(*args):
        raise _TwoArgError(7, "boom")

    monkeypatch.setattr(report_mod, "simulate", fail)
    with pytest.raises(_TwoArgError) as info:
        measure_config(AdderConfig("qfa2", 0.9))
    assert info.value.args == (7, "boom")
    assert info.value.__notes__ == ["[config qfa2@0.9]"]


def test_measure_config_names_a_worst_case_path_that_did_not_toggle(monkeypatch):
    import mvadder.report as report_mod

    def still(target, kind, *, step_ps):  # the worst-case stimulus without its steps
        return dataclasses.replace(worst_case_stimulus(target, kind, step_ps=step_ps), events=())

    monkeypatch.setattr(report_mod, "worst_case_stimulus", still)
    with pytest.raises(DomainError) as info:
        measure_config(AdderConfig("qfa2", 0.9))
    assert str(info.value) == ("[config qfa2@0.9] at cl 2e-15 F a worst-case path did not "
                               "toggle within its stimulus steps")


def test_cli_prints_the_config_of_a_failing_row(capsys):
    from mvadder.cli import main

    # QFA1's vdd/3 carry inverter is below threshold at 0.45 V
    assert main(["compare", "--configs", "qfa2@0.9,qfa1@0.45"]) == 3
    assert "model error: [config qfa1@0.45] inv: supply" in capsys.readouterr().err


def test_the_report_columns_are_the_config_keys_then_the_row_fields(four_rows):
    """JSON keys and the CSV header come from ComparisonRow's fields, an empty
    table's header too."""
    want = ["config", "kind", "vdd", "cl_f",
            *(f.name for f in dataclasses.fields(ComparisonRow)[1:])]
    assert want[4:] == ["delay_input_to_cout_ps", "delay_cin_to_cout_ps", "delay_cin_to_sum_ps",
                        "power_uw", "pdp_fj", "sigma_di_nm", "transistor_count"]
    assert list(four_rows[0].as_dict()) == want
    assert rows_to_csv([]) == ",".join(want) + "\n"
    for row, line in zip(four_rows, csv.DictReader(rows_to_csv(four_rows).splitlines())):
        assert list(line) == want
        assert line["transistor_count"] == str(row.transistor_count)
        assert float(line["pdp_fj"]) == row.pdp_fj


@pytest.mark.parametrize("call, error, message, notes", [
    (lambda: build_cell(None), NetlistError, "unknown cell kind None", []),
    (lambda: build_qfa(None), NetlistError, "unknown quaternary variant None", []),
    (lambda: build_bfa(3), NetlistError, "unknown binary variant 3", []),
    (lambda: worst_case_stimulus("input_to_carry", None), DomainError,
     "unknown cell kind None", []),
    (lambda: cpa_scaling(AdderConfig(None, 0.9), [2]), DomainError,
     "kind: unknown cell kind None", []),
    (lambda: measure_config(AdderConfig("qfa2", 0.9, cl=None)), NetlistError,
     "net 'n_sum': external_load must be a finite number >= 0, got None", ["[config qfa2@0.9]"]),
    (lambda: measure_config(AdderConfig("qfa2", None)), NetlistError,
     "vdd must be a finite number > 0, got None", ["[config qfa2@None]"]),
], ids=["build_cell", "build_qfa", "build_bfa", "worst_case_stimulus", "cpa_scaling",
        "measure_config-cl", "measure_config-vdd"])
def test_a_kind_or_number_of_another_type_meets_the_entry_points_own_check(
        call, error, message, notes):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message and getattr(info.value, "__notes__", []) == notes


@pytest.mark.parametrize("config, n_list, match", [
    (AdderConfig("qfa2zzz", 0.9), [1], "kind: unknown cell kind 'qfa2zzz'"),
    (AdderConfig("fa", 0.9), [1], "kind: unknown cell kind 'fa'"),
    (AdderConfig("qfa2", 0.9), [], "n_list: expected at least one CPA size"),
    (AdderConfig("qfa2", 0.9), iter(()), "n_list: expected at least one CPA size"),
    (AdderConfig("qfa2", 0.9), None, "n_list: expected a list, got None"),
    (AdderConfig("qfa2", 0.9), "12", "n_list: expected a list, got '12'"),
], ids=["suffixed-kind", "unknown-kind", "empty-list", "empty-iterator", "none", "str"])
def test_cpa_scaling_rejects_an_unknown_kind_and_an_empty_size_list(config, n_list, match):
    with pytest.raises(DomainError, match=match):
        cpa_scaling(config, n_list)


@pytest.mark.parametrize("kind, n_list, match", [
    ("bfa2x2", [True], r"^n_list\[0\] must be a whole number, got True$"),
    ("bfa2x2", [2.5], r"^n_list\[0\] must be a whole number, got 2.5$"),  # not 5 cells
    ("qfa2", [2, 0], r"^n_list\[1\] must be >= 1, got 0$"),
    ("bfa2x2", [2, 2 ** 13 + 1], r"^n_list\[1\] must be <= 8192, got 8193$"),  # 2 cells each
])
def test_cpa_scaling_reads_every_size_before_it_builds_any(kind, n_list, match, monkeypatch):
    monkeypatch.setattr("mvadder.report.build_cell", lambda *a: pytest.fail("built a cell"))
    with pytest.raises(DomainError, match=match):
        cpa_scaling(AdderConfig(kind, 0.9), n_list)


@pytest.mark.parametrize("call", [
    lambda: measure_config(None),
    lambda: measure_config("qfa2@0.9"),
    lambda: compare([AdderConfig("qfa2", 0.9), None]),
    lambda: compare([("qfa2", 0.9)], threads=2),
    lambda: cpa_scaling(None, [2]),
    lambda: cpa_scaling({"kind": "qfa2", "vdd": 0.9}, [2]),
], ids=["measure_config-none", "measure_config-str", "compare", "compare-threads",
        "cpa_scaling-none", "cpa_scaling-dict"])
def test_a_config_that_is_not_an_adder_config_is_named(call):
    with pytest.raises(DomainError, match="^config must be an AdderConfig, got "):
        call()


def test_cpa_scaling_takes_a_kind_in_any_case_and_sizes_from_an_iterator():
    [row] = cpa_scaling(AdderConfig("QFA2", 0.9), iter([2]))
    assert row == cpa_scaling(AdderConfig("qfa2", 0.9), [2])[0]
