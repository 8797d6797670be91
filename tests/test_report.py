import json

import pytest

from mvadder.engine import measure_power, simulate, worst_case_stimulus
from mvadder.levels import DomainError
from mvadder.netlist import build_cell
from mvadder.report import (
    AdderConfig,
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


def test_cli_prints_the_config_of_a_failing_row(capsys):
    from mvadder.cli import main

    # QFA1's vdd/3 carry inverter is below threshold at 0.45 V
    assert main(["compare", "--configs", "qfa2@0.9,qfa1@0.45"]) == 3
    assert "model error: [config qfa1@0.45] inv: supply" in capsys.readouterr().err
