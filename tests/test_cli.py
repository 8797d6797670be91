import json
import subprocess
import sys

import pytest

from mvadder.cli import main, parse_cap
from mvadder.engine import worst_case_stimulus
from mvadder.levels import DomainError
from mvadder.netlist import build_cpa, build_qfa
from mvadder.verify import cpa_mismatches, verify_cpa


def run_cli(args):
    return main(args)


def test_parse_cap():
    assert parse_cap("2fF") == pytest.approx(2e-15)
    assert parse_cap("0.5pF") == pytest.approx(0.5e-12)
    assert parse_cap("3e-15") == pytest.approx(3e-15)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_cap("two farads")


def test_verify_cells_exit_zero(capsys):
    for cell in ("qfa1", "qfa2", "bfa1", "bfa2", "bfa2x2"):
        assert run_cli(["verify", "--cell", cell]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_verify_cpa(capsys):
    assert run_cli(["verify", "--cell", "cpa", "--base", "qfa2", "--digits", "2"]) == 0
    assert run_cli(["--seed", "5", "verify", "--cell", "cpa", "--base", "bfa2",
                    "--digits", "4", "--vectors", "300"]) == 0


def test_sta_json_output(capsys):
    assert run_cli(["sta", "--cell", "qfa2", "--cl", "2fF",
                    "--from", "Cin", "--to", "Cout,Sum"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["arrivals_ps"]["Cout"] == 24.0
    assert [a["kind"] for a in blob["critical_path"]] == ["mux2", "inv"]


def test_sim_with_trace_export(tmp_path, capsys):
    stim_path = tmp_path / "stim.json"
    worst_case_stimulus("carry_to_carry", "qfa2").save(stim_path)
    trace_path = tmp_path / "trace.csv"
    energy_path = tmp_path / "energy.csv"
    assert run_cli(["sim", "--cell", "qfa2", "--cl", "2fF",
                    "--stimulus", str(stim_path),
                    "--trace-out", str(trace_path),
                    "--energy-out", str(energy_path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["final_levels"] == {"Cout": 0, "Sum": 3}
    assert blob["total_energy_j"] > 0
    assert trace_path.read_text().startswith("time_ps,net,level,voltage")
    assert energy_path.read_text().startswith("time_ps,net,joules")


def test_compare_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["compare", "--configs", "qfa2@0.9,bfa2x2@0.45",
                    "--cl", "2fF", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["config"] for r in rows] == ["qfa2@0.9", "bfa2x2@0.45"]
    csv_out = tmp_path / "report.csv"
    assert run_cli(["compare", "--configs", "qfa2@0.9", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("config,kind,")


def test_dump_netlist_roundtrip(tmp_path, capsys):
    out = tmp_path / "qfa1.json"
    assert run_cli(["dump-netlist", "--cell", "qfa1", "--cl", "2fF",
                    "--out", str(out)]) == 0
    from mvadder.netlist import load_netlist, to_json, validate

    c = load_netlist(out)
    assert validate(c) == []
    assert to_json(c) == json.loads(out.read_text())


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--cell", "nosuch"])
    assert exc.value.code == 2
    # runtime input problems also map to 2
    assert run_cli(["sim", "--cell", "qfa2", "--stimulus", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("vectors", ["0", "-3"])
def test_verify_rejects_vector_count_below_one(vectors, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--cell", "cpa", "--base", "qfa2", "--digits", "8",
                 "--vectors", vectors])
    assert exc.value.code == 2
    assert "--vectors" in capsys.readouterr().err
    cpa = build_cpa(build_qfa("qfa2", 0.9), 8)
    with pytest.raises(DomainError, match="vectors"):
        verify_cpa(cpa, 8, vectors=int(vectors))


def test_verify_names_a_negative_seed_before_drawing_vectors():
    cpa = build_cpa(build_qfa("qfa2", 0.9), 8)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        cpa_mismatches(cpa, 8, vectors=10, seed=-1)


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1", "verify", "--cell", "cpa", "--digits", "8"],
     "argument --seed: must be >= 0, got -1"),
    (["--seed", "-1", "verify", "--cell", "qfa2"], "argument --seed: must be >= 0, got -1"),
    (["--seed", "-1", "compare", "--configs", "qfa2@0.9"], "argument --seed: must be >= 0, got -1"),
    (["verify", "--cell", "cpa", "--digits", "0"], "argument --digits: must be >= 1, got 0"),
    (["compare", "--configs", "qfa2@0.9", "--threads", "-3"],
     "argument --threads: must be >= 1, got -3"),
    (["compare", "--configs", "qfa2@0.9", "--threads", "0"],
     "argument --threads: must be >= 1, got 0"),
    (["sta", "--cell", "qfa2", "--from", ",", "--to", "Cout"],
     "argument --from: expected at least one port name, got ','"),
    (["sta", "--cell", "qfa2", "--from", "Cin", "--to", ","],
     "argument --to: expected at least one port name, got ','"),
])
def test_bad_flag_exits_two_naming_the_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("configs", ["", ",", " , "])
def test_compare_rejects_an_empty_config_list(configs, capsys):
    assert run_cli(["compare", "--configs", configs]) == 2
    assert "--configs: expected at least one kind@vdd spec" in capsys.readouterr().err


@pytest.mark.parametrize("vdd", ["nan", "inf", "-inf"])
def test_compare_rejects_non_finite_supply(vdd, capsys):
    assert run_cli(["compare", "--configs", f"qfa2@{vdd}"]) == 2
    err = capsys.readouterr().err
    assert "supply" in err and f"qfa2@{vdd}" in err


@pytest.mark.parametrize("vdd", ["nan", "inf", "-inf", "0", "-0.5", "volts"])
def test_vdd_must_be_a_finite_positive_number(vdd, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--cell", "qfa2", f"--vdd={vdd}"])
    assert exc.value.code == 2
    assert "argument --vdd" in capsys.readouterr().err


@pytest.mark.parametrize("blob, field", [
    ({"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [], "duration_ps": 1e300},
     "duration_ps"),
    ({"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [[1e300, "Cin", 1]],
      "duration_ps": 1e300}, "duration_ps"),
    ({"initial": {"A": 2.7, "B": 1, "Cin": 0}, "events": [], "duration_ps": 100.0},
     "A: 2.7 is not a logic level"),
    ({"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [[50.0, "Cin", 0.5]],
      "duration_ps": 100.0}, "Cin: 0.5 is not a logic level"),
    # a number must be a JSON number: not a string, not a bool
    ({"initial": {"A": "2", "B": 1, "Cin": 0}, "events": [], "duration_ps": 100.0},
     "initial: A: '2' is not a logic level"),
    ({"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [[50.0, "Cin", True]],
      "duration_ps": 100.0}, "events[0]: Cin: True is not a logic level"),
    ({"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [["2000", "Cin", 1]],
      "duration_ps": 6000.0}, "events[0]: expected a number, got '2000'"),
    ({"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [[2000.0, "Cin", 1]],
      "duration_ps": " 6000 "}, "duration_ps: expected a number, got ' 6000 '"),
])
def test_sim_rejects_bad_stimulus_fields(blob, field, tmp_path, capsys):
    path = tmp_path / "stim.json"
    path.write_text(json.dumps(blob))
    assert run_cli(["sim", "--cell", "qfa2", "--stimulus", str(path)]) == 2
    assert field in capsys.readouterr().err


_LEVELS = {"A": 2, "B": 1, "Cin": 0}


@pytest.mark.parametrize("blob, field", [
    ({"initial": [1, 2], "events": [], "duration_ps": 100.0}, "initial"),
    ([1], "initial"),
    ({"initial": _LEVELS, "events": [[50.0, ["A"], 1]], "duration_ps": 100.0}, "events[0]"),
    ({"initial": _LEVELS, "events": [[1, "A"]], "duration_ps": 100.0}, "events[0]"),
    ({"initial": _LEVELS, "duration_ps": 100.0}, "events: missing"),
    ({"initial": _LEVELS, "events": [[10.0, "B", 2], ["x", "A", 1]], "duration_ps": 100.0},
     "events[1]"),
    ({"initial": _LEVELS, "events": [], "duration_ps": "abc"}, "duration_ps"),
])
def test_sim_names_the_malformed_stimulus_field(blob, field, tmp_path, capsys):
    path = tmp_path / "stim.json"
    path.write_text(json.dumps(blob))
    assert run_cli(["sim", "--cell", "qfa2", "--stimulus", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_bad_library_exit_two(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"inv": {"bogus_key": 1}}))
    assert run_cli(["--lib", str(lib), "verify", "--cell", "qfa2"]) == 2


@pytest.mark.parametrize("fields, message", [
    ({"inv": {"drive_resistance_ohm": float("inf")}}, "inv: drive_resistance_ohm must be a finite"),
    ({"mux2": {"threshold_voltage_v": float("nan")}}, "mux2: threshold_voltage_v must be a finite"),
    ({"nand": {"intrinsic_delay_s": 0}}, "nand: intrinsic_delay_s must be a finite number > 0"),
    ({"inv": {"input_cap_per_pin_f": -1e-16}}, "inv: input_cap_per_pin_f must be a finite"),
    ({"inv": {"drive_resistance_ohm": "fast"}}, "inv: drive_resistance_ohm must be a finite"),
    ({"inv": {"drive_resistance_ohm": 10 ** 400}}, "inv: drive_resistance_ohm must be a finite"),
    ({"inv": {"inventory": [["N", float("inf"), 1]]}}, "inventory entry must hold whole numbers"),
    ({"inv": {"inventory": [["N", 19.5, 1]]}}, "inventory entry must hold whole numbers"),
    # a number must be a JSON number: not a string, not a bool
    ({"inv": {"drive_resistance_ohm": "1e4"}}, "inv: drive_resistance_ohm must be a finite"),
    ({"inv": {"intrinsic_delay_s": True}}, "inv: intrinsic_delay_s must be a finite"),
    ({"inv": {"inventory": [["N", "19", 1]]}}, "inventory entry must hold whole numbers"),
    ({"inv": {"inventory": [["N", 19, True]]}}, "inventory entry must hold whole numbers"),
])
def test_library_rejects_bad_numbers_exit_two(fields, message, tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps(fields))  # writes NaN and Infinity as JSON literals
    assert run_cli(["--lib", str(lib), "compare", "--configs", "qfa2@0.9"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec, cl, delay", [("qfa2@0.9", "200fF", 2004.0),
                                              ("qfa1@0.9", "30fF", 2104.0)])
def test_compare_sizes_its_stimulus_steps_for_a_slow_cell(spec, cl, delay, capsys):
    # the carry takes longer than the least step, 2000 ps: the steps widen to fit it
    assert run_cli(["compare", "--configs", spec, "--cl", cl]) == 0
    assert json.loads(capsys.readouterr().out)[0]["delay_cin_to_cout_ps"] == delay


def test_compare_names_a_load_whose_steps_pass_the_tick_range(capsys):
    assert run_cli(["compare", "--configs", "qfa2@0.9", "--cl", "0.5"]) == 2
    assert ("error: [config qfa2@0.9] at cl 0.5 F the 5e+15 ps stimulus steps do not fit "
            "the tick range") in capsys.readouterr().err


def test_model_error_exit_three(tmp_path, capsys):
    # threshold above a vdd/3 carry-inverter supply: non-functional gate
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"inv": {"threshold_voltage_v": 0.35}}))
    assert run_cli(["--lib", str(lib), "verify", "--cell", "qfa1"]) == 3


def test_a_simulation_timeout_exits_three(tmp_path, capsys):
    stim = tmp_path / "stim.json"
    stim.write_text(json.dumps({"initial": {"A": 0, "B": 0, "Cin": 0},
                                "events": [[0.0, "A", 1]], "duration_ps": 1.0}))
    assert run_cli(["sim", "--cell", "qfa2", "--stimulus", str(stim)]) == 3
    assert "model error: circuit not quiescent within duration (1.0 ps)" in capsys.readouterr().err


def test_a_gate_delay_past_the_tick_range_exits_two(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"inv": {"drive_resistance_ohm": 1e300}}))
    assert run_cli(["--lib", str(lib), "sta", "--cell", "qfa2", "--cl", "2fF",
                    "--from", "A", "--to", "Cout"]) == 2
    assert ("error: inv_cout.y: gate delay 2.0000000000000002e+285 s is not a finite number "
            "of ticks") in capsys.readouterr().err


def test_custom_library_changes_timing(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"inv": {"drive_resistance_ohm": 20000.0}}))
    assert run_cli(["--lib", str(lib), "sta", "--cell", "qfa2", "--cl", "2fF",
                    "--from", "Cin", "--to", "Cout"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["arrivals_ps"]["Cout"] == 44.0  # 3 + (1 + 20k*2fF)


@pytest.mark.slow
def test_fallback_mode_produces_identical_report(tmp_path):
    """The CLI's compare report, written by a fresh process, equals the
    API's byte for byte."""
    from mvadder.report import compare, parse_config_spec, rows_to_json

    configs = [parse_config_spec(s, 2e-15) for s in ("qfa2@0.9", "bfa2x2@0.45")]
    expected = rows_to_json(compare(configs))

    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mvadder.cli", "compare",
         "--configs", "qfa2@0.9,bfa2x2@0.45", "--cl", "2fF", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == expected


@pytest.mark.parametrize("cl, message", [
    # finite, but the gate delay it gives overflows the event-key range
    ("1e300F", "mux2_sum.y: gate delay"),
    # not finite: float("1e400") is inf
    ("1e400F", "argument --cl: capacitance must be a finite number"),
])
@pytest.mark.parametrize("command", ["sta", "sim"])
def test_huge_load_exits_two_without_traceback(cl, message, command, tmp_path):
    stim = tmp_path / "stim.json"
    worst_case_stimulus("carry_to_carry", "qfa2").save(stim)
    extra = {"sta": ["--from", "A", "--to", "Cout"], "sim": ["--stimulus", str(stim)]}[command]
    proc = subprocess.run(
        [sys.executable, "-m", "mvadder.cli", command, "--cell", "qfa2", "--cl", cl, *extra],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_parse_cap_rejects_non_finite_values():
    import argparse

    for text in ("1e400F", "1e400", "-1fF"):
        with pytest.raises(argparse.ArgumentTypeError, match="finite number >= 0"):
            parse_cap(text)
