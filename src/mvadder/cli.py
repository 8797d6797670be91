"""Command-line front end.

Subcommands: verify, sta, sim, compare, dump-netlist. Exit codes:
0 success, 1 verification failure, 2 usage/input error, 3 model error
(non-functional gate, simulation timeout, unsettled output).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import report as report_mod
from .engine import (
    SimulationTimeoutError,
    Stimulus,
    UnsettledOutputError,
    simulate,
    step_response_delays,
)
from .gates import CellLibrary, LibraryError, NonFunctionalGateError, load_library
from .levels import DomainError, EncodingMismatchError
from .netlist import CELL_KINDS, NetlistError, build_cell, build_cpa, dump_netlist, validate
from .timing import sta
from .verify import cpa_is_exhaustive, cpa_mismatches, verify_adder_cell, verify_binary_slice

_CAP_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*(aF|fF|pF|nF|F)?\s*$")
_CAP_SCALE = {"aF": 1e-18, "fF": 1e-15, "pF": 1e-12, "nF": 1e-9, "F": 1.0, None: 1.0}


def parse_cap(text: str) -> float:
    m = _CAP_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"bad capacitance {text!r} (try e.g. 2fF)")
    value = float(m.group(1)) * _CAP_SCALE[m.group(2)]
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"capacitance must be a finite number >= 0, got {text!r}")
    return value


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def port_list(text: str) -> tuple:
    """Comma-separated port names; at least one."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one port name, got {text!r}")
    return names


def supply(text: str) -> float:
    try:
        return report_mod.parse_supply(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build(args, lib: CellLibrary | None):
    if args.cell == "cpa":
        return build_cpa(build_cell(args.base, args.vdd, lib), args.digits, cl=args.cl)
    return build_cell(args.cell, args.vdd, lib, cl=args.cl)


def _cmd_verify(args, lib) -> int:
    circuit = _build(args, lib)
    diags = validate(circuit)
    if diags:
        for d in diags:
            print(f"INVALID: {d}")
        return 1
    if args.cell == "cpa":
        bad, n_bad = cpa_mismatches(circuit, args.digits, vectors=args.vectors, seed=args.seed)
        exhaustive = cpa_is_exhaustive(circuit.ports["A0"].encoding.radix, args.digits)
        total = "exhaustive" if exhaustive else f"{args.vectors} random vectors"
        label = f"{args.base} cpa x{args.digits}"
    elif args.cell.endswith("x2"):
        bad = verify_binary_slice(circuit)
        n_bad, total, label = len(bad), "32 cases", args.cell
    else:
        bad = verify_adder_cell(circuit)
        n_bad, total, label = len(bad), "exhaustive", args.cell
    if bad:
        for line in bad:
            print(f"MISMATCH: {line}")
        print(f"{label}: FAIL ({n_bad} mismatches)")
        return 1
    print(f"{label}: OK ({total} match the oracle)")
    return 0


def _cmd_sta(args, lib) -> int:
    circuit = _build(args, lib)
    rep = sta(circuit, args.from_ports, args.to_ports)
    print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_sim(args, lib) -> int:
    circuit = _build(args, lib)
    stim = Stimulus.load(args.stimulus)
    trace = simulate(circuit, stim)
    delays = {}
    for port in sorted(p.name for p in circuit.output_ports()):
        delays[port] = [
            {"step_t_ps": t, "delay_ps": d}
            for t, d in step_response_delays(trace, port)
        ]
    result = {
        "settle_energy_j": trace.settle_energy,
        "measurement_energy_j": trace.measurement_energy,
        "total_energy_j": trace.total_energy,
        "final_levels": {
            p.name: int(trace.final_level(p.name)) for p in circuit.output_ports()
        },
        "step_delays": delays,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.trace_out:
        trace.write_csv(args.trace_out)
    if args.energy_out:
        trace.write_energy_csv(args.energy_out)
    return 0


def _cmd_compare(args, lib) -> int:
    configs = [report_mod.parse_config_spec(s, args.cl)
               for s in args.configs.split(",") if s.strip()]
    rows = report_mod.compare(configs, lib, threads=args.threads)
    if args.out:
        text = (report_mod.rows_to_csv(rows) if args.out.endswith(".csv")
                else report_mod.rows_to_json(rows))
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(report_mod.rows_to_json(rows), end="")
    return 0


def _cmd_dump_netlist(args, lib) -> int:
    circuit = _build(args, lib)
    dump_netlist(circuit, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_build_args(p, with_digits=True):
    p.add_argument("--cell", required=True, choices=CELL_KINDS + ("cpa",))
    p.add_argument("--vdd", type=supply, default=0.9)
    p.add_argument("--cl", type=parse_cap, default=0.0,
                   help="external load per output (e.g. 2fF)")
    if with_digits:
        p.add_argument("--digits", type=positive_int, default=4,
                       help="digit count for --cell cpa")
        p.add_argument("--base", default="qfa2",
                       choices=("qfa1", "qfa2", "bfa1", "bfa2"),
                       help="1-digit cell replicated by --cell cpa")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mvadder",
                                  description="Quaternary/binary adder toolkit")
    top.add_argument("--lib", help="cell library JSON overriding the defaults")
    top.add_argument("--seed", type=non_negative_int, default=0,
                     help="seed for random-vector subcommands")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="oracle-equivalence check, exit 0/1")
    _add_build_args(p)
    p.add_argument("--vectors", type=positive_int, default=10_000,
                   help="random vectors for large CPAs")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sta", help="static timing report (JSON on stdout)")
    _add_build_args(p)
    p.add_argument("--from", dest="from_ports", type=port_list, required=True,
                   help="comma-separated source ports")
    p.add_argument("--to", dest="to_ports", type=port_list, required=True,
                   help="comma-separated sink ports")
    p.set_defaults(func=_cmd_sta)

    p = sub.add_parser("sim", help="simulate a stimulus file")
    _add_build_args(p)
    p.add_argument("--stimulus", required=True, help="stimulus JSON file")
    p.add_argument("--trace-out", help="waveform CSV output path")
    p.add_argument("--energy-out", help="energy ledger CSV output path")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("compare", help="delay/power/PDP/area comparison table")
    p.add_argument("--configs", required=True,
                   help="comma-separated kind@vdd specs, e.g. qfa2@0.9,bfa2x2@0.45")
    p.add_argument("--cl", type=parse_cap, default=2e-15)
    p.add_argument("--threads", type=positive_int, default=1)
    p.add_argument("--out", help="report path (.json or .csv); default stdout JSON")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("dump-netlist", help="emit the netlist interchange JSON")
    _add_build_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dump_netlist)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lib = load_library(args.lib) if args.lib else None
    except (LibraryError, OSError, json.JSONDecodeError) as exc:
        print(f"library error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, lib)
    except (NonFunctionalGateError, SimulationTimeoutError, UnsettledOutputError) as exc:
        print("model error:", *getattr(exc, "__notes__", ()), exc, file=sys.stderr)
        return 3
    except (DomainError, EncodingMismatchError, NetlistError, LibraryError,
            OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print("error:", *getattr(exc, "__notes__", ()), exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
