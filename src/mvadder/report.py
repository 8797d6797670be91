"""Comparison harness: delay / power / PDP / diameter-sum per adder config.

Every row is measured fresh from a build + two worst-case stimuli, so
reports are reproducible bit for bit; configs are independent and may be
measured on a thread pool without affecting the output bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .engine import (
    Stimulus,
    measure_power,
    simulate,
    step_response_delays,
    worst_case_stimulus,
)
from .gates import CellLibrary
from .levels import DomainError, Level
from .netlist import CELL_KINDS, Circuit, area_report, build_cell, build_cpa
from .timing import sta


@dataclass(frozen=True)
class AdderConfig:
    """One comparison column: cell kind, supply, per-output load."""

    kind: str
    vdd: float
    cl: float = 2e-15

    def label(self) -> str:
        return f"{self.kind}@{self.vdd:g}"


@dataclass(frozen=True)
class ComparisonRow:
    config: AdderConfig
    delay_input_to_cout_ps: float
    delay_cin_to_cout_ps: float
    delay_cin_to_sum_ps: float
    power_uw: float
    pdp_fj: float
    sigma_di_nm: float
    transistor_count: int

    def as_dict(self) -> dict:
        return {
            "config": self.config.label(),
            "kind": self.config.kind,
            "vdd": self.config.vdd,
            "cl_f": self.config.cl,
            "delay_input_to_cout_ps": self.delay_input_to_cout_ps,
            "delay_cin_to_cout_ps": self.delay_cin_to_cout_ps,
            "delay_cin_to_sum_ps": self.delay_cin_to_sum_ps,
            "power_uw": self.power_uw,
            "pdp_fj": self.pdp_fj,
            "sigma_di_nm": self.sigma_di_nm,
            "transistor_count": self.transistor_count,
        }


def _sum_ports(cell: Circuit) -> list:
    return sorted(p.name for p in cell.output_ports() if p.name != "Cout")


def _worst_step(trace, *dst_ports) -> float | None:
    delays = [d for p in dst_ports for _, d in step_response_delays(trace, p) if d is not None]
    return max(delays, default=None)


def measure_config(config: AdderConfig, lib: CellLibrary | None = None) -> ComparisonRow:
    """Build one cell, run both worst-case stimuli, collect the row. An
    error on the way is re-raised as it is, with a note naming the config."""
    try:
        cell = build_cell(config.kind, config.vdd, lib, config.cl)
        stim_in = worst_case_stimulus("input_to_carry", config.kind, config.vdd)
        stim_cc = worst_case_stimulus("carry_to_carry", config.kind, config.vdd)
        trace_in = simulate(cell, stim_in)
        trace_cc = simulate(cell, stim_cc)
    except Exception as exc:
        exc.add_note(f"[config {config.label()}]")
        raise

    d_in = _worst_step(trace_in, "Cout")
    d_cc = _worst_step(trace_cc, "Cout")
    d_cs = _worst_step(trace_cc, *_sum_ports(cell))
    if d_in is None or d_cc is None or d_cs is None:
        raise DomainError(f"[config {config.label()}] at cl {config.cl:g} F a worst-case path "
                          f"did not toggle within its stimulus steps")

    power_w = measure_power(trace_in, (0.0, stim_in.duration_ps))
    # PDP convention: power times the worst of the three reported delays.
    worst_ps = max(d_in, d_cc, d_cs)
    pdp_fj = power_w * worst_ps * 1e-12 * 1e15
    area = area_report(cell)
    return ComparisonRow(
        config=config,
        delay_input_to_cout_ps=d_in,
        delay_cin_to_cout_ps=d_cc,
        delay_cin_to_sum_ps=d_cs,
        power_uw=power_w * 1e6,
        pdp_fj=pdp_fj,
        sigma_di_nm=area.total_sigma_di_nm,
        transistor_count=area.transistor_count,
    )


def compare(configs, lib: CellLibrary | None = None, threads: int = 1) -> list:
    """Measure every config; row order follows input order regardless of
    thread count."""
    configs = list(configs)
    if threads <= 1:
        return [measure_config(c, lib) for c in configs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda c: measure_config(c, lib), configs))


@dataclass(frozen=True)
class ScalingRow:
    n_digits: int
    sta_arrival_ps: float
    measured_ps: float
    cells_on_path: int


def cpa_scaling(config: AdderConfig, n_list, lib: CellLibrary | None = None) -> list:
    """Full-chain arrival and a measured full ripple per CPA size.

    The measured stimulus holds every A digit at radix-1 with B at 0
    (propagate mode on every cell) and steps C0, so the carry walks the
    whole chain.
    """
    base_kind = config.kind.lower()[:4]
    quaternary = base_kind.startswith("qfa")
    rows = []
    for n in n_list:
        cells = n if quaternary else 2 * n
        cpa = build_cpa(build_cell(base_kind, config.vdd, lib), cells, cl=config.cl)
        last = cells - 1
        rep = sta(cpa, ("C0", "A0", "B0"), (f"C{cells}", f"S{last}"))

        radix = 4 if quaternary else 2
        initial = {"C0": Level.L0}
        for i in range(cells):
            initial[f"A{i}"] = Level(radix - 1)
            initial[f"B{i}"] = Level.L0
        step = 2000.0
        duration = 2 * step + max(2000.0, 2 * rep.worst_arrival_ps)
        stim = Stimulus(initial=initial, events=((step, "C0", Level.L1),),
                        duration_ps=duration)
        trace = simulate(cpa, stim)
        delays = [d for _, d in step_response_delays(trace, f"C{cells}") if d is not None]
        measured = max(delays) if delays else float("nan")
        rows.append(ScalingRow(
            n_digits=n,
            sta_arrival_ps=rep.worst_arrival_ps,
            measured_ps=measured,
            cells_on_path=rep.stage_cells,
        ))
    return rows


# --------------------------------------------------------------------------
# Serialization (deterministic bytes)

_CSV_FIELDS = (
    "config", "kind", "vdd", "cl_f",
    "delay_input_to_cout_ps", "delay_cin_to_cout_ps", "delay_cin_to_sum_ps",
    "power_uw", "pdp_fj", "sigma_di_nm", "transistor_count",
)


def rows_to_json(rows) -> str:
    return json.dumps([r.as_dict() for r in rows], indent=2, sort_keys=True) + "\n"


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        d = r.as_dict()
        w.writerow({k: repr(d[k]) if isinstance(d[k], float) else d[k]
                    for k in _CSV_FIELDS})
    return buf.getvalue()


def parse_config_spec(spec: str, cl: float) -> AdderConfig:
    """Parse 'kind@vdd' (e.g. 'qfa2@0.9') into an AdderConfig."""
    spec = spec.strip().lower()
    if "@" not in spec:
        raise DomainError(f"config spec {spec!r} must look like kind@vdd")
    kind, _, vdd = spec.partition("@")
    if kind not in CELL_KINDS:
        raise DomainError(f"unknown config kind {kind!r}")
    return AdderConfig(kind=kind, vdd=parse_supply(vdd, f" in {spec!r}"), cl=cl)


def parse_supply(text: str, where: str = "") -> float:
    """``text`` as a supply voltage, a finite number > 0; ``where`` ends
    the error message."""
    try:
        vdd = float(text)
    except ValueError:
        raise DomainError(f"bad supply voltage {text!r}{where}") from None
    if not math.isfinite(vdd) or vdd <= 0:
        raise DomainError(f"supply must be a finite number > 0, got {text!r}{where}")
    return vdd
