"""Every benchmark record at the repository root backs a performance claim
with a parent commit, at least ten alternating pairs of runs and the
method that produced them, on a workload and an end-to-end metric that
BENCHMARK.json declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_there_are_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_names_parent_claim_and_method(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    claim = record["claim"]
    assert isinstance(claim["pairs"], int) and claim["pairs"] >= 10
    better = claim["change_better_in_pairs"]
    assert isinstance(better, int) and 0 <= better <= claim["pairs"]
    assert isinstance(record["method"], dict) and record["method"]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_claims_a_declared_workload_and_end_to_end_metric(path):
    claim = json.loads(path.read_text())["claim"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
