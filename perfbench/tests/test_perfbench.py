"""Tests of the benchmark itself: inputs, reference, checks and output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

from perfbench import harness, reference as ref
from perfbench.checks import Checker, Mismatch, Refused
from perfbench.tracing import NullTracer
from perfbench.workloads import cyclic_chains

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = sorted(harness.WORKLOADS)


def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_digest(name):
    w = harness.WORKLOADS[name]
    _, first = harness.generate(w, 7, False)
    _, again = harness.generate(w, 7, False)
    _, other = harness.generate(w, 8, False)
    assert first == again
    assert first != other


def test_two_state_cycle_with_stay_99_100_has_mean_time_100():
    q = {"A": {"B": F(99, 100)}, "B": {"A": F(99, 100)}}
    assert sum(ref.visits_dense(q, "A").values()) == 100


def test_climb_then_linger_3_has_total_mass_9_4():
    q = ref.ladder_chain(8, {"kind": "climb", "n": 3})
    visits = ref.visits_acyclic(q, "b1", ref.ladder_order(8))
    assert sum(visits.values()) == F(9, 4)


def test_fair_coin_has_defect_one_half():
    start = (F(1), {"0": F(1)})
    coin = (F(1), {"0": F(1, 2), "1": F(1, 2)})
    assert ref.defect([start, coin]) == F(1, 2)


def test_dense_solve_agrees_with_back_substitution_on_the_ladder():
    q = ref.ladder_chain(12, {"kind": "mixture", "w3": "2/7"})
    order = ref.ladder_order(12)
    acyclic = ref.visits_acyclic(q, "b1", order)
    frontier = acyclic.pop("b13")
    dense = ref.visits_dense(q, "b1")
    assert frontier > 0
    assert dense == acyclic


def test_checker_aborts_on_a_wrong_exact_value_and_counts_bound_misses():
    class N:
        def __init__(self, value, err=0.0):
            self.value, self.err = value, err
            self.is_exact = isinstance(value, F)

    chk = Checker()
    chk.value("exact", N(F(1, 3)), F(1, 3))
    with pytest.raises(Mismatch):
        chk.value("exact", N(F(1, 3)), F(1, 4))
    chk.value("rounded", N(1 / 3), F(1, 3))  # rounding outside a zero bound: a miss
    assert chk.bound_misses == {"occupation": 1}
    with pytest.raises(Mismatch):
        chk.value("far", N(0.34, 1e-9), F(1, 3))
    with pytest.raises(Mismatch):  # an estimate gets the same margin as any float
        chk.value("estimate", N(1 / 3 + 1e-4, 1e-9), F(1, 3), tol=1e-8, layer="quadrature")
    chk.value("indicator", N(1 / 3 + 1e-4, 1e-9), F(1, 3), tol=1e-8, layer="quadrature", indicator=True)
    assert chk.gross_misses == 1
    with pytest.raises(Mismatch):
        chk.value("indicator", N(1 / 3 + 0.1, 1e-9), F(1, 3), tol=1e-8, layer="quadrature", indicator=True)
    assert chk.bound_misses == {"occupation": 2, "quadrature": 3}
    assert (chk.values, chk.exact) == (7, 2)


@pytest.mark.parametrize("message, code, error", [
    ("error: residual 3.1e-02 above the requested bound after 256 stages", 1, Refused),
    ("model diagnostics:\n  row (s0, x) sums to 2", 1, Mismatch),
    ("error: unknown atom 's9'", 1, RuntimeError),
    ("error: bad --x0", 2, RuntimeError),
])
def test_only_the_solver_refusal_counts_as_refused(tmp_path, message, code, error):
    class Cli:
        @staticmethod
        def main(argv):
            print(message, file=sys.stderr)
            return code

    class Serialize:
        model_to_dict = staticmethod(lambda model, strategies: {})
        save_json = staticmethod(lambda path, doc: None)

    st = {"models": [(None, {})], "serialize": Serialize, "cli": Cli, "workdir": str(tmp_path), "exit_nonzero": 0}
    item = {"index": 0, "n": 8, "level": "1/2", "format": "md"}
    with pytest.raises(error):
        cyclic_chains.analyse(None, st, item, NullTracer())
    assert st["exit_nonzero"] == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_tail_percentile_keeps_ten_analyses_beyond_it(name):
    w = harness.WORKLOADS[name]
    spec, _ = harness.generate(w, 1, False)
    attempted = harness.MIN_CYCLES * len(spec["items"])
    assert attempted * (1 - w.TAIL_PCT / 100) >= 10
    why = next(x["why"] for x in bench()["workloads"] if x["name"] == name)
    assert f"p{w.TAIL_PCT}" in why


def test_benchmark_json_names_the_workloads_and_metrics():
    b = bench()
    assert [w["name"] for w in b["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in b["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in b["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_run_exits_0_and_prints_the_declared_metrics(name, trace):
    proc = run(name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = bench()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("atoms", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "no library source" in proc.stderr
    assert "metrics" not in proc.stdout
