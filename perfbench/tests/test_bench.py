"""
Tests of the benchmark itself (not of postdist).  Run from the repository root:

    python3 -m pytest perfbench/tests

Each benchmark run here uses --seconds 0, which runs exactly one cycle, or
three passes of cycle 0 when traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = ("_calls", ".calls", "_matrices", "_bytes")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_end_to_end_metric_with_its_unit(workload):
    out = last_json(run_bench(workload, trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_with_one_seed_repeat_their_counts(workload):
    # Within a run, counts that differ between its traced passes, or coverage
    # below 0.95, are failed operations; across runs they must match too.
    first = last_json(run_bench(workload, trace=1))
    second = last_json(run_bench(workload, trace=1))
    assert first["correct"] is True and second["correct"] is True
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name in units if name.endswith(COUNT_SUFFIXES)]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["numpy.eig_matrices"]["value"] > 0
    assert first["metrics"]["trace.coverage"]["value"] >= 0.95


def test_wrong_expected_value_raises_fail_ratio(monkeypatch):
    import postdist

    oracle = workloads.WORKLOADS["oracle"]
    honest = oracle.run_cycle(postdist, oracle.inputs(postdist, 3, 0))
    assert honest.failed == 0

    pinned = workloads.gallery

    def wrong(pd):
        return [(m, a, b, value - 0.5) for m, a, b, value in pinned(pd)]

    monkeypatch.setattr(workloads, "gallery", wrong)
    res = oracle.run_cycle(postdist, oracle.inputs(postdist, 3, 0))
    assert res.attempted == honest.attempted
    assert res.failed == len(pinned(postdist))
    assert res.failed / res.attempted > honest.failed / honest.attempted


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("dist", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
