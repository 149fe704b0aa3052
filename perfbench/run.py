"""
postdist benchmark.

    python3 perfbench/run.py --workload {dist,verify,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
`src/postdist` beside this directory, never from an installed copy.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 repeats cycle 0 of the workload in untraced and traced passes
(at least two traced), and reports per-layer counts and self times per cycle
together with the tracing overhead and the share of traced time the layers
cover.  Counts that differ between traced passes, or coverage below 0.95,
count as failed operations.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DIST_CELLS,
    ESTIMATE_TOL,
    STATEMENT_IDS,
    WORKLOADS,
    CycleResult,
    Reference,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 11
MIN_COVERAGE = 0.95
# A traced run adds no pass that would end past this, once it has one traced
# pass, so a run whose cycle 0 is unusually slow still exits within 180 s.
TRACE_BUDGET_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "work_per_ref": "1/ref", "peak_rss_mb": "MB"}

PER_LAYER = (
    "numpy.eig_calls", "numpy.eig_matrices", "numpy.eig_s",
    "numpy.einsum_calls", "numpy.einsum_bytes", "numpy.einsum_s",
    "linalg.calls", "linalg.s",
    "channels.calls", "channels.s",
    "distances.estimate_calls", "distances.estimate_self_s", "distances.converged_ratio",
    "distances.witness_calls", "distances.witness_s",
    "distances.oracle_s",
    "theorems.calls", "theorems.self_s",
    *(f"distances.{cell}.{m}" for cell in DIST_CELLS for m in ("s", "eig_matrices")),
    *(f"suites.{sid}.{m}" for sid in STATEMENT_IDS for m in ("s", "eig_matrices")),
    "trace.overhead_ratio", "trace.coverage",
)


def per_layer_unit(name: str) -> str:
    if name.endswith(("_calls", ".calls", "_matrices")):
        return "count"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "s"


def is_count(name: str) -> bool:
    return per_layer_unit(name) in ("count", "B")


def import_program():
    """Import postdist afresh from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "postdist" or m.startswith("postdist.")]:
        del sys.modules[name]
    return importlib.import_module("postdist")


def setup(workload, seed: int, reference: Reference):
    """
    Imports plus cycle-0 input generation, repeated.

    Returns the median set-up in seconds and the median set-up in seconds at
    the reference loop's nominal speed: each set-up is divided by the
    reference loop timed just before it, because this machine's speed can
    change by half between runs (NOTES.md).
    """
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        ref = reference.time_once()
        t0 = perf_counter()
        pd = import_program()
        first = workload.inputs(pd, seed, 0)
        times.append(perf_counter() - t0)
        scaled.append(times[-1] / ref * Reference.NOMINAL_S)
    return pd, first, statistics.median(times), statistics.median(scaled)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def work_per_ref(res: CycleResult, latencies) -> float:
    """Work per call divided by the geometric-mean call latency.

    Single calls are heavy-tailed (a 0.2 s estimate can take 3 s, a 2 s one
    20 s), so the plain closed-loop rate of a short run depends on which
    inputs the seed drew; the geometric mean does not.
    """
    lat = np.asarray(latencies)
    return res.work / lat.size / float(np.exp(np.mean(np.log(lat))))


def measure_untraced(workload, pd, first, seed: int, seconds: float, reference: Reference):
    """Run whole cycles, the first on the set-up inputs, until `seconds` have passed."""
    total = CycleResult()
    cycles = 0
    report_text = None
    t_start = perf_counter()
    while cycles == 0 or perf_counter() - t_start < seconds:
        inputs = first if cycles == 0 else workload.inputs(pd, seed, cycles, first)
        res = workload.run_cycle(pd, inputs, reference)
        if cycles == 0:
            report_text = res.report_text
        total.merge(res)
        cycles += 1
    return total, cycles, report_text


def measure_traced(workload, pd, first, seconds: float):
    """
    Repeat cycle 0 as untraced, traced, traced, untraced, ... passes until
    time is up and at least two traced passes have run, so the counts of two
    passes can be compared.  Only a cycle 0 slower than a third of
    TRACE_BUDGET_S leaves a single traced pass, with no comparison.
    """
    tracer = Tracer()
    total = CycleResult()
    walls = {False: [], True: []}
    per_pass = []
    coverage = []
    t_start = perf_counter()
    passes = 0
    while len(per_pass) < 2 or perf_counter() - t_start < seconds:
        slowest = max(walls[False] + walls[True], default=0.0)
        if per_pass and perf_counter() - t_start + slowest > TRACE_BUDGET_S:
            break
        traced = passes % 4 in (1, 2)
        if traced:
            tracer.reset_totals()
            tracer.install()
        try:
            t0 = perf_counter()
            res = workload.run_cycle(pd, first)
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        total.merge(res)
        if traced:
            per_pass.append(tracer.totals())
            coverage.append(tracer.layer_self_s() / wall)
        passes += 1
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace_{workload.name}.npz")

    metrics = {}
    for name in PER_LAYER[:-2]:
        values = [p.get(name, 0) for p in per_pass]
        metrics[name] = values[0] if is_count(name) else statistics.fmean(values)
    unsteady = [n for n in PER_LAYER[:-2] if is_count(n) and len({p.get(n, 0) for p in per_pass}) > 1]
    metrics["trace.overhead_ratio"] = statistics.fmean(walls[True]) / statistics.fmean(walls[False]) - 1.0
    metrics["trace.coverage"] = min(coverage)
    if len(per_pass) > 1:
        total.record("traced counts repeat", [f"counts differ between passes: {unsteady}"] if unsteady else [])
    total.record(
        "traced coverage",
        [f"layer self time covers {min(coverage):.4f} of a pass"] if min(coverage) < MIN_COVERAGE else [],
    )
    notes = {
        "passes": passes,
        "traced_passes": len(per_pass),
        "counts_compared": len(per_pass) > 1,
        "unmeasured": sorted(set(tracer.unmeasured)),
        "counts_differing_between_passes": unsteady,
        "spans_written": len(tracer.start),
    }
    return total, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "postdist" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'postdist'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    reference = Reference()
    pd, first, setup_plain_s, setup_s = setup(workload, args.seed, reference)
    env = environment(args.seed)

    if args.trace:
        total, metrics, notes = measure_traced(workload, pd, first, args.seconds)
        print("trace " + json.dumps(notes, sort_keys=True))
        units = {name: per_layer_unit(name) for name in PER_LAYER}
    else:
        total, cycles, report_text = measure_untraced(
            workload, pd, first, args.seed, args.seconds, reference
        )
        if report_text is not None:
            env["verify_report_sha256"] = hashlib.sha256(report_text.encode()).hexdigest()
            env["verify_report_command"] = (
                f"postdist verify --suite all --seed {args.seed} --trials {first.trials}"
            )
        lat = np.array(total.latencies)
        ref = np.array(total.ref_latencies)
        metrics = {
            "setup_s": setup_s,
            "work_per_ref": work_per_ref(total, lat / ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        # Latency percentiles are printed, not gated: across seeds they spread
        # too wide for any allowed bound (NOTES.md).
        p50 = float(np.median(lat))
        tail = float(np.percentile(lat, workload.tail_pct))
        beyond = int((lat > tail).sum())
        print(f"{workload.name}: {cycles} cycles, {lat.size} {workload.latency_name} calls")
        for name, value, unit in (
            ("setup_s", setup_s, f"s (at a {Reference.NOMINAL_S} s reference loop)"),
            ("setup_plain_s", setup_plain_s, "s"),
            (workload.work_name, total.work / float(lat.sum()), "1/s (work / summed call time)"),
            ("reference_loop_s", float(np.median(ref)), "s (median)"),
            ("work_per_ref", metrics["work_per_ref"], "1/ref (each call timed in reference-loop units)"),
            (f"{workload.latency_name}_p50_s", p50, "s"),
            (f"{workload.latency_name}_tail_s", tail,
             f"s (p{workload.tail_pct}, {beyond} of {lat.size} calls beyond it)"),
            ("fail_ratio", total.failed / total.attempted, f"({total.failed} of {total.attempted})"),
            ("lift_shortfalls", len(total.shortfalls),
             f"(of {total.lift_checks} lift checks: above float noise, within {ESTIMATE_TOL})"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ):
            print(f"metric {name} = {value!r} {unit}")

    print("env " + json.dumps(env, sort_keys=True))
    for shortfall in total.shortfalls[:20]:
        print("SHORTFALL " + shortfall)
    for failure in total.failures[:20]:
        print("FAILED " + failure)
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
