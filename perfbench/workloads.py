"""
The three benchmark workloads.

Each workload is a closed loop of cycles: one caller, the next call issued
after the previous one returns.  A cycle is a fixed mix of public calls on
inputs generated from (seed, cycle), so every cycle does the same kinds of
work in the same proportion and a run can stop at any cycle boundary.  Each
output is checked right after its call, outside the timed interval.

  dist    distance(measure, a, b, OptimizerConfig()) at the CLI default
  verify  run_suite((sid,), RunConfig(seed, trials=6)) for every statement id
  oracle  dense_oracle(measure, a, b, samples=16384, seed) for every measure
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

SEED_MASK = (1 << 63) - 1

# Measures run on each random pair, by dimension.  hat-diamond at d=3 and 4
# and diamond and hat-tr at d=4 are left out of `dist`: single estimates
# there take up to 34 s, so runs would not stay short (see NOTES.md).
DIST_MEASURES_BY_DIM = {
    2: ("dtrD", "dtr", "diamond", "hat-tr", "hat-diamond"),
    3: ("dtrD", "dtr", "diamond", "hat-tr"),
    4: ("dtrD", "dtr"),
}
# Random pairs of each random_channel kind per cycle, by dimension.  The cheap
# d=2 cells get two, so a run holds enough calls for steady medians.
DIST_PAIRS_PER_KIND = {2: 2, 3: 1, 4: 1}
ORACLE_PAIRS_PER_KIND = {2: 1, 3: 1}
PAIR_KINDS = ("cptp", "postselection")
MEASURES = ("dtrD", "dtr", "diamond", "hat-tr", "hat-diamond")
# Measure/dimension cells `dist` runs (the gallery adds hat-diamond at d=3).
DIST_CELLS = tuple(f"{m}.d{d}" for d in (2, 3) for m in MEASURES) + ("dtrD.d4", "dtr.d4")
STATEMENT_IDS = ("L1", "F2", "T1", "T2", "T3", "C1", "T4", "T5", "T6", "C2", "L2", "CE1", "CE2", "CE3")

VERIFY_TRIALS = 6  # one full period of the suites' idx % 2 and idx % 3 variants
ORACLE_SAMPLES = 16384

WITNESS_RTOL = 1e-12  # evaluate_witness must reproduce an estimate's value
# How far an optimizer estimate may fall short of a value known to be
# attainable (a closed form, or a lifted dominated witness) before it fails.
# 1e-4 is the accuracy the acceptance tests ask of the optimizer on closed
# forms.
ESTIMATE_TOL = 1e-4
# A smaller shortfall below a lifted witness is not a failure, but anything
# above float noise is counted and printed: it shows the optimizer stopping
# short of a point it could reach.
LIFT_NOISE_RTOL = 1e-9
ORACLE_TOL = 1e-9  # oracle value vs its sound range or closed form


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed & SEED_MASK, *keys])


# Bound at import, before any tracer is installed, so the reference loop and
# the lift checks add no numpy spans.
_EIGH = np.linalg.eigh
_EIGVALSH = np.linalg.eigvalsh
_EINSUM = np.einsum


class Reference:
    """
    A fixed numpy-and-Python loop, timed between the workload's calls.

    The 2-core VM this benchmark was tuned on drifted by up to 60% in speed
    within minutes, in CPU time as well as wall time.  Timed next to the calls, this
    loop slows and speeds up with them: over 10 s windows, postdist call
    latency moved by +-13% while its ratio to this loop moved by +-4%.
    """

    EVERY_S = 1.0  # re-time the loop before a call once this much time has passed
    # Roughly the loop's time on the VM above (26-44 ms); `setup_s` is
    # reported as seconds on a machine where the loop takes exactly this.
    NOMINAL_S = 0.035

    def __init__(self):
        g = np.random.default_rng(0)
        x = g.standard_normal((256, 6, 6)) + 1j * g.standard_normal((256, 6, 6))
        self._herm = x + x.conj().transpose(0, 2, 1)
        self._kraus = g.standard_normal((3, 6, 6)) + 0j
        self._vecs = g.standard_normal((256, 6)) + 0j
        self.latest = None
        self._timed_at = -math.inf

    def refresh(self) -> None:
        if perf_counter() - self._timed_at >= self.EVERY_S:
            self.time_once()

    def time_once(self) -> float:
        t0 = perf_counter()
        for _ in range(20):
            w = _EINSUM("eij,mj->mei", self._kraus, self._vecs)
            _EINSUM("mei,mek->mik", w, w.conj())
            _EIGVALSH(self._herm)
        total = 0
        for i in range(3000):
            total += i * i
        self._timed_at = perf_counter()
        self.latest = self._timed_at - t0
        return self.latest


@dataclass
class CycleResult:
    latencies: list = field(default_factory=list)  # seconds per timed public call
    reference: Reference | None = None
    ref_latencies: list = field(default_factory=list)  # reference loop time next to each call
    work: int = 0  # estimates, statement checks or oracle samples completed
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    lift_checks: int = 0
    shortfalls: list = field(default_factory=list)  # below a lifted witness, within ESTIMATE_TOL
    report_text: str | None = None

    def record(self, label: str, problems: list) -> None:
        """Count one attempted operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {problems[0]}")

    def merge(self, other: "CycleResult") -> None:
        self.latencies.extend(other.latencies)
        self.ref_latencies.extend(other.ref_latencies)
        self.work += other.work
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)
        self.lift_checks += other.lift_checks
        self.shortfalls.extend(other.shortfalls)


def random_pairs(pd, seed: int, cycle: int, per_kind: dict) -> list:
    """(d, a, b) for `per_kind[d]` fresh pairs of each kind at each dimension d."""
    pairs = []
    for d, count in per_kind.items():
        for k, kind in enumerate(PAIR_KINDS):
            rng = rng_for(seed, cycle, d, k)
            for _ in range(count):
                a = pd.channels.random_channel(d, d, rank=2, kind=kind, seed=rng)
                b = pd.channels.random_channel(d, d, rank=2, kind=kind, seed=rng)
                pairs.append((d, a, b))
    return pairs


def gallery(pd) -> list:
    """(measure, a, b, closed form) for the pairs the acceptance tests pin."""
    ch = pd.channels
    items = []
    for eps in (0.1, 1.0 / 3.0, 0.5):
        psi, phi, tau = ch.contractivity_triple(eps)
        items.append(("hat-diamond", psi, phi, 1.0))
        items.append(("hat-diamond", ch.compose(tau, psi), ch.compose(tau, phi), 2.0 / (1.0 + eps)))
    psi, phi = ch.conversion_pair()
    items.append(("hat-tr", psi, phi, 0.0))
    items.append(("dtrD", psi, phi, 0.5))
    for d in (2, 3):
        items.append(("hat-diamond", ch.teleportation(d), ch.isometry(np.eye(d), name="identity"), 0.0))
    return items


def _timed(res: CycleResult, call):
    """Run one public call, appending its latency; returns (value, exception)."""
    if res.reference is not None:
        res.reference.refresh()
        res.ref_latencies.append(res.reference.latest)
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failing call is a failed operation, not a crash
        res.latencies.append(perf_counter() - t0)
        return None, exc
    res.latencies.append(perf_counter() - t0)
    return out, None


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def _lift_floor(pd, measure, a, b, found):
    """Value a dominated measure's witness attains once lifted into `measure`'s domain."""
    ev = pd.distances.evaluate_witness
    pure = pd.channels.PureState.normalized
    if measure == "dtr" and "dtrD" in found:
        u = found["dtrD"].witness
        return ev("dtr", a, b, (u, u))
    if measure == "diamond" and "dtrD" in found:
        u = found["dtrD"].witness.vector
        e0 = np.zeros(u.size)
        e0[0] = 1.0
        return ev("diamond", a, b, pure(np.kron(u, e0)))
    if measure == "hat-diamond" and "hat-tr" in found:
        w, v = _EIGH(found["hat-tr"].witness.matrix)
        return ev("hat-diamond", a, b, pure((v * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)))
    return None


class Dist:
    name = "dist"
    work_name = "estimates_per_s"
    latency_name = "estimate"
    tail_pct = 85

    def inputs(self, pd, seed, cycle, first=None):
        fixed = gallery(pd) if first is None else first[1]
        return random_pairs(pd, seed, cycle, DIST_PAIRS_PER_KIND), fixed

    def run_cycle(self, pd, inputs, reference=None) -> CycleResult:
        pairs, fixed = inputs
        res = CycleResult(reference=reference)
        for d, a, b in pairs:
            found = {}
            for measure in DIST_MEASURES_BY_DIM[d]:
                est, problems = self._estimate(pd, res, measure, a, b)
                if not problems:
                    try:
                        floor = _lift_floor(pd, measure, a, b, found)
                    except Exception as exc:
                        floor = None
                        problems.append(f"lifted witness raised {exc!r}")
                    if floor is not None:
                        res.lift_checks += 1
                        gap = floor - est.value
                        if gap > ESTIMATE_TOL:
                            problems.append(f"estimate {est.value!r} below lifted witness {floor!r}")
                        elif gap > LIFT_NOISE_RTOL * max(1.0, abs(floor)):
                            res.shortfalls.append(
                                f"{measure} d{d} {a.name} vs {b.name}: {est.value!r} is {gap:.3g} "
                                f"below lifted witness {floor!r}"
                            )
                    found[measure] = est
                res.record(f"{measure} d{d} {a.name} vs {b.name}", problems)
        for measure, a, b, expected in fixed:
            est, problems = self._estimate(pd, res, measure, a, b)
            if not problems and abs(est.value - expected) > ESTIMATE_TOL:
                problems.append(f"estimate {est.value!r} vs closed form {expected!r}")
            res.record(f"{measure} {a.name} vs {b.name}", problems)
        return res

    @staticmethod
    def _estimate(pd, res, measure, a, b):
        cfg = pd.distances.OptimizerConfig()
        est, exc = _timed(res, lambda: pd.distances.distance(measure, a, b, cfg))
        if exc is not None:
            return None, [f"raised {exc!r}"]
        if not np.isfinite(est.value):
            return est, [f"non-finite value {est.value!r}"]
        res.work += 1
        again = pd.distances.evaluate_witness(measure, a, b, est.witness)
        if abs(again - est.value) > WITNESS_RTOL * max(1.0, abs(est.value)):
            return est, [f"witness gives {again!r}, estimate says {est.value!r}"]
        return est, []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify:
    name = "verify"
    work_name = "checks_per_s"
    latency_name = "statement"
    tail_pct = 75

    def inputs(self, pd, seed, cycle, first=None):
        # Cycle 0 uses the benchmark seed itself, so its report matches
        # `postdist verify --suite all --seed <seed> --trials 6`.
        return pd.suites.RunConfig(seed=seed + (cycle << 32), trials=VERIFY_TRIALS)

    def run_cycle(self, pd, cfg, reference=None) -> CycleResult:
        res = CycleResult(reference=reference)
        results = {}
        for sid in STATEMENT_IDS:
            out, exc = _timed(res, lambda: pd.suites.run_suite((sid,), cfg))
            if exc is not None:
                res.record(sid, [f"raised {exc!r}"])
                continue
            results[sid] = out[sid]
            for index, report in enumerate(out[sid]):
                res.work += 1
                problems = [] if report.passed else ["FAIL"]
                problems.extend(f"aux: {v}" for v in report.aux_violations)
                res.record(f"{sid} {index:03d} (seed {cfg.seed})", problems)
        res.report_text = pd.suites.format_suite_results(results)
        return res


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


class Oracle:
    name = "oracle"
    work_name = "samples_per_s"
    latency_name = "oracle"
    tail_pct = 90

    def inputs(self, pd, seed, cycle, first=None):
        fixed = gallery(pd) if first is None else first[1]
        norm = pd.distances.diamond_norm_channel
        calls = []
        for d, a, b in random_pairs(pd, seed, cycle, ORACLE_PAIRS_PER_KIND):
            # Sound range: every measure is at most 2, and the unstabilized and
            # diamond distances at most ||a||_diamond + ||b||_diamond.
            for measure in MEASURES:
                top = 2.0 if measure.startswith("hat") else min(2.0, norm(a) + norm(b))
                calls.append((measure, a, b, top))
        calls.extend(fixed)
        seeds = rng_for(seed, cycle, 1 << 20).integers(0, 2**62, size=len(calls))
        return [(m, a, b, top, int(s)) for (m, a, b, top), s in zip(calls, seeds)], fixed

    def run_cycle(self, pd, inputs, reference=None) -> CycleResult:
        calls, _ = inputs
        res = CycleResult(reference=reference)
        for measure, a, b, top, seed in calls:
            value, exc = _timed(
                res, lambda: pd.distances.dense_oracle(measure, a, b, samples=ORACLE_SAMPLES, seed=seed)
            )
            problems = []
            if exc is not None:
                problems.append(f"raised {exc!r}")
            elif not (-ORACLE_TOL <= value <= top + ORACLE_TOL):
                problems.append(f"value {value!r} outside [0, {top!r}]")
            else:
                res.work += ORACLE_SAMPLES
            res.record(f"{measure} {a.name} vs {b.name}", problems)
        return res


WORKLOADS = {w.name: w for w in (Dist(), Verify(), Oracle())}
