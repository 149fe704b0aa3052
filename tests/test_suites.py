# tests/test_suites.py

import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from postdist import theorems
from postdist.linalg import InvalidInputError
from postdist.suites import (
    FIXED_SWEEP_IDS,
    STATEMENT_IDS,
    RunConfig,
    format_report_line,
    format_suite_results,
    normalize_suite_ids,
    run_statement,
    run_suite,
    suite_passed,
)
from postdist.theorems import TheoremReport

SMALL = RunConfig(seed=7, trials=2, dims=(2,), restarts=4, max_iterations=80)


def test_normalize_suite_ids():
    # The table order seeds every instance stream, so reordering it must fail.
    assert STATEMENT_IDS == (
        "L1", "F2", "T1", "T2", "T3", "C1", "T4", "T5", "T6", "C2", "L2", "CE1", "CE2", "CE3"
    )
    assert FIXED_SWEEP_IDS == ("CE1", "CE2", "CE3")
    assert normalize_suite_ids("all") == STATEMENT_IDS
    assert normalize_suite_ids(" ALL ") == STATEMENT_IDS
    assert normalize_suite_ids("T1,CE2") == ("T1", "CE2")
    assert normalize_suite_ids("T1, T1 ,CE2") == ("T1", "CE2")
    with pytest.raises(InvalidInputError):
        normalize_suite_ids("T9")
    with pytest.raises(InvalidInputError):
        normalize_suite_ids(" , ")


def test_run_statement_unknown_id():
    with pytest.raises(InvalidInputError):
        run_statement("nope", SMALL)


def test_run_config_rejects_empty_corpora():
    # An empty corpus would report "0/0 passed" and count as a pass.
    # Non-integer seeds and trial counts (bools included) failed later with a raw TypeError.
    bad_values = (
        {"trials": 0},
        {"trials": -3},
        {"dims": ()},
        {"dims": (2.5,)},
        {"dims": (0,)},
        {"seed": 1.5},
        {"trials": 2.5},
        {"seed": True},
        {"trials": True},
    )
    for bad in bad_values:
        with pytest.raises(InvalidInputError):
            RunConfig(**bad)
    # Dimension 1 is a valid corpus; requiring d >= 2 is the CLI's policy.
    tiny = RunConfig(seed=3, trials=1, dims=(1,), restarts=3, max_iterations=60)
    assert suite_passed(run_suite(("L1", "T2"), tiny))


def test_run_config_rejects_bad_optimizer_knobs():
    # Boosted statements raise max_iterations to 1000, so a bad value would
    # otherwise pass silently through them.
    for bad in ({"restarts": 0}, {"max_iterations": -1}, {"value_tolerance": float("nan")}):
        with pytest.raises(InvalidInputError):
            RunConfig(**bad)


def test_fixed_sweeps_ignore_trials():
    # counterexample statements are parameter sweeps, not random corpora
    for sid in FIXED_SWEEP_IDS:
        a = run_statement(sid, RunConfig(seed=1, trials=2, restarts=4, max_iterations=80))
        b = run_statement(sid, RunConfig(seed=2, trials=5, restarts=4, max_iterations=80))
        assert len(a) == len(b)
        assert all(r.passed for r in a)


def test_random_corpus_statements_honor_trials():
    reports = run_statement("L1", SMALL)
    assert len(reports) == SMALL.trials
    assert all(r.statement == "L1" for r in reports)
    assert all(r.passed for r in reports)


def test_instance_streams_stable_under_trial_count():
    # growing the corpus must not reshuffle earlier instances
    few = run_statement("F2", SMALL)
    more = run_statement("F2", RunConfig(seed=7, trials=4, dims=(2,), restarts=4, max_iterations=80))
    for a, b in zip(few, more):
        assert a.lhs == b.lhs and a.rhs == b.rhs


def test_run_suite_subset_and_pass_flag():
    results = run_suite(("CE1", "CE2"), SMALL)
    assert set(results) == {"CE1", "CE2"}
    assert suite_passed(results)


def test_format_report_line():
    results = run_suite(("CE2",), SMALL)
    line = format_report_line(results["CE2"][0], 0)
    assert line.startswith("CE2 000 lhs=")
    assert line.endswith(" PASS")
    assert "rhs=" in line and "slack=" in line


def test_format_suite_results_layout_and_determinism():
    text = format_suite_results(run_suite(("CE1", "CE3"), SMALL))
    again = format_suite_results(run_suite(("CE1", "CE3"), SMALL))
    assert text == again
    lines = text.splitlines()
    assert lines[-1] == "OK"
    assert "CE1: 3/3 passed" in lines
    assert text.endswith("\n")


def test_statement_ids_cover_runners():
    small = RunConfig(seed=3, trials=1, dims=(2,), restarts=3, max_iterations=60)
    for sid in STATEMENT_IDS:
        reports = run_statement(sid, small)
        assert reports, sid
        assert all(r.statement == sid for r in reports)
        # An np.float64 lhs or rhs would print as np.float64(...) in the report.
        assert all(type(r) is TheoremReport for r in reports), sid
        assert all(type(r.lhs) is float and type(r.rhs) is float for r in reports), sid


GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_seed0_trials20.txt"
REPORT_LINE = re.compile(r"(\S+ \d{3}) lhs=(\S+) rhs=(\S+) slack=\S+ (PASS|FAIL)")


def test_verify_report_matches_the_golden_report():
    # The checked-in file is the stdout of
    # `python -m postdist verify --suite all --seed 0 --trials 20`
    # (OPENBLAS_NUM_THREADS=1).  Report lines must keep their ids and verdicts
    # with lhs and rhs within 1e-9; every other line (aux, totals) is exact.
    golden = GOLDEN_REPORT.read_text().splitlines()
    report = format_suite_results(run_suite(STATEMENT_IDS, RunConfig(seed=0, trials=20)))
    lines = report.splitlines()
    assert len(lines) == len(golden)
    for line, want in zip(lines, golden):
        got, expected = REPORT_LINE.fullmatch(line), REPORT_LINE.fullmatch(want)
        if expected is None:
            assert line == want
            continue
        assert got is not None, line
        assert (got[1], got[4]) == (expected[1], expected[4]), line
        for value, reference in ((got[2], expected[2]), (got[3], expected[3])):
            assert math.isclose(float(value), float(reference), rel_tol=0.0, abs_tol=1e-9), line


def _same(a, b) -> bool:
    # Bit-for-bit equality through reports, witnesses and estimates.
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a)]
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in names)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b or (a != a and b != b)


# One statement per checker family: C1 stands for T2 and T5, whose checkers
# run the same steps with another measure pair or bound.
CHECKERS = [
    ("L1", "check_state_distance_doubling"),
    ("F2", "check_dilation_norm_identity"),
    ("T1", "check_subadditivity"),
    ("T3", "check_isometry_approximation"),
    ("C1", "check_diamond_from_state_distance"),
    ("T4", "check_postselected_subadditivity"),
    ("T6", "check_postselected_dilation_bound"),
    ("C2", "check_postselected_contractivity"),
    ("L2", "check_conversion"),
    ("CE3", "alpha_necessity_report"),
]


@pytest.mark.parametrize("sid, name", CHECKERS)
def test_public_checker_reproduces_its_lockstep_instance(monkeypatch, sid, name):
    # run_statement runs every instance's estimates in shared lockstep batches;
    # calling the public checker on one instance's arguments runs it alone.
    check = getattr(theorems, name)
    steps, calls = check.steps, []
    signature = inspect.signature(check)
    assert signature.parameters == inspect.signature(steps).parameters
    assert signature.return_annotation == "TheoremReport"

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return steps(*args, **kwargs)

    monkeypatch.setattr(check, "steps", recording)
    batched = run_statement(sid, RunConfig(seed=5, trials=4, restarts=4, max_iterations=60))
    monkeypatch.undo()
    assert len(calls) == len(batched)
    for (args, kwargs), report in zip(calls, batched):
        assert _same(check(*args, **kwargs), report)
