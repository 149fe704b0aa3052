# tests/test_suites.py

import pytest

from postdist.channels import ParameterError
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
    with pytest.raises(ParameterError):
        normalize_suite_ids("T9")
    with pytest.raises(ParameterError):
        normalize_suite_ids(" , ")


def test_run_statement_unknown_id():
    with pytest.raises(ParameterError):
        run_statement("nope", SMALL)


def test_run_config_rejects_empty_corpora():
    # An empty corpus would report "0/0 passed" and count as a pass.
    for bad in ({"trials": 0}, {"trials": -3}, {"dims": ()}):
        with pytest.raises(ParameterError):
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
