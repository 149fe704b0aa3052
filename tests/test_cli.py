# tests/test_cli.py

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import postdist
from postdist.channels import PureState, channel_to_json, random_channel, read_channel
from postdist.cli import main
from postdist.distances import evaluate_witness
from postdist.theorems import TheoremReport

FAST = ["--restarts", "4", "--max-iter", "100"]


def _write_channel_json(path, ch):
    path.write_text(json.dumps(channel_to_json(ch)))
    return str(path)


def _example(tmp_path, *args):
    assert main(["example", *args, "--out-dir", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def test_example_dist_round_trip(tmp_path, capsys):
    _example(tmp_path, "nonconvexity_pair", "--epsilon", "0.25")
    capsys.readouterr()
    a = str(tmp_path / "nonconvexity_pair_0.json")
    b = str(tmp_path / "nonconvexity_pair_1.json")
    assert main(["dist", "hat-tr", a, b, *FAST]) == 0
    out = capsys.readouterr().out
    assert out.startswith("measure=hat-tr value=")
    value = float(out.split("value=")[1].split()[0])
    assert value == pytest.approx(1.0, abs=1e-9)
    assert "converged=" in out and "restarts=" in out
    assert "witness=density(dim=2)" in out


def test_dist_out_json_matches_stdout(tmp_path, capsys):
    _example(tmp_path, "conversion_pair")
    capsys.readouterr()
    a = str(tmp_path / "conversion_pair_0.json")
    b = str(tmp_path / "conversion_pair_1.json")
    out_file = tmp_path / "result.json"
    assert main(["dist", "dtrD", a, b, *FAST, "--out", str(out_file)]) == 0
    stdout_value = float(capsys.readouterr().out.split("value=")[1].split()[0])
    payload = json.loads(out_file.read_text())
    assert payload["measure"] == "dtrD"
    assert payload["value"] == stdout_value
    assert payload["witness"]["type"] == "pure"
    assert len(payload["witness"]["vector"]) == 2


def test_dist_out_json_writes_a_pure_pair_witness(tmp_path, capsys):
    # dtr's witness is a pair of pure states; the JSON rebuilds both, and the
    # objective at them is the reported value, exactly.
    _example(tmp_path, "conversion_pair")
    capsys.readouterr()
    a, b = (str(tmp_path / f"conversion_pair_{i}.json") for i in (0, 1))
    out_file = tmp_path / "result.json"
    assert main(["dist", "dtr", a, b, *FAST, "--out", str(out_file)]) == 0
    assert "witness=pure_pair(dim=2)" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["witness"]["type"] == "pure_pair"
    left, right = (
        PureState(np.array(payload["witness"][side]) @ np.array([1.0, 1.0j]))
        for side in ("left", "right")
    )
    witness_value = evaluate_witness("dtr", read_channel(a), read_channel(b), (left, right))
    assert witness_value == payload["value"]


def test_dist_out_json_carries_repeatable_counters(tmp_path, capsys):
    _example(tmp_path, "conversion_pair")
    a = str(tmp_path / "conversion_pair_0.json")
    b = str(tmp_path / "conversion_pair_1.json")
    payloads, lines = [], []
    for run in range(2):
        capsys.readouterr()
        out_file = tmp_path / f"result_{run}.json"
        assert main(["dist", "hat-diamond", a, b, *FAST, "--out", str(out_file)]) == 0
        lines.append(capsys.readouterr().out)
        payloads.append(json.loads(out_file.read_text()))
    assert lines[0] == lines[1]
    assert "iterations" not in lines[0] and "evaluations" not in lines[0]
    for counter in ("agreeing_restarts", "restart_spread"):
        assert counter not in lines[0]
    first, second = payloads
    assert isinstance(first["iterations"], int) and first["iterations"] >= 1
    assert first["evaluations"] > first["iterations"]
    assert isinstance(first["agreeing_restarts"], int)
    assert 1 <= first["agreeing_restarts"] <= first["restarts_used"]
    assert first["restart_spread"] >= 0.0
    counters = ("iterations", "evaluations", "agreeing_restarts", "restart_spread")
    assert [first[c] for c in counters] == [second[c] for c in counters]


def test_dist_seed_changes_are_still_deterministic(tmp_path, capsys):
    _example(tmp_path, "teleportation", "--dim", "2")
    _example(tmp_path, "isometry", "--matrix", _write_matrix(tmp_path))
    capsys.readouterr()
    a = str(tmp_path / "teleportation_0.json")
    b = str(tmp_path / "isometry_0.json")
    outputs = []
    for _ in range(2):
        assert main(["dist", "diamond", a, b, "--seed", "3", *FAST]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert float(outputs[0].split("value=")[1].split()[0]) == pytest.approx(0.75, abs=1e-9)


def _write_matrix(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    return str(path)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_argparse_rejections_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["dist", "fidelity", "a.json", "b.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exits_two(tmp_path, capsys):
    good = _write_channel_json(
        tmp_path / "good.json", random_channel(2, 2, rank=2, kind="cptp", seed=1)
    )
    assert main(["dist", "dtrD", good, str(tmp_path / "missing.json"), *FAST]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = _write_channel_json(
        tmp_path / "good.json", random_channel(2, 2, rank=2, kind="cptp", seed=1)
    )
    for content in (b"{not json", b'{"name": "\xff\xfe"}'):
        bad.write_bytes(content)
        assert main(["dist", "dtrD", str(bad), good, *FAST]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["example", "isometry", "--matrix", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "error: cannot parse matrix file" in capsys.readouterr().err
    # Python's json reads the literals NaN and Infinity, which are not JSON, as floats.
    for entry in ("NaN", "Infinity"):
        bad.write_text(f'{{"name": "n", "dim_in": 1, "dim_out": 1, "kraus": [[[[{entry}, 0.0]]]]}}')
        assert main(["dist", "dtrD", str(bad), good, *FAST]) == 2
        assert "kraus[0]: entries must be finite [re, im] number pairs" in capsys.readouterr().err
    # JSON booleans are not dimensions, although isinstance(True, int) holds.
    bad.write_text('{"name": "b", "dim_in": true, "dim_out": true, "kraus": [[[[1.0, 0.0]]]]}')
    assert main(["dist", "dtrD", str(bad), str(bad), *FAST]) == 2
    assert "dim_in must be an integer, got True" in capsys.readouterr().err
    assert main(["example", "isometry", "--matrix", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    # np.asarray(..., dtype=float) converts strings and booleans, even mixed with
    # numbers, and null to nan.
    for entries in ('["1", "0"]', "[true, false]", "[true, 0.5]", "[null, 0.0]"):
        bad.write_text(f'{{"name": "b", "dim_in": 1, "dim_out": 1, "kraus": [[[{entries}]]]}}')
        assert main(["dist", "dtrD", str(bad), str(bad), *FAST]) == 2
        assert "entries must be finite [re, im] number pairs" in capsys.readouterr().err
        bad.write_text(f"[[{entries}]]")
        assert main(["example", "isometry", "--matrix", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "entries must be finite [re, im] number pairs" in capsys.readouterr().err


def test_overflowing_entries_and_negative_seeds_exit_two(tmp_path):
    # An integer entry too large for a float and a negative seed are bad input:
    # the process exits 2 with one error line, not 1 with a traceback.
    src = str(Path(postdist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    huge = tmp_path / "huge.json"
    huge.write_text(f'{{"name": "h", "dim_in": 1, "dim_out": 1, "kraus": [[[[{10**400}, 0]]]]}}')
    matrix = tmp_path / "matrix.json"
    matrix.write_text(f"[[[{10**400}, 0]]]")
    example = ["example", "isometry", "--matrix", str(matrix), "--out-dir", str(tmp_path)]
    for argv, message in (
        (["dist", "dtrD", str(huge), str(huge)], "kraus[0]: entries must be finite [re, im]"),
        (example, "matrix file: entries must be finite [re, im]"),
        (["verify", "--suite", "CE3", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "postdist", *argv], env=env, capture_output=True, timeout=300
        )
        err = run.stderr.decode()
        assert run.returncode == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_example_parameter_errors_exit_two(tmp_path, capsys):
    assert main(["example", "nonconvexity_pair", "--out-dir", str(tmp_path)]) == 2
    assert main(["example", "isometry", "--out-dir", str(tmp_path)]) == 2
    assert main(["curve", "--figure", "1"]) == 2
    assert main(["verify", "--suite", "T9"]) == 2
    assert main(["verify", "--suite", "CE1", "--dims", "2,x"]) == 2
    assert main(["verify", "--suite", "CE1", "--dims", "1"]) == 2
    assert main(["verify", "--suite", "L1", "--trials", "0"]) == 2
    assert main(["verify", "--suite", "L1", "--trials", "-3"]) == 2
    assert main(["verify", "--suite", "L1", "--max-iter", "-1"]) == 2
    a = _write_channel_json(tmp_path / "a.json", random_channel(2, 2, rank=2, kind="cptp", seed=1))
    b = _write_channel_json(tmp_path / "b.json", random_channel(2, 2, rank=2, kind="cptp", seed=2))
    for flags in (["--max-iter", "-1"], ["--tol", "nan"], ["--tol", "-1"]):
        assert main(["dist", "dtrD", a, b, *flags]) == 2
    # Each command takes only the flags it reads; argparse rejects the rest.
    for argv in (
        ["dist", "dtrD", a, b, "--trials", "0"],
        ["dist", "dtrD", a, b, "--dims", "x"],
        ["example", "conversion_pair", "--seed", "5", "--out-dir", str(tmp_path)],
        ["example", "conversion_pair", "--tol", "1", "--out-dir", str(tmp_path)],
        ["curve", "--figure", "2", "--trials", "4"],
        ["curve", "--figure", "2", "--dims", "9,9"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_invalid_channel_exits_three(tmp_path, capsys):
    cases = (
        [[[[2.0, 0.0]]]],
        # The effect operators overflow to nan and to inf, where the check
        # lambda_max(E) > 1 + 1e-9 alone is False.
        [[[[1e200, 0.0], [1e200, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        [[[[1e155, 1e155], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
    )
    path = tmp_path / "big.json"
    for kraus in cases:
        dim = len(kraus[0])
        path.write_text(json.dumps({"name": "big", "dim_in": dim, "dim_out": dim, "kraus": kraus}))
        good = _write_channel_json(
            tmp_path / "good.json", random_channel(dim, dim, rank=1, kind="cptp", seed=1)
        )
        for measure in ("dtrD", "hat-tr"):
            assert main(["dist", measure, str(path), good, *FAST]) == 3
            assert "error: not trace-nonincreasing" in capsys.readouterr().err


def test_postselection_invalid_pair_exits_three(tmp_path, capsys):
    proj = {
        "name": "projector",
        "dim_in": 2,
        "dim_out": 2,
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
    }
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(proj))
    good = _write_channel_json(
        tmp_path / "good.json", random_channel(2, 2, rank=2, kind="cptp", seed=1)
    )
    assert main(["dist", "hat-tr", str(path), good, *FAST]) == 3
    assert "error:" in capsys.readouterr().err


def test_capacity_limit_exits_four(tmp_path, capsys):
    big = random_channel(9, 9, rank=1, kind="cptp", seed=1)
    a = _write_channel_json(tmp_path / "a.json", big)
    b = _write_channel_json(tmp_path / "b.json", big)
    assert main(["dist", "dtrD", a, b, *FAST]) == 4
    assert "error:" in capsys.readouterr().err
    assert main(["example", "teleportation", "--dim", "4097", "--out-dir", str(tmp_path)]) == 4
    assert "error:" in capsys.readouterr().err


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    failing = TheoremReport(
        statement="CE1",
        description="forced failure",
        lhs=1.0,
        rhs=0.0,
        slack_tolerance=0.0,
    )
    # lhs <= rhs, but an auxiliary condition broke: its line follows the report's.
    aux_only = TheoremReport(
        statement="CE1",
        description="forced auxiliary failure",
        lhs=0.0,
        rhs=1.0,
        slack_tolerance=0.0,
        aux_violations=("norm window low",),
    )
    monkeypatch.setattr("postdist.cli.run_suite", lambda ids, cfg: {"CE1": [failing, aux_only]})
    assert main(["verify", "--suite", "CE1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "CE1 000 lhs=1.0 rhs=0.0 slack=-1.0 FAIL",
        "CE1 001 lhs=0.0 rhs=1.0 slack=1.0 FAIL",
        "CE1 001   aux: norm window low",
        "CE1: 0/2 passed",
        "FAIL (2 of 2 checks failed)",
    ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_counterexample_suites(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    assert main(["verify", "--suite", "CE1,CE2", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert out_file.read_text() == out
    lines = out.splitlines()
    assert lines[0].startswith("CE1 000 lhs=")
    assert "CE1: 3/3 passed" in lines
    assert "CE2: 3/3 passed" in lines
    assert lines[-1] == "OK"


def test_verify_output_is_deterministic(capsys):
    args = [
        "verify", "--suite", "L1,CE3", "--seed", "11",
        "--trials", "2", "--restarts", "4", "--max-iter", "80",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_verify_output_does_not_depend_on_blas_threads():
    src = str(Path(postdist.__file__).resolve().parents[1])
    command = [
        sys.executable, "-m", "postdist.cli", "verify", "--suite", "L1,CE3,C2", "--seed", "11",
        "--trials", "2", "--restarts", "4", "--max-iter", "80",
    ]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(command, env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0].endswith(b"OK\n")
    assert outputs[0] == outputs[1]


def test_python_m_postdist_runs_the_cli():
    src = str(Path(postdist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = []
    for module in ("postdist", "postdist.cli"):
        command = [sys.executable, "-m", module, "verify", "--suite", "CE3", "--trials", "1"]
        run = subprocess.run(command, env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0].endswith(b"OK\n")
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_figure_one_exact_bytes(capsys):
    assert main(["curve", "--figure", "1", "--epsilon", "0.25", "--grid", "4"]) == 0
    assert capsys.readouterr().out == (
        "p,f\n"
        "0.0,0.0\n"
        "0.25,0.7999999999999999\n"
        "0.5,0.9999999999999999\n"
        "0.75,0.7999999999999999\n"
        "1.0,0.0\n"
    )


def test_curve_figure_two_single_epsilon(capsys):
    assert main(["curve", "--figure", "2", "--epsilon", "0.5"]) == 0
    assert capsys.readouterr().out == (
        "epsilon,before,after\n0.5,1.0,1.3333333333333335\n"
    )


def test_curve_figure_two_sweep(capsys):
    assert main(["curve", "--figure", "2", "--grid", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "epsilon,before,after"
    assert len(lines) == 5  # epsilon = 1/5 ... 4/5
    eps = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps == [0.2, 0.4, 0.6, 0.8]
    for grid in ("0", "1"):
        assert main(["curve", "--figure", "2", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid must be an integer >= 2" in captured.err


def test_curve_out_file(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    assert main(["curve", "--figure", "1", "--epsilon", "0.25", "--grid", "4",
                 "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    text = out_file.read_text()
    assert text.startswith("p,f\n0.0,0.0\n")
    assert "\r" not in text


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def test_example_teleportation_round_trip(tmp_path, capsys):
    _example(tmp_path, "teleportation", "--dim", "3")
    out = capsys.readouterr().out
    assert "wrote" in out
    ch = read_channel(tmp_path / "teleportation_0.json")
    assert (ch.dim_in, ch.dim_out, ch.rank) == (3, 3, 1)
    assert np.allclose(ch.kraus[0], np.eye(3) / 3.0, atol=0)


def test_example_contractivity_triple_writes_three(tmp_path, capsys):
    _example(tmp_path, "contractivity_triple", "--epsilon", "0.5")
    capsys.readouterr()
    for index in range(3):
        assert (tmp_path / f"contractivity_triple_{index}.json").exists()
