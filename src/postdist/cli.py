# src/postdist/cli.py

"""
Command-line front end.

Commands:
  dist     estimate one distance measure between two channel files
  verify   run the statement verification suites
  example  write gallery channels as channel files
  curve    emit the counterexample curves as CSV

Output is deterministic for identical invocations: floats print in shortest
round-trip form and all randomness is derived from --seed.

Exit codes: 0 success, 1 verification failures, 2 parse/parameter problems,
3 validity violations, 4 capacity limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channels import (
    DensityMatrix,
    PureState,
    ValidityError,
    gallery,
    GALLERY_NAMES,
    matrix_to_pairs,
    pairs_to_matrix,
    read_channel,
    write_channel,
)
from .distances import MEASURES, OptimizerConfig, distance
from .linalg import CapacityError, InvalidInputError, check_integer

# `verify` and `curve` import the verification layer (suites, theorems) when they run,
# so `dist` and `example` never load it.


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(token) for token in text.split(",") if token.strip())
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse dims {text!r}: comma-separated integers") from exc
    for dim in dims:
        check_integer("--dims entry", dim, 2)
    return dims


def _given_flags(args, **extra) -> dict:
    # The optimizer flags given on the command line, and any `extra` ones; the rest
    # keep the command's defaults (OptimizerConfig for dist, RunConfig for verify).
    given = dict(restarts=args.restarts, max_iterations=args.max_iter, value_tolerance=args.tol)
    return {name: value for name, value in {**given, **extra}.items() if value is not None}


def _witness_codec(witness) -> tuple[str, dict]:
    # The stdout summary, such as `pure(dim=2)`, and the --out JSON object of a witness.
    if isinstance(witness, PureState):
        kind, dim, arrays = "pure", witness.dim, {"vector": witness.vector}
    elif isinstance(witness, DensityMatrix):
        kind, dim, arrays = "density", witness.dim, {"matrix": witness.matrix}
    else:
        left, right = witness
        kind, dim, arrays = "pure_pair", left.dim, {"left": left.vector, "right": right.vector}
    payload = {"type": kind, **{key: matrix_to_pairs(a) for key, a in arrays.items()}}
    return f"{kind}(dim={dim})", payload


def _cmd_dist(args) -> int:
    chan_a = read_channel(args.channel_a)
    chan_b = read_channel(args.channel_b)
    cfg = OptimizerConfig(master_seed=args.seed, **_given_flags(args))
    est = distance(args.measure, chan_a, chan_b, cfg)
    summary, witness_json = _witness_codec(est.witness)
    print(
        f"measure={est.measure} value={est.value!r} "
        f"converged={est.converged} restarts={est.restarts_used} witness={summary}"
    )
    if args.out is not None:
        payload = {
            "measure": est.measure,
            "value": est.value,
            "converged": est.converged,
            "restarts_used": est.restarts_used,
            "iterations": est.iterations,
            "evaluations": est.evaluations,
            "agreeing_restarts": est.agreeing_restarts,
            "restart_spread": est.restart_spread,
            "witness": witness_json,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    from .suites import RunConfig, format_suite_results, normalize_suite_ids, run_suite, suite_passed

    ids = normalize_suite_ids(args.suite)
    dims = None if args.dims is None else _parse_dims(args.dims)
    cfg = RunConfig(seed=args.seed, **_given_flags(args, trials=args.trials, dims=dims))
    results = run_suite(ids, cfg)
    text = format_suite_results(results)
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text)
    return 0 if suite_passed(results) else 1


def _cmd_example(args) -> int:
    params = {}
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    if args.dim is not None:
        params["dim"] = args.dim
    if args.matrix is not None:
        try:
            rows = json.loads(Path(args.matrix).read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InvalidInputError(f"cannot parse matrix file {args.matrix}: {exc}") from exc
        params["matrix"] = pairs_to_matrix(rows, context="matrix file")
    channels = gallery(args.name, **params)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, ch in enumerate(channels):
        path = out_dir / f"{args.name}_{index}.json"
        write_channel(ch, path)
        print(f"wrote {path}")
    return 0


def _format_csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _cmd_curve(args) -> int:
    from .theorems import contractivity_curve, nonconvexity_curve

    if args.figure == 1:
        if args.epsilon is None:
            raise InvalidInputError("figure 1 needs --epsilon")
        text = _format_csv("p,f", nonconvexity_curve(args.epsilon, args.grid))
    else:
        if args.epsilon is not None:
            rows = [contractivity_curve(args.epsilon)]
        else:
            check_integer("grid", args.grid, 2)
            rows = [contractivity_curve(i / args.grid) for i in range(1, args.grid)]
        text = _format_csv("epsilon,before,after", rows)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    optimizer = argparse.ArgumentParser(add_help=False)
    optimizer.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    optimizer.add_argument(
        "--restarts", type=int, default=None, help="optimizer restarts (per-command default)"
    )
    optimizer.add_argument(
        "--tol", type=float, default=None, help="optimizer value tolerance (per-command default)"
    )
    optimizer.add_argument(
        "--max-iter", type=int, default=None, help="optimizer iteration cap (per-command default)"
    )
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument(
        "--dims", default=None, help="suite dimensions, comma-separated (default RunConfig.dims)"
    )
    corpus.add_argument(
        "--trials",
        type=int,
        default=None,
        help="instances per randomized statement (default RunConfig.trials)",
    )

    parser = argparse.ArgumentParser(
        prog="postdist",
        description="Distance measures for postselected quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser(
        "dist", parents=[optimizer], help="estimate a distance between two channel files"
    )
    p_dist.add_argument("measure", choices=MEASURES)
    p_dist.add_argument("channel_a", help="path to the first channel file")
    p_dist.add_argument("channel_b", help="path to the second channel file")
    p_dist.add_argument("--out", default=None, help="also write the result as JSON")
    p_dist.set_defaults(func=_cmd_dist)

    p_verify = sub.add_parser(
        "verify", parents=[optimizer, corpus], help="run the statement verification suites"
    )
    p_verify.add_argument(
        "--suite",
        default="all",
        help="'all' or comma-separated statement ids (e.g. T1,CE2)",
    )
    p_verify.add_argument("--out", default=None, help="also write the report text to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_example = sub.add_parser("example", help="write gallery channels as channel files")
    p_example.add_argument("name", choices=GALLERY_NAMES)
    p_example.add_argument("--epsilon", type=float, default=None)
    p_example.add_argument("--dim", type=int, default=None)
    p_example.add_argument("--matrix", default=None, help="JSON matrix file of [re, im] pairs")
    p_example.add_argument("--out-dir", default=".", help="output directory (default .)")
    p_example.set_defaults(func=_cmd_example)

    p_curve = sub.add_parser("curve", help="emit counterexample curves as CSV")
    p_curve.add_argument("--figure", type=int, choices=(1, 2), required=True)
    p_curve.add_argument("--epsilon", type=float, default=None)
    p_curve.add_argument(
        "--grid", type=int, default=200, help="grid resolution (default 200)"
    )
    p_curve.add_argument("--out", default=None, help="write CSV to a file instead of stdout")
    p_curve.set_defaults(func=_cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError, ValidityError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ValidityError) else 4 if isinstance(exc, CapacityError) else 2


if __name__ == "__main__":
    sys.exit(main())
