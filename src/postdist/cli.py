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
    ParameterError,
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
from .linalg import CapacityError, InvalidInputError
from .suites import (
    RunConfig,
    format_suite_results,
    normalize_suite_ids,
    run_suite,
    suite_passed,
)
from .theorems import contractivity_curve, nonconvexity_curve

_DIST_DEFAULTS = OptimizerConfig()
_SUITE_DEFAULTS = RunConfig()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(token) for token in text.split(",") if token.strip())
    except ValueError as exc:
        raise ParameterError(f"cannot parse dims {text!r}: comma-separated integers") from exc
    if any(d < 2 for d in dims):
        raise ParameterError(f"dims must all be >= 2, got {dims}")
    return dims


def _witness_summary(witness) -> str:
    if isinstance(witness, PureState):
        return f"pure(dim={witness.dim})"
    if isinstance(witness, DensityMatrix):
        return f"density(dim={witness.dim})"
    if isinstance(witness, tuple) and len(witness) == 2:
        return f"pure_pair(dim={witness[0].dim})"
    return type(witness).__name__


def _witness_json(witness) -> dict:
    if isinstance(witness, PureState):
        return {"type": "pure", "vector": matrix_to_pairs(witness.vector[None, :])[0]}
    if isinstance(witness, DensityMatrix):
        return {"type": "density", "matrix": matrix_to_pairs(witness.matrix)}
    if isinstance(witness, tuple) and len(witness) == 2:
        left, right = witness
        return {
            "type": "pure_pair",
            "left": matrix_to_pairs(left.vector[None, :])[0],
            "right": matrix_to_pairs(right.vector[None, :])[0],
        }
    raise InvalidInputError(f"unserializable witness of type {type(witness).__name__}")


def _cmd_dist(args) -> int:
    chan_a = read_channel(args.channel_a)
    chan_b = read_channel(args.channel_b)
    cfg = OptimizerConfig(
        restarts=args.restarts if args.restarts is not None else _DIST_DEFAULTS.restarts,
        max_iterations=args.max_iter if args.max_iter is not None else _DIST_DEFAULTS.max_iterations,
        value_tolerance=args.tol if args.tol is not None else _DIST_DEFAULTS.value_tolerance,
        master_seed=args.seed,
    )
    est = distance(args.measure, chan_a, chan_b, cfg)
    print(
        f"measure={est.measure} value={est.value!r} "
        f"converged={est.converged} restarts={est.restarts_used} "
        f"witness={_witness_summary(est.witness)}"
    )
    if args.out is not None:
        payload = {
            "measure": est.measure,
            "value": est.value,
            "converged": est.converged,
            "restarts_used": est.restarts_used,
            "iterations": est.iterations,
            "evaluations": est.evaluations,
            "witness": _witness_json(est.witness),
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    ids = normalize_suite_ids(args.suite)
    cfg = RunConfig(
        seed=args.seed,
        trials=args.trials,
        dims=_parse_dims(args.dims),
        restarts=args.restarts if args.restarts is not None else _SUITE_DEFAULTS.restarts,
        max_iterations=(
            args.max_iter if args.max_iter is not None else _SUITE_DEFAULTS.max_iterations
        ),
        value_tolerance=args.tol if args.tol is not None else _SUITE_DEFAULTS.value_tolerance,
    )
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    if args.figure == 1:
        if args.epsilon is None:
            raise ParameterError("figure 1 needs --epsilon")
        text = _format_csv("p,f", nonconvexity_curve(args.epsilon, args.grid))
    else:
        if args.epsilon is not None:
            rows = [contractivity_curve(args.epsilon)]
        elif args.grid < 2:
            raise ParameterError(f"grid must be >= 2, got {args.grid}")
        else:
            rows = [contractivity_curve(i / args.grid) for i in range(1, args.grid)]
        text = _format_csv("epsilon,before,after", rows)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    common.add_argument(
        "--restarts", type=int, default=None, help="optimizer restarts (per-command default)"
    )
    common.add_argument(
        "--tol", type=float, default=None, help="optimizer value tolerance (per-command default)"
    )
    common.add_argument(
        "--max-iter", type=int, default=None, help="optimizer iteration cap (per-command default)"
    )
    common.add_argument(
        "--dims", type=str, default="2,3", help="suite dimensions, comma-separated (default 2,3)"
    )
    common.add_argument(
        "--trials",
        type=int,
        default=_SUITE_DEFAULTS.trials,
        help=f"instances per randomized statement (default {_SUITE_DEFAULTS.trials})",
    )

    parser = argparse.ArgumentParser(
        prog="postdist",
        description="Distance measures for postselected quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser(
        "dist", parents=[common], help="estimate a distance between two channel files"
    )
    p_dist.add_argument("measure", choices=MEASURES)
    p_dist.add_argument("channel_a", help="path to the first channel file")
    p_dist.add_argument("channel_b", help="path to the second channel file")
    p_dist.add_argument("--out", default=None, help="also write the result as JSON")
    p_dist.set_defaults(func=_cmd_dist)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the statement verification suites"
    )
    p_verify.add_argument(
        "--suite",
        default="all",
        help="'all' or comma-separated statement ids (e.g. T1,CE2)",
    )
    p_verify.add_argument("--out", default=None, help="also write the report text to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_example = sub.add_parser(
        "example", parents=[common], help="write gallery channels as channel files"
    )
    p_example.add_argument("name", choices=GALLERY_NAMES)
    p_example.add_argument("--epsilon", type=float, default=None)
    p_example.add_argument("--dim", type=int, default=None)
    p_example.add_argument("--matrix", default=None, help="JSON matrix file of [re, im] pairs")
    p_example.add_argument("--out-dir", default=".", help="output directory (default .)")
    p_example.set_defaults(func=_cmd_example)

    p_curve = sub.add_parser(
        "curve", parents=[common], help="emit counterexample curves as CSV"
    )
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
    except (InvalidInputError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
