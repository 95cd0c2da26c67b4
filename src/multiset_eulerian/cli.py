"""Command line interface.

Subcommands: ``table`` renders integer rows, ``qtable`` renders rows of
q-polynomial coefficients, ``verify`` streams identity reports as JSON
lines, and ``classify`` classifies a single lattice point.  Exit codes:
0 success, 1 unexpected identity failure, 2 usage error, 3 resource
truncation, 4 a job crashed (``verify`` ends its stream with an
``error`` line naming the exception type, the identity and the shape).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence, TextIO

from .combinatorics import (
    Shape,
    chain_block_sizes,
    descent_set,
    format_chain,
    format_word,
    major_index,
)
from .lattice import classify_first, classify_second, validate_point
from .numbers import (
    a_polynomials,
    b_polynomials,
    c_polynomials,
    eulerian_row_closed,
    lah_row,
    stirling2_row_closed,
)
from .verify import IdentityId, SuiteRun, suite_jobs

WORKERS_ENV = "MULTISET_EULERIAN_WORKERS"


class UsageError(Exception):
    pass


def _parse_shape(text: str) -> Shape:
    try:
        shape = Shape.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if shape.letters < text.count(",") + 1:
        print(
            f"warning: dropping zero parts from shape {text!r}", file=sys.stderr
        )
    return shape


def _parse_point(text: str, shape: Shape, n: int) -> tuple[tuple[int, ...], ...]:
    try:
        point = tuple(
            tuple(int(tok) for tok in group.split(",") if tok != "")
            for group in text.split(";")
        )
    except ValueError:
        raise UsageError(f"malformed point {text!r}") from None
    try:
        validate_point(point, shape, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return point


def _default_workers() -> int:
    """Worker count from the environment, 1 when unset; anything but a
    positive integer is a usage error."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise UsageError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiset-eulerian",
        description="Exact multiset Eulerian and ordered Stirling computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="integer row for one shape")
    table.add_argument("--shape", required=True)
    table.add_argument(
        "--kind", required=True, choices=["eulerian", "stirling2", "lah"]
    )
    _output_args(table)

    qtable = sub.add_parser("qtable", help="q-polynomial row for one shape")
    qtable.add_argument("--shape", required=True)
    qtable.add_argument("--kind", required=True, choices=["A", "B", "C"])
    _output_args(qtable)

    verify = sub.add_parser("verify", help="run identity checks as JSON lines")
    verify.add_argument("--dmax", type=int)
    verify.add_argument("--lmax", type=int)
    verify.add_argument("--nmax", type=int, default=8)
    verify.add_argument(
        "--q", action="store_true", help="include the q-polynomial identities"
    )
    verify.add_argument(
        "--identity",
        help="comma-separated identity names (default: all registered)",
    )
    verify.add_argument("--shape", help="restrict the run to one shape")
    verify.add_argument("--workers", type=int)
    verify.add_argument(
        "--time-limit",
        type=float,
        help="wall-clock budget in seconds; exceeding it truncates the run",
    )
    verify.add_argument("--output")

    classify = sub.add_parser("classify", help="classify one lattice point")
    classify.add_argument("--shape", required=True)
    classify.add_argument("--n", type=int, required=True)
    classify.add_argument(
        "--point", required=True, help='grouped coordinates, e.g. "2,1;1"'
    )
    classify.add_argument("--output")

    return parser


def _output_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--format", choices=["json", "csv"], default="json")
    cmd.add_argument("--output")


def _write(text: str, path: "str | None") -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_table(args: argparse.Namespace) -> int:
    shape = _parse_shape(args.shape)
    try:
        if args.kind == "eulerian":
            row = eulerian_row_closed(shape)
            start = 0
        elif args.kind == "stirling2":
            row = stirling2_row_closed(shape)
            start = 1
        else:
            row = lah_row(shape)
            start = 1
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [(start + i, v) for i, v in enumerate(row.values)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "index", "value"])
        for index, value in rows:
            writer.writerow([str(shape), index, value])
        _write(buf.getvalue(), args.output)
    else:
        doc = {
            "shape": list(shape.parts),
            "kind": args.kind,
            "rows": [{"index": i, "value": str(v)} for i, v in rows],
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _cmd_qtable(args: argparse.Namespace) -> int:
    shape = _parse_shape(args.shape)
    try:
        if args.kind == "A":
            family = a_polynomials(shape)
        elif args.kind == "B":
            family = b_polynomials(shape)
        else:
            family = c_polynomials(shape, method="closed")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [
        (i, poly.to_coeff_strings(), poly(1))
        for i, poly in enumerate(family.values, start=1)
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "index", "coefficients", "at_q1"])
        for index, coeffs, at_one in rows:
            writer.writerow([str(shape), index, " ".join(coeffs), at_one])
        _write(buf.getvalue(), args.output)
    else:
        doc = {
            "shape": list(shape.parts),
            "kind": args.kind,
            "rows": [
                {"index": i, "coefficients": coeffs, "at_q1": str(at_one)}
                for i, coeffs, at_one in rows
            ],
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    identities = None
    if args.identity:
        names = [tok.strip() for tok in args.identity.split(",") if tok.strip()]
        try:
            identities = [IdentityId(name) for name in names]
        except ValueError:
            known = ", ".join(i.value for i in IdentityId)
            raise UsageError(
                f"unknown identity in {args.identity!r}; known: {known}"
            ) from None
    shapes = None
    if args.shape:
        shape = _parse_shape(args.shape)
        if shape.size == 0:
            raise UsageError("verify requires a shape with d >= 1")
        shapes = [shape]
    if shapes is None and args.dmax is None:
        raise UsageError("need --dmax or --shape")
    workers = _default_workers() if args.workers is None else args.workers
    if workers < 1:
        raise UsageError("--workers must be at least 1")
    try:
        jobs = suite_jobs(
            d_max=args.dmax,
            n_max=args.nmax,
            l_max=args.lmax,
            include_q=args.q,
            identities=identities,
            shapes=shapes,
        )
        run = SuiteRun(jobs, workers=workers, time_limit=args.time_limit)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    def emit(out: TextIO) -> int:
        unexpected = False
        completed = 0
        reports = iter(run)
        while True:
            # only the run's own exceptions are caught; a failed write,
            # such as a broken pipe, still propagates
            try:
                report = next(reports, None)
            except Exception as exc:
                # imported here, so a run that does not crash does not pay for it
                import traceback

                traceback.print_exc()
                # reports arrive in job order, so the crashed job is the next
                identity, shape, _ = jobs[completed]
                out.write(
                    json.dumps(
                        {
                            "error": type(exc).__name__,
                            "identity": identity.value,
                            "shape": list(shape.parts),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                return 4
            if report is None:
                break
            out.write(report.to_json_line() + "\n")
            completed += 1
            if report.expected and not report.passed:
                unexpected = True
        if run.truncated:
            out.write(
                json.dumps(
                    {
                        "truncated": True,
                        "completed": completed,
                        "total": len(jobs),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            return 3
        return 1 if unexpected else 0

    if args.output is None:
        return emit(sys.stdout)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        return emit(fh)


def _cmd_classify(args: argparse.Namespace) -> int:
    shape = _parse_shape(args.shape)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    point = _parse_point(args.point, shape, args.n)
    word = classify_first(point)
    chain = classify_second(point)
    doc = {
        "sigma": format_word(word),
        "descents": list(descent_set(word)),
        "maj": major_index(word),
        "chain": format_chain(chain),
        "block_sizes": list(chain_block_sizes(chain)),
        "k": len(chain) - 1,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


_COMMANDS = {
    "table": _cmd_table,
    "qtable": _cmd_qtable,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
