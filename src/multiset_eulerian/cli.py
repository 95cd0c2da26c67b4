"""Command line interface.

Subcommands: ``table`` renders integer rows, ``qtable`` renders rows of
q-polynomial coefficients, ``verify`` streams identity reports as JSON
lines, and ``classify`` classifies a single lattice point.  Exit codes:
0 success, 1 unexpected identity failure, 2 usage error, 3 resource
truncation, 4 a job crashed or its worker died (``verify`` ends its
stream with an ``error`` line naming the exception, identity and shape).

Every input is served or rejected with exit code 2, never with a
traceback.  Usage errors include a shape that ``Shape.parse`` rejects,
an ``--output`` that cannot be opened for writing, and a ``verify``
selection that would check nothing, such as an empty ``--identity``.
A ``--time-limit`` of ``inf``, or too long for any wait to express, is
served as an untimed run.

Each command, row kind and option is declared once: a subparser names
its command function with ``set_defaults(run=...)``, the row kinds are
the keys of ``_ROWS`` and ``_FAMILIES``, and every command writes
through ``_sink``.  Job selection rules live in ``verify.suite_jobs``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

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
    c_polynomials_closed,
    eulerian_row_closed,
    lah_row,
    stirling2_row_closed,
)
from .verify import SuiteRun, json_line, suite_jobs

# table kind -> closed integer row
_ROWS = {
    "eulerian": eulerian_row_closed,
    "stirling2": stirling2_row_closed,
    "lah": lah_row,
}
# qtable kind -> q-polynomial row
_FAMILIES = {
    "A": a_polynomials,
    "B": b_polynomials,
    "C": c_polynomials_closed,
}


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


def _positive_int(raw: str, source: str) -> int:
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise UsageError(f"{source} must be a positive integer, got {raw!r}")


@contextmanager
def _sink(path: "str | None") -> Iterator[TextIO]:
    """The command's output: the file at `path`, else standard output.  A
    file that cannot be opened for writing is a usage error."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --output {path!r}: {exc.strerror}") from None
    with fh:
        yield fh


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiset-eulerian",
        description="Exact multiset Eulerian and ordered Stirling computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to this file, not to stdout")
    row = argparse.ArgumentParser(add_help=False, parents=[output])
    row.add_argument("--shape", required=True)
    row.add_argument("--format", choices=["json", "csv"], default="json")

    table = sub.add_parser("table", parents=[row], help="integer row for one shape")
    table.add_argument("--kind", required=True, choices=_ROWS)
    table.set_defaults(run=_cmd_table)

    qtable = sub.add_parser(
        "qtable", parents=[row], help="q-polynomial row for one shape"
    )
    qtable.add_argument("--kind", required=True, choices=_FAMILIES)
    qtable.set_defaults(run=_cmd_qtable)

    verify = sub.add_parser(
        "verify", parents=[output], help="run identity checks as JSON lines"
    )
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
    verify.add_argument("--workers", default="1")
    verify.add_argument(
        "--time-limit",
        type=float,
        help="wall-clock budget in seconds; exceeding it truncates the run",
    )
    verify.set_defaults(run=_cmd_verify)

    classify = sub.add_parser(
        "classify", parents=[output], help="classify one lattice point"
    )
    classify.add_argument("--shape", required=True)
    classify.add_argument("--n", type=int, required=True)
    classify.add_argument(
        "--point", required=True, help='grouped coordinates, e.g. "2,1;1"'
    )
    classify.set_defaults(run=_cmd_classify)

    return parser


def _write_rows(args: argparse.Namespace, shape: Shape, rows: list[dict]) -> None:
    """Write a table or qtable row: one JSON document, or one CSV line per
    entry with list values joined by spaces."""
    with _sink(args.output) as out:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["shape", *rows[0]])
            for r in rows:
                cells = (" ".join(c) if isinstance(c, list) else c for c in r.values())
                writer.writerow([str(shape), *cells])
        else:
            doc = {"shape": list(shape.parts), "kind": args.kind, "rows": rows}
            out.write(json.dumps(doc, indent=2) + "\n")


def _cmd_table(args: argparse.Namespace) -> int:
    shape = _parse_shape(args.shape)
    row = _ROWS[args.kind](shape)
    rows = [
        {"index": i, "value": str(v)} for i, v in enumerate(row.values, row.start)
    ]
    _write_rows(args, shape, rows)
    return 0


def _cmd_qtable(args: argparse.Namespace) -> int:
    shape = _parse_shape(args.shape)
    row = _FAMILIES[args.kind](shape)
    rows = [
        {"index": i, "coefficients": poly.to_coeff_strings(), "at_q1": str(poly(1))}
        for i, poly in enumerate(row.values, row.start)
    ]
    _write_rows(args, shape, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    shapes = identities = None
    if args.shape is not None:
        shapes = [_parse_shape(args.shape)]
    elif args.dmax is None:
        raise UsageError("need --dmax or --shape")
    if args.identity is not None:
        identities = [tok.strip() for tok in args.identity.split(",") if tok.strip()]
    workers = _positive_int(args.workers, "--workers")
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

    with _sink(args.output) as out:
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
                error = {
                    "error": type(exc).__name__,
                    "identity": identity.value,
                    "shape": list(shape.parts),
                }
                out.write(json_line(error) + "\n")
                return 4
            if report is None:
                break
            out.write(report.to_json_line() + "\n")
            completed += 1
            if report.expected and not report.passed:
                unexpected = True
        if run.truncated:
            marker = {"truncated": True, "completed": completed, "total": len(jobs)}
            out.write(json_line(marker) + "\n")
            return 3
        return 1 if unexpected else 0


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
    with _sink(args.output) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
