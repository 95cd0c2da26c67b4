"""Command line interface.

Subcommands: ``table`` renders integer rows, ``qtable`` renders rows of
q-polynomial coefficients, ``verify`` streams identity reports as JSON
lines, and ``classify`` classifies a single lattice point.  Exit codes:
0 success, 1 unexpected identity failure, 2 usage error or an output that
cannot be written, 3 resource truncation, 4 a job crashed or its worker
died (``verify`` ends its stream with an ``error`` line naming the
exception, identity and shape).

Every input is served or rejected with exit code 2, never with a
traceback, and ``main`` reports each usage error, argparse's own too
(``_Parser``), as one ``error:`` line.  Usage errors include an option
not spelled in full, a shape that ``Shape.parse`` rejects, an integer
token anywhere that is not ASCII decimal (``parse_int``), a
``--time-limit`` that is not ASCII or has a ``_``, and a ``verify``
selection that would check nothing, such as an empty ``--identity`` or
an empty name in it.  A ``--time-limit`` of ``inf``, or too long for any
wait to express, is served as an untimed run.  An ``--output`` that
cannot be opened, or an output on a full device, ends the command with
one ``error:`` line, and a closed pipe ends it quietly with exit code 0.
When standard output is what failed, ``main`` points it at the null
device, so the interpreter's own flush at exit cannot fail again.  While
a command runs, ``main`` lifts CPython's limit on the digits of an
int-decimal conversion, so every value is read and written exactly.

``entry``, behind both the ``multiset-eulerian`` script and ``python -m
multiset_eulerian``, calls ``gc.freeze()`` once ``main`` has returned and
then exits with its code.  The interpreter's last garbage collections then
skip the objects the process imported or built, which was most of a short
command's shutdown; atexit handlers, the final flush of standard output,
stderr and the exit code are as before.  ``main`` itself, which tests and
tracers call in a process that goes on, never freezes.

Each command, row kind and option is declared once: a subparser names
its command function with ``set_defaults(run=...)``, ``table`` and
``qtable`` are one row command, ``_cmd_row``, given their row kinds
(``_ROWS``, ``_FAMILIES``) with ``set_defaults(rows=...)``, and every
command writes through ``_sink``.  Job selection rules live in
``verify.suite_jobs``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import closing, contextmanager
from typing import Iterator, NoReturn, Sequence, TextIO

from .combinatorics import (
    Shape,
    chain_block_sizes,
    descent_set,
    format_chain,
    format_word,
    major_index,
    parse_int,
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
from .verify import JobError, SuiteRun, json_line, suite_jobs

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


class _Parser(argparse.ArgumentParser):
    """Raises each usage error, its subparsers' too, as a one-line `UsageError`."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise UsageError(message.replace("\n", r"\n"))


def _parse_shape(text: str) -> Shape:
    try:
        return Shape.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_point(text: str, shape: Shape, n: int) -> tuple[tuple[int, ...], ...]:
    try:
        point = tuple(
            tuple(parse_int(tok) for tok in group.split(","))
            for group in text.split(";")
        )
        validate_point(point, shape, n)
    except ValueError as exc:
        raise UsageError(f"invalid point {text!r}: {exc}") from None
    return point


def _integer(raw: str) -> int:
    """`parse_int` for an option, whose error states the token rule."""
    try:
        return parse_int(raw)
    except ValueError:
        rule = "must be an ASCII decimal integer"
        raise argparse.ArgumentTypeError(f"{rule}, got {raw!r}") from None


def _positive_int(raw: str) -> int:
    try:
        workers = _integer(raw)
        if workers >= 1:
            return workers
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")


def _seconds(raw: str) -> float:
    """`float` of an ASCII token without "_", a digit separator to `float`."""
    try:
        if raw.isascii() and "_" not in raw:
            return float(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be ASCII seconds with no '_', got {raw!r}")


@contextmanager
def _sink(path: "str | None") -> Iterator[TextIO]:
    """The command's output: the file at `path`, else standard output,
    flushed before the command returns so that a failed write raises
    inside `main`."""
    if path is None:
        yield sys.stdout
        sys.stdout.flush()
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    table.set_defaults(run=_cmd_row, rows=_ROWS)

    qtable = sub.add_parser(
        "qtable", parents=[row], help="q-polynomial row for one shape"
    )
    qtable.add_argument("--kind", required=True, choices=_FAMILIES)
    qtable.set_defaults(run=_cmd_row, rows=_FAMILIES)

    verify = sub.add_parser(
        "verify", parents=[output], help="run identity checks as JSON lines"
    )
    verify.add_argument("--dmax", type=_integer)
    verify.add_argument("--lmax", type=_integer)
    verify.add_argument("--nmax", type=_integer, default=8)
    verify.add_argument(
        "--q", action="store_true", help="include the q-polynomial identities"
    )
    verify.add_argument(
        "--identity",
        help="comma-separated identity names "
        "(default: all registered ones with --q, else the non-q ones)",
    )
    verify.add_argument("--shape", help="restrict the run to one shape")
    verify.add_argument("--workers", type=_positive_int, default=1)
    verify.add_argument(
        "--time-limit",
        type=_seconds,
        help="wall-clock budget in seconds; exceeding it truncates the run",
    )
    verify.set_defaults(run=_cmd_verify)

    classify = sub.add_parser(
        "classify", parents=[output], help="classify one lattice point"
    )
    classify.add_argument("--shape", required=True)
    classify.add_argument("--n", type=_integer, required=True)
    classify.add_argument(
        "--point", required=True, help='grouped coordinates, e.g. "2,1;1"'
    )
    classify.set_defaults(run=_cmd_classify)

    return parser


def _cmd_row(args: argparse.Namespace) -> int:
    """Write a table or qtable row: one JSON document, or one CSV line per
    entry with list values joined by spaces.  An integer entry carries its
    value, a q-polynomial entry its coefficients and its value at q = 1;
    the value type stands for the command, as `table` rows hold ints and
    `qtable` rows q-polynomials."""
    shape = _parse_shape(args.shape)
    row = args.rows[args.kind](shape)
    entries = [
        {"index": i, "value": str(v)}
        if isinstance(v, int)
        else {"index": i, "coefficients": v.to_coeff_strings(), "at_q1": str(v(1))}
        for i, v in enumerate(row.values, row.start)
    ]
    with _sink(args.output) as out:
        if args.format == "csv":
            # imported here, so a JSON row or a run does not pay for loading it
            import csv

            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["shape", *entries[0]])
            for entry in entries:
                cells = (
                    " ".join(c) if isinstance(c, list) else c for c in entry.values()
                )
                writer.writerow([str(shape), *cells])
        else:
            doc = {"shape": list(shape.parts), "kind": args.kind, "rows": entries}
            out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    shapes = identities = None
    if args.shape is not None:
        shapes = [_parse_shape(args.shape)]
    elif args.dmax is None:
        raise UsageError("need --dmax or --shape")
    if args.identity is not None:
        identities = [tok.strip() for tok in args.identity.split(",")]
    try:
        jobs = suite_jobs(
            d_max=args.dmax,
            n_max=args.nmax,
            l_max=args.lmax,
            include_q=args.q,
            identities=identities,
            shapes=shapes,
        )
        run = SuiteRun(jobs, workers=args.workers, time_limit=args.time_limit)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    # closing the reports reaps the workers, also when a write fails
    with _sink(args.output) as out, closing(iter(run)) as reports:
        unexpected = False
        completed = 0
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
                    # a stand-in for an exception that could not travel
                    # from its worker names the original type
                    "error": exc.type_name
                    if isinstance(exc, JobError)
                    else type(exc).__name__,
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


@contextmanager
def _exact_decimals() -> Iterator[None]:
    """Lift CPython's limit on the digits of an int converted to or from
    decimal (3.10.7 on) while the block runs, and restore it after, so
    every value is written exactly and a caller of `main` sees no change."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        with _exact_decimals():
            args = build_parser().parse_args(argv)
            code = args.run(args)
    except SystemExit as exc:  # --help, which prints usage and exits 0
        return exc.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _release_stdout()
        return 0
    except OSError as exc:
        _release_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    # only a command that ran warns, so a usage error stays one line
    shape = args.shape
    if shape and Shape.parse(shape).letters <= shape.count(","):
        print(f"warning: dropping zero parts from shape {shape!r}", file=sys.stderr)
    return code


def _release_stdout() -> None:
    """Point standard output at the null device if it still cannot be
    flushed: a failed flush keeps its bytes buffered, and the flush at
    interpreter exit would fail on them again, report it and exit 120."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def entry() -> None:
    code = main()
    # the process is ending: its shutdown collections need not walk what
    # it imported or built, and atexit handlers and the flush still run
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
