"""Identity checks, decomposition oracles, and the verification suite.

Every check computes both sides of an identity exactly, as integers or
integer q-polynomials, for each dilation level n in 0..n_max, and
records the values verbatim.  A failing identity therefore yields a
concrete counterexample rather than a boolean.  Two registered
identities are known not to hold in general (stirling2_q and lah_q):
they are marked as not expected to pass, and the command line treats
their failures as informative output instead of an error.

An identity is declared once, as its `IdentityId` member: its name, its
two flags and its checker, in one of two forms.  `_CHECKERS` is built from
the members, and every checker runs through one n-loop.

An expansion, `_expansion`, checks lhs(n) = sum of c * basis_t(n) over
the job's (t, c) pairs: the six row identities pair each entry of their
row with its index, and chain_q_corrected pairs the first chain of each
block-size class with the size of the class.

A decomposition, `_decomposition`, checks a decomposition oracle against
two running tables per job.  Level n groups the words or chains it needs
first into classes whose members share their closed count and q-weight,
and classifies the lattice points whose largest coordinate is n, so each
point is classified once, at the first level that contains it.  One pass
over the classes checks that the fiber table is the one they predict.

The two q-identities of chains (stirling2_q, chain_q_corrected) read one
table of block-size classes per shape, `chain_classes`.  A run clears it
when it starts, so a serial run groups each shape's chains once.  The
integer identity stirling2 counts the chains without grouping them.

Suite runs are deterministic: jobs are ordered by (identity, shape) and
reports are yielded in that order, so the report stream is byte-identical
for any worker count.  Only an untimed run with one worker stays
in-process, and it never imports `multiprocessing`.  Every other run starts
its own worker processes, sends each one job tuple at a time over its
pipe, and terminates them at the deadline; a worker that dies mid-job is
a crash, never a timeout or a hang.  A job's exception that cannot travel
comes back as a `JobError` stand-in, raised at that job's place in order.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from contextlib import suppress
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .combinatorics import (
    Shape,
    chain_block_sizes,
    chain_classes,
    descent_set,
    iter_chains,
    iter_permutations,
    iter_shapes,
)
from .lattice import (
    Fibers,
    Rows,
    chain_region_count,
    chain_weight_sum,
    classify_new_points,
    f1,
    f2,
    point_count,
    region_gf,
    region_point_count,
)
from .numbers import (
    a_polynomials,
    b_polynomials,
    c_polynomials,
    eulerian_row_enum,
    lah_row,
    stirling2_row_enum,
)
from .qpoly import QPolynomial, binomial, multinomial, q_binomial

__all__ = [
    "CheckRecord",
    "IdentityId",
    "IdentityReport",
    "JobError",
    "SuiteRun",
    "check_identity",
    "suite_jobs",
]


class CheckRecord(namedtuple("CheckRecord", "n lhs rhs equal")):
    """Both sides of one comparison at a single dilation level: the level
    n, lhs and rhs as ints or `QPolynomial`s, and whether they are equal.

    For decomposition oracles `equal` also covers the whole fiber table
    (see `_decomposition`), not only the recorded totals.
    """

    __slots__ = ()


class IdentityReport(namedtuple("IdentityReport", "identity shape records")):
    """One job's result: its `IdentityId`, its `Shape` and a tuple of
    `CheckRecord`s, one per level.  `to_json_line` is a class attribute,
    so a wrapper can be installed on the class."""

    __slots__ = ()

    @property
    def expected(self) -> bool:
        return self.identity.expected

    @property
    def passed(self) -> bool:
        return all(r.equal for r in self.records)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def counterexample(self) -> CheckRecord | None:
        for r in self.records:
            if not r.equal:
                return r
        return None

    def to_json_dict(self) -> dict:
        ce = self.counterexample
        return {
            "identity": self.identity.value,
            "shape": list(self.shape.parts),
            "expected": self.expected,
            "results": [
                {
                    "n": r.n,
                    "lhs": _encode(r.lhs),
                    "rhs": _encode(r.rhs),
                    "equal": r.equal,
                }
                for r in self.records
            ],
            "status": self.status,
            "counterexample": None
            if ce is None
            else {"n": ce.n, "lhs": _encode(ce.lhs), "rhs": _encode(ce.rhs)},
        }

    def to_json_line(self) -> str:
        return json_line(self.to_json_dict())


def json_line(doc: dict) -> str:
    """`doc` in the report stream's compact JSON-lines form, without the
    newline."""
    return json.dumps(doc, separators=(",", ":"))


def _encode(value: "int | QPolynomial") -> "str | list[str]":
    if isinstance(value, QPolynomial):
        return value.to_coeff_strings()
    return str(value)


Level = Callable[[int], CheckRecord]
Checker = Callable[[Shape, int], "list[CheckRecord]"]


def _checker(prepare: Callable[[Shape], Level]) -> Checker:
    """The one n-loop: `prepare(shape)` runs once per job and returns the
    function that builds the record of each level n = 0..n_max.

    The checker returns a list, not a generator, so a job's work is done
    inside the checker call.
    """

    def check(shape: Shape, n_max: int) -> list[CheckRecord]:
        level = prepare(shape)
        return [level(n) for n in range(n_max + 1)]

    return check


def _expansion(lhs, terms, basis) -> Checker:
    """Checker for lhs(shape, n) = sum of c * basis(d, n, t) over the
    (t, c) pairs of terms(shape), which are built once per job."""

    def prepare(shape: Shape) -> Level:
        d = shape.size
        pairs = tuple(terms(shape))

        def level(n: int) -> CheckRecord:
            left = lhs(shape, n)
            right = sum(c * basis(d, n, t) for t, c in pairs)
            return CheckRecord(n, left, right, left == right)

        return level

    return _checker(prepare)


def _decomposition(kind: str, new_objects, key, closed) -> Checker:
    """Checker of a decomposition oracle with running fiber and class tables.

    Level n adds the points `classify_new_points` first finds in level n,
    and groups the words or chains `new_objects(shape, n)` yields by `key`
    into classes whose members share `closed(member, n)`, their closed
    count and q-weight.  Each class's q-weight must sum to its count, each
    member of a class with a nonzero weight must have exactly that weight
    as its fiber, and the fiber table must hold no other.  The job's row
    memo holds buckets of its fiber table, so the two live and die
    together: a parent pattern's row, built at one level, serves every
    later level of the job.
    """

    def prepare(shape: Shape) -> Level:
        fibers: Fibers = {}
        rows: Rows = {}  # parent pattern -> buckets of `fibers`
        classes: dict = {}  # key -> members
        total = 0

        def level(n: int) -> CheckRecord:
            nonlocal total
            for member in new_objects(shape, n):
                classes.setdefault(key(member), []).append(member)
            total += classify_new_points(kind, shape, n, fibers, rows)
            expected_total = point_count(shape, n)
            ok = total == expected_total
            size = 0  # members with a nonempty fiber
            for members in classes.values():
                count, weight = closed(members[0], n)
                if sum(weight.coeffs) != count:
                    ok = False
                # tallies hold only positive counts and members are distinct
                # fiber keys, so with the size check below the table is the
                # predicted one
                fiber = {e: c for e, c in enumerate(weight.coeffs) if c}
                if fiber:
                    size += len(members)
                    for member in members:
                        if fibers.get(member) != fiber:
                            ok = False
            if size != len(fibers):
                ok = False
            return CheckRecord(n, expected_total, total, ok)

        return level

    return _checker(prepare)


# The lambdas look names up in this module's globals when they run, not
# when the members are declared, so a wrapper installed on those globals (as
# the benchmark's tracer installs on f1 and the row functions) sees every call.
class IdentityId(str, Enum):
    """Registered identities and decomposition oracles, in registry order.

    Each member is declared once, with its two flags and its checker:
    `is_q` marks the identities that compute q-polynomials rather than
    integers, `expected` is False where a failure is informative rather
    than an error, and `checker(shape, n_max)` lists the records of levels
    0..n_max.  An unknown name raises ValueError that lists the known ones.
    """

    is_q: bool
    expected: bool
    checker: Checker

    def __new__(
        cls, value: str, is_q: bool, expected: bool, checker: Checker
    ) -> "IdentityId":
        member = str.__new__(cls, value)
        member._value_ = value
        member.is_q = is_q
        member.expected = expected
        member.checker = checker
        return member

    WORPITZKY = "worpitzky", False, True, _expansion(
        lambda s, n: point_count(s, n),
        lambda s: enumerate(eulerian_row_enum(s).values, 1),
        lambda d, n, k: binomial(n + d + 1 - k, d),
    )
    CARLITZ_Q = "carlitz_q", True, True, _expansion(
        lambda s, n: f1(s, n),
        lambda s: enumerate(a_polynomials(s).values, 1),
        lambda d, n, k: q_binomial(n + k, d),
    )
    STIRLING2 = "stirling2", False, True, _expansion(
        lambda s, n: point_count(s, n),
        lambda s: enumerate(stirling2_row_enum(s).values, 1),
        lambda d, n, k: binomial(n + 1, k),
    )
    STIRLING2_Q = "stirling2_q", True, False, _expansion(
        lambda s, n: f1(s, n),
        lambda s: enumerate(b_polynomials(s).values, 1),
        lambda d, n, k: q_binomial(n + 1, k),
    )
    LAH = "lah", False, True, _expansion(
        lambda s, n: multinomial(s.parts) * binomial(n + s.size, s.size),
        lambda s: enumerate(lah_row(s).values, 1),
        lambda d, n, k: binomial(n + 1, k),
    )
    LAH_Q = "lah_q", True, False, _expansion(
        lambda s, n: f2(s, n),
        lambda s: enumerate(c_polynomials(s).values, 1),
        lambda d, n, k: q_binomial(n + 1, k),
    )
    # A chain's weight is a function of its block sizes alone, so the
    # per-chain sum is regrouped exactly: one weight per block-size class,
    # taken from its first chain, times the number of chains in the class.
    # Every chain is still enumerated; stirling2_q reads the same table.
    CHAIN_Q_CORRECTED = "chain_q_corrected", True, True, _expansion(
        lambda s, n: f1(s, n),
        lambda s: ((rep, count) for _, rep, count in chain_classes(s)),
        lambda d, n, rep: chain_weight_sum(rep, n),
    )
    # The words, enumerated at level 0, grouped by (descent count, major
    # index), on which region_point_count and region_gf depend.
    DECOMP_FIRST = "decomp_first", False, True, _decomposition(
        "first",
        lambda s, n: iter_permutations(s) if n == 0 else (),
        lambda w: (len(ds := descent_set(w)), sum(ds)),
        lambda w, n: (region_point_count(w, n), region_gf(w, n)),
    )
    # Level n enumerates the chains of n + 1 blocks, grouped by block sizes,
    # on which chain_weight_sum depends.  A chain of k > n + 1 blocks has
    # C(n+1, k) = 0 points and weight zero, so a point classified into one is
    # a fiber the closed forms do not predict, and the record fails.
    DECOMP_SECOND = "decomp_second", False, True, _decomposition(
        "second",
        lambda s, n: iter_chains(s, n + 1),
        lambda c: chain_block_sizes(c),
        lambda c, n: (chain_region_count(len(c) - 1, n), chain_weight_sum(c, n)),
    )

    @classmethod
    def _missing_(cls, value: object) -> "IdentityId":
        known = ", ".join(i.value for i in cls)
        raise ValueError(f"unknown identity {value!r}; known: {known}")


# check_identity dispatches here, so a test or a tracer can patch one entry
_CHECKERS = {identity: identity.checker for identity in IdentityId}


def check_identity(
    identity: "IdentityId | str", shape: Shape, n_max: int
) -> IdentityReport:
    """Compute both sides for n = 0..n_max and report the exact results."""
    identity = IdentityId(identity)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    records = _CHECKERS[identity](shape, n_max)
    return IdentityReport(identity, shape, tuple(records))


Job = tuple[IdentityId, Shape, int]


def suite_jobs(
    d_max: int | None = None,
    n_max: int = 8,
    l_max: int | None = None,
    include_q: bool = False,
    identities: "Sequence[IdentityId | str] | None" = None,
    shapes: "Iterable[Shape] | None" = None,
) -> list[Job]:
    """Ordered job list for a suite run: identities in registry order,
    shapes ordered by size, then part count, then lexicographically.

    An explicit `shapes` list is filtered by d_max and l_max like the
    enumerated one.  Selections that would check nothing or an invalid
    level (n_max < 0, d_max < 1, l_max < 1, no identity, no shape left)
    and unknown identity names raise ValueError instead of giving an
    empty or failing run.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be at least 1")
    if l_max is not None and l_max < 1:
        raise ValueError("l_max must be at least 1")
    if identities is None:
        selected = [i for i in IdentityId if include_q or not i.is_q]
    else:
        wanted = {IdentityId(i) for i in identities}
        if not wanted:
            raise ValueError("no identity selected")
        selected = [i for i in IdentityId if i in wanted]
    if shapes is None:
        if d_max is None:
            raise ValueError("need either shapes or d_max")
        shape_list = list(iter_shapes(d_max, l_max))
    else:
        shape_list = [
            s
            for s in shapes
            if (d_max is None or s.size <= d_max)
            and (l_max is None or s.letters <= l_max)
        ]
    if not shape_list:
        raise ValueError("no shape selected")
    return [(i, s, n_max) for i in selected for s in shape_list]


class JobError(Exception):
    """Stand-in for a job's exception that cannot travel from its worker to
    the run: one that cannot be pickled, or that pickles but cannot be
    rebuilt.  `type_name` and the message are the original's."""

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(type_name, message)
        self.type_name = type_name

    def __str__(self) -> str:
        return f"{self.type_name}: {self.args[1]}"


def _serve(conn) -> None:
    """Worker loop: answer each job received with its report or exception.

    An exception is sent only if it survives a pickle round trip, and
    otherwise as a `JobError`, so the run can always read its job's result.
    """
    import pickle  # in the worker only
    import traceback

    while True:
        try:
            conn.send(check_identity(*conn.recv()))
        except Exception as exc:
            # the checker's own notes stay, and pickling keeps every note
            # (add_note is new in Python 3.11)
            exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                stand_in = JobError(type(exc).__name__, str(exc))
                stand_in.__notes__ = exc.__notes__
                exc = stand_in
            conn.send(exc)


_MAX_WORKERS = 64  # a run starts at most this many worker processes


class SuiteRun:
    """Iterate suite reports in job order, optionally on worker processes.

    After iteration finishes, `truncated` records whether a wall-clock
    budget cut the run short.  A run other than an untimed one-worker run
    hands each job to whichever of its own workers is free; a job whose
    worker dies raises `ChildProcessError`, and every way out reaps them.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        workers: int = 1,
        time_limit: "float | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        # `not >=` also rejects NaN, which compares false with everything
        if time_limit is not None and not time_limit >= 0:
            raise ValueError("time_limit must be a nonnegative number")
        self.jobs = list(jobs)
        self.workers = workers
        self.time_limit = time_limit
        self.truncated = False

    def __iter__(self) -> Iterator[IdentityReport]:
        start = time.monotonic()
        # a run starts with no chain classes: a serial run groups each
        # shape's chains once, in the first job that reads them, and each
        # worker the shapes it meets; none reads a table from an earlier run
        chain_classes.cache_clear()
        if not self.jobs or self.workers == 1 and self.time_limit is None:
            for job in self.jobs:
                yield check_identity(*job)
            return
        deadline = start + float("inf" if self.time_limit is None else self.time_limit)
        if time.monotonic() >= deadline:
            # a spent budget truncates before multiprocessing is even imported
            self.truncated = True
            return
        # imported here, so an in-process run does not pay for loading it
        from multiprocessing import Pipe, Process
        from multiprocessing.connection import wait

        started = []  # every worker and its pipe, reaped on every way out
        running = {}  # pipe -> (worker, index of its job)
        results: dict = {}  # index -> report or exception, until yielded
        # jobs handed out so far; the report stream is the same for every
        # worker count, so the ceiling changes only the processes started
        handed = min(self.workers, _MAX_WORKERS, len(self.jobs))
        try:
            for job in range(handed):
                pipe, child = Pipe()
                worker = Process(target=_serve, args=(child,), daemon=True)
                worker.start()
                child.close()
                started.append((worker, pipe))
                pipe.send(self.jobs[job])
                running[pipe] = worker, job
            for index in range(len(self.jobs)):
                while index not in results:
                    # poll() rejects a wait above 2**31 - 1 ms (24.8 days)
                    timeout = min(2e6, max(0.0, deadline - time.monotonic()))
                    # a worker holds the only other end of its pipe, so a
                    # dead worker's pipe is ready and reads EOF
                    ready = wait(list(running), timeout)
                    if not ready and time.monotonic() >= deadline:
                        self.truncated = True
                        return
                    for pipe in ready:
                        worker, job = running.pop(pipe)
                        try:
                            results[job] = pipe.recv()
                        except (EOFError, OSError):
                            worker.join()  # its repr then names the exit code
                            results[job] = ChildProcessError(f"{worker!r} died mid-job")
                            continue
                        if handed < len(self.jobs):
                            with suppress(OSError):  # its pipe then reads EOF
                                pipe.send(self.jobs[handed])
                            running[pipe] = worker, handed
                            handed += 1
                result = results.pop(index)
                if isinstance(result, Exception):
                    raise result
                yield result
        finally:
            # each pipe outlives its worker, so an idle worker never reads EOF
            for worker, pipe in started:
                worker.terminate()
                worker.join()
                pipe.close()
