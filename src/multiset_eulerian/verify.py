"""Identity checks, decomposition oracles, and the verification suite.

Every check computes both sides of an identity exactly, as integers or
integer q-polynomials, for each dilation level n in 0..n_max, and
records the values verbatim.  A failing identity therefore yields a
concrete counterexample rather than a boolean.  Two registered
identities are known not to hold in general (stirling2_q and lah_q):
they are marked as not expected to pass, and the command line treats
their failures as informative output instead of an error.

An identity is declared once, as its `IdentityId` member: its name, its
two flags and its checker, which says what to compute.  `_CHECKERS` is
built from the members.  The six expansion identities share the form
lhs(n) = sum over k of row[k] * basis_k(n), so their checkers name only the
lhs, the row and the basis.  Every checker runs through one n-loop.

The two decomposition oracles build one fiber table per job: the words
or chains are enumerated once and grouped into classes whose members
share their closed count and closed q-weight.  Each job also keeps one
running table of lattice-point fibers: a point is classified at the first
level that contains it, so level n adds only the points whose largest
coordinate is n, and a level's table is the running table.  One pass
over the classes checks that it is the table the closed forms predict.

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
    (see `_fiber_level`), not only the recorded totals.
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


def _expansion(lhs, row, basis) -> Checker:
    """Checker for lhs(shape, n) = sum over k = 1..d of
    row(shape)[k - 1] * basis(d, n, k), the row computed once per shape."""

    def prepare(shape: Shape) -> Level:
        d = shape.size
        values = row(shape)

        def level(n: int) -> CheckRecord:
            left = lhs(shape, n)
            right = sum(values[k - 1] * basis(d, n, k) for k in range(1, d + 1))
            return CheckRecord(n, left, right, left == right)

        return level

    return _checker(prepare)


def _prepare_chain_q(shape: Shape) -> Level:
    # A chain's weight is a function of its block sizes alone, so the
    # per-chain sum is regrouped exactly: one weight per block-size class,
    # taken from its first chain, times the number of chains in the class.
    # Every chain is still enumerated; stirling2_q reads the same table.
    classes = chain_classes(shape)

    def level(n: int) -> CheckRecord:
        lhs = f1(shape, n)
        rhs = QPolynomial()
        for _, rep, count in classes:
            rhs = rhs + chain_weight_sum(rep, n) * count
        return CheckRecord(n, lhs, rhs, lhs == rhs)

    return level


def _fiber_level(shape: Shape, kind: str, classes: Callable) -> Level:
    """Level function of a decomposition oracle.

    The job keeps one running fiber table and point total.  Level n adds
    the points `classify_new_points` finds, those first contained in
    level n, so the table then holds every point of level n, each
    classified once, at the first level that contains it.  `classes(n)`
    yields each class of words or chains with the closed count and
    q-weight that all its members share.  Each class's q-weight must sum
    to its count, each member of a class with a nonzero weight must have
    exactly that weight as its fiber, and the table must hold no other.
    """
    fibers: Fibers = {}
    total = 0

    def level(n: int) -> CheckRecord:
        nonlocal total
        total += classify_new_points(kind, shape, n, fibers)
        expected_total = point_count(shape, n)
        ok = total == expected_total
        size = 0  # members with a nonempty fiber
        for members, count, weight in classes(n):
            if sum(weight.coeffs) != count:
                ok = False
            # tallies hold only positive counts and members are distinct
            # keys, so with the size check below the table is the predicted one
            closed = {e: c for e, c in enumerate(weight.coeffs) if c}
            if closed:
                size += len(members)
                for key in members:
                    if fibers.get(key) != closed:
                        ok = False
        if size != len(fibers):
            ok = False
        return CheckRecord(n, expected_total, total, ok)

    return level


def _prepare_decomp_first(shape: Shape) -> Level:
    """Fiber table of a first-kind job: the words, enumerated once and
    grouped by (descent count, major index), on which `region_point_count`
    and `region_gf` depend."""
    words: dict[tuple[int, int], list] = {}
    for word in iter_permutations(shape):
        ds = descent_set(word)
        words.setdefault((len(ds), sum(ds)), []).append(word)

    def classes(n: int):
        for members in words.values():
            rep = members[0]
            yield members, region_point_count(rep, n), region_gf(rep, n)

    return _fiber_level(shape, "first", classes)


def _prepare_decomp_second(shape: Shape) -> Level:
    """Fiber table of a second-kind job: the chains, grouped by block
    sizes, on which `chain_weight_sum` depends."""
    # by_k[k] lists the classes of k-block chains, enumerated when a
    # level first needs them
    by_k: list[list[list]] = [[]]

    def classes(n: int):
        # A chain with k > n + 1 blocks has an empty fiber: C(n+1, k) = 0
        # points and weight zero.  Those chains are not visited; a point
        # classified into one is a fiber the closed forms do not predict,
        # so the table is larger than predicted and the record fails.
        for k in range(1, min(shape.size, n + 1) + 1):
            if k == len(by_k):
                groups: dict[tuple[int, ...], list] = {}
                for chain in iter_chains(shape, k):
                    sizes = chain_block_sizes(chain)
                    groups.setdefault(sizes, []).append(chain)
                by_k.append(list(groups.values()))
            for members in by_k[k]:
                weight = chain_weight_sum(members[0], n)
                yield members, chain_region_count(k, n), weight

    return _fiber_level(shape, "second", classes)


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
        lambda s: eulerian_row_enum(s).values,
        lambda d, n, k: binomial(n + d + 1 - k, d),
    )
    CARLITZ_Q = "carlitz_q", True, True, _expansion(
        lambda s, n: f1(s, n),
        lambda s: a_polynomials(s).values,
        lambda d, n, k: q_binomial(n + k, d),
    )
    STIRLING2 = "stirling2", False, True, _expansion(
        lambda s, n: point_count(s, n),
        lambda s: stirling2_row_enum(s).values,
        lambda d, n, k: binomial(n + 1, k),
    )
    STIRLING2_Q = "stirling2_q", True, False, _expansion(
        lambda s, n: f1(s, n),
        lambda s: b_polynomials(s).values,
        lambda d, n, k: q_binomial(n + 1, k),
    )
    LAH = "lah", False, True, _expansion(
        lambda s, n: multinomial(s.parts) * binomial(n + s.size, s.size),
        lambda s: lah_row(s).values,
        lambda d, n, k: binomial(n + 1, k),
    )
    LAH_Q = "lah_q", True, False, _expansion(
        lambda s, n: f2(s, n),
        lambda s: c_polynomials(s).values,
        lambda d, n, k: q_binomial(n + 1, k),
    )
    CHAIN_Q_CORRECTED = "chain_q_corrected", True, True, _checker(_prepare_chain_q)
    DECOMP_FIRST = "decomp_first", False, True, _checker(_prepare_decomp_first)
    DECOMP_SECOND = "decomp_second", False, True, _checker(_prepare_decomp_second)

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
            exc.__notes__ = [traceback.format_exc()]  # pickling keeps a note
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                stand_in = JobError(type(exc).__name__, str(exc))
                stand_in.__notes__ = exc.__notes__
                exc = stand_in
            conn.send(exc)


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
        handed = min(self.workers, len(self.jobs))  # jobs handed out so far
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
