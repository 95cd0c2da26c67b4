"""Identity checks, decomposition oracles, and the verification suite.

Every check computes both sides of an identity exactly, as integers or
integer q-polynomials, for each dilation level n in 0..n_max, and
records the values verbatim.  A failing identity therefore yields a
concrete counterexample rather than a boolean.  Two registered
identities are known not to hold in general (stirling2_q and lah_q):
they are marked as not expected to pass, and the command line treats
their failures as informative output instead of an error.

The registry table is the one place where an identity is declared: its
`IdentityId` member carries the name and the flags, and its `_CHECKERS`
entry says what to compute.  The six expansion identities share the form
lhs(n) = sum over k of row[k] * basis_k(n), so their entries name only the
lhs, the row and the basis.  Every checker runs through one n-loop.

The two decomposition oracles build one fiber table per job: the words
or chains are enumerated once and grouped into classes whose members
share their closed count and closed q-weight.  Each job also keeps one
running table of lattice-point fibers: a point is classified at the first
level that contains it, so level n adds only the points whose largest
coordinate is n, and a level's table is the running table.  Every level
compares every word's or chain's fiber in it against values computed once
per class.

Suite runs are deterministic: jobs are ordered by (identity, shape) and
reports are yielded in that order, so the report stream is byte-identical
for any worker count.  Only an untimed run with one worker stays
in-process, and it never imports `multiprocessing`.  Every other run starts
its own worker processes and terminates them at the deadline; a worker
that dies mid-job is a crash, never a timeout or a hang.
"""

from __future__ import annotations

import json
import time
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .combinatorics import (
    Shape,
    chain_block_sizes,
    descent_set,
    iter_all_chains,
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


class IdentityId(str, Enum):
    """Registered identities and decomposition oracles, in registry order.

    Each member is declared once with its two flags: `is_q` marks the
    identities that compute q-polynomials rather than integers, and
    `expected` is False where a failure is informative rather than an
    error.  The checker that computes each one is in `_CHECKERS`.  Looking
    up an unknown name raises ValueError listing the known ones.
    """

    is_q: bool
    expected: bool

    def __new__(cls, value: str, is_q: bool, expected: bool) -> "IdentityId":
        member = str.__new__(cls, value)
        member._value_ = value
        member.is_q = is_q
        member.expected = expected
        return member

    WORPITZKY = "worpitzky", False, True
    CARLITZ_Q = "carlitz_q", True, True
    STIRLING2 = "stirling2", False, True
    STIRLING2_Q = "stirling2_q", True, False
    LAH = "lah", False, True
    LAH_Q = "lah_q", True, False
    CHAIN_Q_CORRECTED = "chain_q_corrected", True, True
    DECOMP_FIRST = "decomp_first", False, True
    DECOMP_SECOND = "decomp_second", False, True

    @classmethod
    def _missing_(cls, value: object) -> "IdentityId":
        known = ", ".join(i.value for i in cls)
        raise ValueError(f"unknown identity {value!r}; known: {known}")


@dataclass(frozen=True)
class CheckRecord:
    """Both sides of one comparison at a single dilation level.

    For decomposition oracles `equal` also covers the per-fiber count
    and q-weight comparisons, not only the recorded totals.
    """

    n: int
    lhs: "int | QPolynomial"
    rhs: "int | QPolynomial"
    equal: bool


@dataclass(frozen=True)
class IdentityReport:
    identity: IdentityId
    shape: Shape
    records: tuple[CheckRecord, ...]

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
    # per-chain sum is regrouped exactly: one weight per block-size tuple,
    # taken from a representative chain, times the number of chains with
    # that tuple.  Every chain is still enumerated.
    groups: dict[tuple[int, ...], list] = {}
    for chain in iter_all_chains(shape):
        group = groups.setdefault(chain_block_sizes(chain), [chain, 0])
        group[1] += 1

    def level(n: int) -> CheckRecord:
        lhs = f1(shape, n)
        rhs = QPolynomial()
        for rep, count in groups.values():
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
    q-weight that all its members share; every member's fiber in the
    running table is compared with them, and the level fails if the table
    holds a fiber that no member matched.
    """
    fibers: Fibers = {}
    total = 0

    def level(n: int) -> CheckRecord:
        nonlocal total
        total += classify_new_points(kind, shape, n, fibers)
        expected_total = point_count(shape, n)
        ok = total == expected_total
        matched = 0
        for members, count, weight in classes(n):
            # a fiber's tally holds only positive counts, so it equals the
            # closed q-weight exactly when it equals its nonzero coefficients
            closed = {e: c for e, c in enumerate(weight.coeffs) if c}
            for key in members:
                tally = fibers.get(key)
                if tally is None:
                    tally = {}
                else:
                    matched += 1
                if sum(tally.values()) != count or tally != closed:
                    ok = False
        if matched != len(fibers):
            # a point was classified into a fiber that enumeration never
            # produced at this level
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
        # classified into one is a fiber no member matches, which fails
        # the record.
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
# when the table is built, so a wrapper installed on those globals (as the
# benchmark's tracer installs on f1 and the row functions) sees every call.
_CHECKERS = {
    IdentityId.WORPITZKY: _expansion(
        lambda s, n: point_count(s, n),
        lambda s: eulerian_row_enum(s).values,
        lambda d, n, k: binomial(n + d + 1 - k, d),
    ),
    IdentityId.CARLITZ_Q: _expansion(
        lambda s, n: f1(s, n),
        lambda s: a_polynomials(s).values,
        lambda d, n, k: q_binomial(n + k, d),
    ),
    IdentityId.STIRLING2: _expansion(
        lambda s, n: point_count(s, n),
        lambda s: stirling2_row_enum(s).values,
        lambda d, n, k: binomial(n + 1, k),
    ),
    IdentityId.STIRLING2_Q: _expansion(
        lambda s, n: f1(s, n),
        lambda s: b_polynomials(s).values,
        lambda d, n, k: q_binomial(n + 1, k),
    ),
    IdentityId.LAH: _expansion(
        lambda s, n: multinomial(s.parts) * binomial(n + s.size, s.size),
        lambda s: lah_row(s).values,
        lambda d, n, k: binomial(n + 1, k),
    ),
    IdentityId.LAH_Q: _expansion(
        lambda s, n: f2(s, n),
        lambda s: c_polynomials(s).values,
        lambda d, n, k: q_binomial(n + 1, k),
    ),
    IdentityId.CHAIN_Q_CORRECTED: _checker(_prepare_chain_q),
    IdentityId.DECOMP_FIRST: _checker(_prepare_decomp_first),
    IdentityId.DECOMP_SECOND: _checker(_prepare_decomp_second),
}


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

    Selections that would check nothing or an invalid level (n_max < 0,
    d_max < 1, l_max < 1, no identity, no shape) and unknown identity
    names raise ValueError instead of giving an empty or failing run.
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
        shape_list = list(shapes)
        if not shape_list:
            raise ValueError("no shape selected")
    return [(i, s, n_max) for i in selected for s in shape_list]


def _serve(conn, jobs: Sequence[Job]) -> None:
    """Worker loop: answer each job index with its report or its exception."""
    import traceback  # in the worker only
    while True:
        try:
            conn.send(check_identity(*jobs[conn.recv()]))
        except Exception as exc:
            exc.__notes__ = [traceback.format_exc()]  # pickling keeps a note
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

        started = []  # every worker, joined on every way out
        running = {}  # pipe -> (worker, index of its job)
        results: dict = {}  # index -> report or exception, until yielded
        handed = min(self.workers, len(self.jobs))  # jobs handed out so far
        try:
            for job in range(handed):
                pipe, child = Pipe()
                worker = Process(target=_serve, args=(child, self.jobs), daemon=True)
                worker.start()
                child.close()
                started.append(worker)
                pipe.send(job)
                running[pipe] = worker, job
            for index in range(len(self.jobs)):
                while index not in results:
                    # poll() rejects a wait above 2**31 - 1 ms (24.8 days)
                    timeout = min(2e6, max(0.0, deadline - time.monotonic()))
                    sentinels = [w.sentinel for w, _ in running.values()]
                    ready = wait([*running, *sentinels], timeout)
                    if not ready and time.monotonic() >= deadline:
                        self.truncated = True
                        return
                    for pipe, (worker, job) in list(running.items()):
                        if pipe not in ready and worker.sentinel not in ready:
                            continue
                        del running[pipe]
                        try:
                            results[job] = pipe.recv()
                        except (EOFError, OSError):
                            worker.join()  # its repr then names the exit code
                            results[job] = ChildProcessError(f"{worker!r} died mid-job")
                            continue
                        if handed < len(self.jobs):
                            with suppress(OSError):  # its sentinel tells a death
                                pipe.send(handed)
                            running[pipe] = worker, handed
                            handed += 1
                result = results.pop(index)
                if isinstance(result, Exception):
                    raise result
                yield result
        finally:
            for worker in started:
                worker.terminate()
                worker.join()
