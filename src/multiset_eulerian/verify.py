"""Identity checks, decomposition oracles, and the verification suite.

Every check computes both sides of an identity exactly, as integers or
integer q-polynomials, for each dilation level n in 0..n_max, and
records the values verbatim.  A failing identity therefore yields a
concrete counterexample rather than a boolean.  Two registered
identities are known not to hold in general (stirling2_q and lah_q):
they are marked as not expected to pass, and a suite run treats their
failures as informative output instead of an error.

Suite runs are deterministic: jobs are ordered by (identity, shape) and
worker pools preserve that order, so the rendered report stream is
byte-identical for any worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .combinatorics import (
    Shape,
    chain_block_sizes,
    iter_all_chains,
    iter_chains,
    iter_permutations,
    iter_shapes,
)
from .lattice import (
    chain_region_count,
    chain_weight_sum,
    classify_first,
    classify_second,
    coordinate_sum,
    f1,
    f2,
    iter_points,
    point_count,
    region_gf,
    region_point_count,
)
from .numbers import (
    a_polynomials,
    b_polynomials,
    c_polynomials,
    eulerian_row_enum,
    lah_ordered,
    stirling2_row_enum,
)
from .qpoly import QPolynomial, binomial, multinomial, q_binomial

Value = "int | QPolynomial"


class IdentityId(str, Enum):
    """Registered identities and decomposition oracles."""

    WORPITZKY = "worpitzky"
    CARLITZ_Q = "carlitz_q"
    STIRLING2 = "stirling2"
    STIRLING2_Q = "stirling2_q"
    LAH = "lah"
    LAH_Q = "lah_q"
    CHAIN_Q_CORRECTED = "chain_q_corrected"
    DECOMP_FIRST = "decomp_first"
    DECOMP_SECOND = "decomp_second"


# identities whose failure is informative rather than an error
EXPECTED_FAIL = frozenset({IdentityId.STIRLING2_Q, IdentityId.LAH_Q})

# identities that compute q-polynomials rather than integers
Q_IDENTITIES = frozenset(
    {
        IdentityId.CARLITZ_Q,
        IdentityId.STIRLING2_Q,
        IdentityId.LAH_Q,
        IdentityId.CHAIN_Q_CORRECTED,
    }
)


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
    expected: bool
    records: tuple[CheckRecord, ...]

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
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _encode(value: "int | QPolynomial") -> "str | list[str]":
    if isinstance(value, QPolynomial):
        return value.to_coeff_strings()
    return str(value)


def _records_worpitzky(shape: Shape, n_max: int) -> list[CheckRecord]:
    d = shape.size
    row = eulerian_row_enum(shape).values
    out = []
    for n in range(n_max + 1):
        lhs = point_count(shape, n)
        rhs = sum(row[i] * binomial(n - i + d, d) for i in range(d))
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _records_carlitz_q(shape: Shape, n_max: int) -> list[CheckRecord]:
    d = shape.size
    fam = a_polynomials(shape).values
    out = []
    for n in range(n_max + 1):
        lhs = f1(shape, n)
        rhs: QPolynomial = QPolynomial()
        for i in range(1, d + 1):
            rhs = rhs + fam[i - 1] * q_binomial(n + i, d)
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _records_stirling2(shape: Shape, n_max: int) -> list[CheckRecord]:
    d = shape.size
    row = stirling2_row_enum(shape).values
    out = []
    for n in range(n_max + 1):
        lhs = point_count(shape, n)
        rhs = sum(row[k - 1] * binomial(n + 1, k) for k in range(1, d + 1))
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _records_stirling2_q(shape: Shape, n_max: int) -> list[CheckRecord]:
    d = shape.size
    fam = b_polynomials(shape).values
    out = []
    for n in range(n_max + 1):
        lhs = f1(shape, n)
        rhs = QPolynomial()
        for k in range(1, d + 1):
            rhs = rhs + fam[k - 1] * q_binomial(n + 1, k)
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _records_lah(shape: Shape, n_max: int) -> list[CheckRecord]:
    d = shape.size
    mult = multinomial(shape.parts)
    out = []
    for n in range(n_max + 1):
        lhs = mult * binomial(n + d, d)
        rhs = sum(
            lah_ordered(shape, k) * binomial(n + 1, k) for k in range(1, d + 1)
        )
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _records_lah_q(shape: Shape, n_max: int) -> list[CheckRecord]:
    d = shape.size
    fam = c_polynomials(shape, method="enumeration").values
    out = []
    for n in range(n_max + 1):
        lhs = f2(shape, n)
        rhs = QPolynomial()
        for k in range(1, d + 1):
            rhs = rhs + fam[k - 1] * q_binomial(n + 1, k)
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _records_chain_q(shape: Shape, n_max: int) -> list[CheckRecord]:
    # A chain's weight is a function of its block sizes alone, so the
    # per-chain sum is regrouped exactly: one weight per block-size tuple,
    # taken from a representative chain, times the number of chains with
    # that tuple.  Every chain is still enumerated.
    groups: dict[tuple[int, ...], list] = {}
    for chain in iter_all_chains(shape):
        group = groups.setdefault(chain_block_sizes(chain), [chain, 0])
        group[1] += 1
    out = []
    for n in range(n_max + 1):
        lhs = f1(shape, n)
        rhs = QPolynomial()
        for rep, count in groups.values():
            rhs = rhs + chain_weight_sum(rep, n) * count
        out.append(CheckRecord(n, lhs, rhs, lhs == rhs))
    return out


def _decomposition_record(kind: str, shape: Shape, n: int) -> CheckRecord:
    """Classify every lattice point and compare each fiber with its
    closed count and closed q-weight."""
    weights: dict = {}
    total = 0
    second = kind == "second"
    for point in iter_points(shape, n):
        key = classify_second(point) if second else classify_first(point)
        bucket = weights.setdefault(key, {})
        s = coordinate_sum(point)
        bucket[s] = bucket.get(s, 0) + 1
        total += 1
    expected_total = point_count(shape, n)
    ok = total == expected_total
    if second:
        # A chain with k > n + 1 blocks has an empty fiber: C(n+1, k) = 0
        # points and weight zero.  Those chains are not visited; a point
        # classified into one stays in `weights` and fails the record below.
        for k in range(1, min(shape.size, n + 1) + 1):
            for chain in iter_chains(shape, k):
                bucket = weights.pop(chain, {})
                if sum(bucket.values()) != chain_region_count(k, n):
                    ok = False
                got = QPolynomial.from_exponent_counts(bucket)
                if got != chain_weight_sum(chain, n):
                    ok = False
    else:
        for word in iter_permutations(shape):
            bucket = weights.pop(word, {})
            if sum(bucket.values()) != region_point_count(word, n):
                ok = False
            got = QPolynomial.from_exponent_counts(bucket)
            if got != region_gf(word, n):
                ok = False
    if weights:
        # a point was classified into a fiber that enumeration never produced
        ok = False
    return CheckRecord(n, expected_total, total, ok)


def check_decomposition(kind: str, shape: Shape, n: int) -> IdentityReport:
    """Run one decomposition oracle at a single dilation level."""
    if kind not in ("first", "second"):
        raise ValueError(f"unknown decomposition kind {kind!r}")
    identity = (
        IdentityId.DECOMP_FIRST if kind == "first" else IdentityId.DECOMP_SECOND
    )
    return IdentityReport(
        identity, shape, True, (_decomposition_record(kind, shape, n),)
    )


def _records_decomp_first(shape: Shape, n_max: int) -> list[CheckRecord]:
    return [_decomposition_record("first", shape, n) for n in range(n_max + 1)]


def _records_decomp_second(shape: Shape, n_max: int) -> list[CheckRecord]:
    return [_decomposition_record("second", shape, n) for n in range(n_max + 1)]


_CHECKERS = {
    IdentityId.WORPITZKY: _records_worpitzky,
    IdentityId.CARLITZ_Q: _records_carlitz_q,
    IdentityId.STIRLING2: _records_stirling2,
    IdentityId.STIRLING2_Q: _records_stirling2_q,
    IdentityId.LAH: _records_lah,
    IdentityId.LAH_Q: _records_lah_q,
    IdentityId.CHAIN_Q_CORRECTED: _records_chain_q,
    IdentityId.DECOMP_FIRST: _records_decomp_first,
    IdentityId.DECOMP_SECOND: _records_decomp_second,
}


def check_identity(
    identity: "IdentityId | str", shape: Shape, n_max: int
) -> IdentityReport:
    """Compute both sides for n = 0..n_max and report the exact results."""
    identity = IdentityId(identity)
    if shape.size == 0:
        raise ValueError("identity checks require a shape with d >= 1")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    records = _CHECKERS[identity](shape, n_max)
    return IdentityReport(
        identity, shape, identity not in EXPECTED_FAIL, tuple(records)
    )


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

    Ranges that would select no work or an invalid level (n_max < 0,
    d_max < 1, l_max < 1) raise ValueError instead of giving an empty or
    failing run.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be at least 1")
    if l_max is not None and l_max < 1:
        raise ValueError("l_max must be at least 1")
    if identities is None:
        selected = [
            i
            for i in IdentityId
            if include_q or i not in Q_IDENTITIES
        ]
    else:
        wanted = {IdentityId(i) for i in identities}
        selected = [i for i in IdentityId if i in wanted]
    if shapes is None:
        if d_max is None:
            raise ValueError("need either shapes or d_max")
        shape_list = list(iter_shapes(d_max, l_max))
    else:
        shape_list = list(shapes)
    return [(i, s, n_max) for i in selected for s in shape_list]


def _run_job(job: Job) -> IdentityReport:
    identity, shape, n_max = job
    return check_identity(identity, shape, n_max)


class SuiteRun:
    """Iterate suite reports in job order, optionally on a process pool.

    After iteration finishes, `truncated` records whether a wall-clock
    budget cut the run short.
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

    def _remaining(self, start: float) -> "float | None":
        """Seconds left in the budget (at least 0), or None without one."""
        if self.time_limit is None:
            return None
        return max(0.0, self.time_limit - (time.monotonic() - start))

    def __iter__(self) -> Iterator[IdentityReport]:
        start = time.monotonic()
        if self.workers == 1:
            for job in self.jobs:
                if self._remaining(start) == 0:
                    self.truncated = True
                    return
                yield _run_job(job)
            return
        # Leaving the block terminates the workers, so jobs still running
        # when the budget runs out are killed rather than waited for.
        with multiprocessing.Pool(self.workers) as pool:
            results = pool.imap(_run_job, self.jobs)
            for _ in self.jobs:
                try:
                    report = results.next(self._remaining(start))
                except multiprocessing.TimeoutError:
                    self.truncated = True
                    return
                yield report


@dataclass
class SuiteResult:
    reports: list[IdentityReport] = field(default_factory=list)
    truncated: bool = False

    @property
    def unexpected_failures(self) -> list[IdentityReport]:
        return [r for r in self.reports if r.expected and not r.passed]

    @property
    def ok(self) -> bool:
        return not self.truncated and not self.unexpected_failures


def run_suite(
    d_max: int | None = None,
    n_max: int = 8,
    l_max: int | None = None,
    include_q: bool = False,
    identities: "Sequence[IdentityId | str] | None" = None,
    shapes: "Iterable[Shape] | None" = None,
    workers: int = 1,
    time_limit: "float | None" = None,
) -> SuiteResult:
    """Run every selected check and collect the reports in job order."""
    jobs = suite_jobs(d_max, n_max, l_max, include_q, identities, shapes)
    run = SuiteRun(jobs, workers=workers, time_limit=time_limit)
    reports = list(run)
    return SuiteResult(reports, run.truncated)
