"""Integer rows and q-polynomial families attached to a multiset shape.

Each quantity is computable by at least two independent routes: direct
statistic enumeration, a closed formula, and (for the integer rows) a
triangular solve against dilation point counts.  The verification layer
exercises exactly this redundancy, so nothing here is allowed to share
code between routes.

Row conventions: Eulerian rows are indexed by descent count i = 0..d-1
and always have length d, keeping structural zero tails so that row
shapes are stable.  Partition rows are indexed by block count k = 1..d.
The q-polynomial families are indexed 1..d as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .combinatorics import (
    Shape,
    chain_major_index,
    descent_set,
    iter_chains,
    iter_permutations,
    word_prefix_contents,
)
from .lattice import point_count
from .qpoly import QPolynomial, binomial, multinomial, q_binomial


@dataclass(frozen=True)
class EulerianRow:
    """Counts of permutations by descent number, indices i = 0..d-1."""

    shape: Shape
    values: tuple[int, ...]

    def value(self, i: int) -> int:
        return self.values[i]


@dataclass(frozen=True)
class StirlingRow:
    """Ordered partition counts by block number, indices k = 1..d."""

    shape: Shape
    kind: str  # "second-ordered" or "third-ordered"
    values: tuple[int, ...]

    def value(self, k: int) -> int:
        return self.values[k - 1]


@dataclass(frozen=True)
class QPolyFamily:
    """A row of q-polynomials indexed 1..d."""

    shape: Shape
    family: str  # "A", "B" or "C"
    values: tuple[QPolynomial, ...]

    def value(self, i: int) -> QPolynomial:
        return self.values[i - 1]


def _require_nonempty(shape: Shape) -> None:
    if shape.size == 0:
        raise ValueError("operation requires a shape with d >= 1")


def eulerian_row_enum(shape: Shape) -> EulerianRow:
    """Count permutations by number of descents, by full enumeration."""
    _require_nonempty(shape)
    values = [0] * shape.size
    for word in iter_permutations(shape):
        values[len(descent_set(word))] += 1
    return EulerianRow(shape, tuple(values))


def eulerian_closed(shape: Shape, i: int) -> int:
    """Alternating-sum closed form for the descent-count row entry."""
    _require_nonempty(shape)
    d = shape.size
    if not 0 <= i <= d - 1:
        raise ValueError(f"descent index {i} outside 0..{d - 1}")
    return sum(
        (-1) ** (i - h) * binomial(d + 1, i - h) * point_count(shape, h)
        for h in range(i + 1)
    )


def eulerian_row_closed(shape: Shape) -> EulerianRow:
    _require_nonempty(shape)
    return EulerianRow(
        shape, tuple(eulerian_closed(shape, i) for i in range(shape.size))
    )


def stirling2_row_enum(shape: Shape) -> StirlingRow:
    """Count ordered multiset partitions per block number by enumerating
    the corresponding chains."""
    _require_nonempty(shape)
    values = [
        sum(1 for _ in iter_chains(shape, k)) for k in range(1, shape.size + 1)
    ]
    return StirlingRow(shape, "second-ordered", tuple(values))


def stirling2_closed(shape: Shape, k: int, variant: str = "corrected") -> int:
    """Closed form for the k-block ordered partition count.

    The two variants differ in one binomial index: "corrected" uses
    C(k, h+1), which is what the triangular system actually inverts to
    and what enumeration confirms; "as-printed" uses C(k, h) and does
    not agree.  Both are exposed so the disagreement stays reproducible
    (for shape (1,1), k = 2 they give 2 and 7 respectively).
    """
    _require_nonempty(shape)
    d = shape.size
    if not 1 <= k <= d:
        raise ValueError(f"block count {k} outside 1..{d}")
    if variant == "corrected":
        offset = 1
    elif variant == "as-printed":
        offset = 0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return sum(
        (-1) ** (k - 1 - h) * binomial(k, h + offset) * point_count(shape, h)
        for h in range(k)
    )


def stirling2_row_closed(shape: Shape, variant: str = "corrected") -> StirlingRow:
    _require_nonempty(shape)
    return StirlingRow(
        shape,
        "second-ordered",
        tuple(
            stirling2_closed(shape, k, variant) for k in range(1, shape.size + 1)
        ),
    )


def lah_ordered(shape: Shape, k: int) -> int:
    """Number of (permutation, k-segment split) pairs: the ordered
    analog of the third-kind numbers."""
    _require_nonempty(shape)
    d = shape.size
    if not 1 <= k <= d:
        raise ValueError(f"block count {k} outside 1..{d}")
    return multinomial(shape.parts) * binomial(d - 1, k - 1)


def lah_row(shape: Shape) -> StirlingRow:
    _require_nonempty(shape)
    return StirlingRow(
        shape,
        "third-ordered",
        tuple(lah_ordered(shape, k) for k in range(1, shape.size + 1)),
    )


def a_polynomials(shape: Shape) -> QPolyFamily:
    """Major-index generating polynomials grouped by descent count.

    Index i = 1..d collects the permutations with exactly d - i
    descents, so evaluating at q = 1 recovers the descent-count row read
    backwards.
    """
    _require_nonempty(shape)
    d = shape.size
    tallies: list[dict[int, int]] = [{} for _ in range(d)]
    for word in iter_permutations(shape):
        ds = descent_set(word)
        bucket = tallies[d - len(ds) - 1]
        maj = sum(ds)
        bucket[maj] = bucket.get(maj, 0) + 1
    return QPolyFamily(
        shape, "A", tuple(QPolynomial.from_exponent_counts(t) for t in tallies)
    )


def b_polynomials(shape: Shape) -> QPolyFamily:
    """Major-index generating polynomials of chains, by dimension k.

    The major index of a chain is the sum of its internal vertex
    coordinate totals; at q = 1 each polynomial reduces to the ordered
    partition count.
    """
    _require_nonempty(shape)
    d = shape.size
    values = []
    for k in range(1, d + 1):
        tally: dict[int, int] = {}
        for chain in iter_chains(shape, k):
            maj = chain_major_index(chain)
            tally[maj] = tally.get(maj, 0) + 1
        values.append(QPolynomial.from_exponent_counts(tally))
    return QPolyFamily(shape, "B", tuple(values))


def c_polynomials(shape: Shape, method: str = "enumeration") -> QPolyFamily:
    """Joint major-index polynomials of (permutation, cut-chain) pairs.

    The enumeration route walks every permutation and every way of
    cutting it into k contiguous nonempty segments.  The cut chain's
    internal vertices are the word's prefix contents at the cuts, so its
    major index is read by summing those vertices' coordinate totals,
    computed once per word.  The closed route is the
    multinomial times a shifted Gaussian binomial.  The two agree
    because the major index of a cut chain equals the sum of its cut
    positions.
    """
    _require_nonempty(shape)
    d = shape.size
    if method == "closed":
        mult = multinomial(shape.parts)
        return QPolyFamily(
            shape,
            "C",
            tuple(
                q_binomial(d - 1, k - 1).shift(k * (k - 1) // 2) * mult
                for k in range(1, d + 1)
            ),
        )
    if method != "enumeration":
        raise ValueError(f"unknown method {method!r}")
    tallies: list[dict[int, int]] = [{} for _ in range(d)]
    # cut sets for k = 1..d, as indices 0..d-2 of the internal prefixes
    cut_sets = [
        list(itertools.combinations(range(d - 1), k - 1)) for k in range(1, d + 1)
    ]
    for word in iter_permutations(shape):
        totals = [sum(v) for v in word_prefix_contents(word)]
        for bucket, cuts_k in zip(tallies, cut_sets):
            for cuts in cuts_k:
                maj = 0
                for c in cuts:
                    maj += totals[c]
                bucket[maj] = bucket.get(maj, 0) + 1
    return QPolyFamily(
        shape, "C", tuple(QPolynomial.from_exponent_counts(t) for t in tallies)
    )


def solve_from_identity(kind: str, shape: Shape) -> EulerianRow | StirlingRow:
    """Recover a row by forward substitution on its defining identity.

    The right-hand sides are the dilation point counts at n = 0..d-1.
    Both systems are unit lower triangular, so the solve is exact
    integer forward substitution with no division.
    """
    _require_nonempty(shape)
    d = shape.size
    rhs = [point_count(shape, n) for n in range(d)]
    if kind == "eulerian":
        row: list[int] = []
        for n in range(d):
            # diagonal coefficient C(d, d) = 1
            row.append(
                rhs[n] - sum(row[i] * binomial(n - i + d, d) for i in range(n))
            )
        return EulerianRow(shape, tuple(row))
    if kind == "stirling2":
        row = []
        for n in range(d):
            # diagonal coefficient C(n+1, n+1) = 1
            row.append(
                rhs[n]
                - sum(row[k - 1] * binomial(n + 1, k) for k in range(1, n + 1))
            )
        return StirlingRow(shape, "second-ordered", tuple(row))
    raise ValueError(f"unknown kind {kind!r}")
