"""Integer rows and q-polynomial families attached to a multiset shape.

Each quantity is computable by at least two independent routes, and each
route is one function named `<row>_<route>`: enumeration of the
statistic (`eulerian_row_enum`, `stirling2_row_enum`, `a_polynomials`,
`b_polynomials`, `c_polynomials`), a closed formula
(`eulerian_row_closed`, `stirling2_row_closed`, `lah_row`,
`c_polynomials_closed`), and a triangular solve against dilation point
counts (`eulerian_row_solve`, `stirling2_row_solve`).  The verification
layer exercises exactly this redundancy, so no two routes of a row share
code.  A row's closed and solve routes invert one unit lower triangular
system, by its explicit inverse (`_inclusion_exclusion`) and by forward
substitution (`_forward_solve`), each given the row's binomial entries;
`stirling2_row_as_printed` keeps the paper's misprinted Stirling index.
`b_polynomials` reads the table of block-size classes (`chain_classes`)
that `verify`'s chain_q_corrected check also reads, so a run fills it
once per shape; `stirling2_row_enum` counts the chains without grouping
them, and the closed and solve routes share no code with either.

Both q-enumerations of chains regroup their objects exactly.  A chain's
major index is the sum of its internal vertex totals, so it depends only
on those totals: `b_polynomials` tallies it once per block-size class, and
`c_polynomials` once per class of words with the same prefix totals.
Each still enumerates every chain or word, and each class adds its count.
`a_polynomials` and `eulerian_row_enum` cannot regroup this way: their
statistics, descents and major index, are read from each word itself.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from typing import Callable

from .combinatorics import (
    Shape,
    chain_classes,
    chain_major_index,
    descent_set,
    iter_chains,
    iter_permutations,
    word_prefix_contents,
)
from .lattice import point_count
from .qpoly import QPolynomial, binomial, multinomial, q_binomial

__all__ = [
    "Row",
    "a_polynomials",
    "b_polynomials",
    "c_polynomials",
    "c_polynomials_closed",
    "eulerian_row_closed",
    "eulerian_row_enum",
    "eulerian_row_solve",
    "lah_row",
    "stirling2_row_as_printed",
    "stirling2_row_closed",
    "stirling2_row_enum",
    "stirling2_row_solve",
]


class Row(namedtuple("Row", "shape start values")):
    """One row of a shape's numbers, with the index of its first entry.

    Eulerian rows are indexed by descent count i = 0..d-1 and always have
    length d, keeping structural zero tails so that row shapes are stable.
    Ordered Stirling and Lah rows are indexed by block count k = 1..d, and
    the q-polynomial families by 1..d as well.  `values` is a tuple of ints
    or of `QPolynomial`s.  A row is a named tuple, so it also compares as
    the plain tuple `(shape, start, values)`.
    """

    __slots__ = ()

    def value(self, i: int) -> "int | QPolynomial":
        if not 0 <= i - self.start < len(self.values):
            last = self.start + len(self.values) - 1
            raise IndexError(f"index {i} outside {self.start}..{last}")
        return self.values[i - self.start]


def eulerian_row_enum(shape: Shape) -> Row:
    """Count permutations by number of descents, by full enumeration."""
    values = [0] * shape.size
    for word in iter_permutations(shape):
        values[len(descent_set(word))] += 1
    return Row(shape, 0, tuple(values))


def _inclusion_exclusion(
    shape: Shape, coefficient: Callable[[int, int], int]
) -> tuple[int, ...]:
    """Entry i = 0..d-1 is the sum over h <= i of (-1)**(i - h) *
    coefficient(i, h) * point_count(shape, h): the explicit inverse of a unit
    lower triangular system of the kind `_forward_solve` solves."""
    counts = [point_count(shape, h) for h in range(shape.size)]
    return tuple(
        sum((-1) ** (i - h) * coefficient(i, h) * counts[h] for h in range(i + 1))
        for i in range(shape.size)
    )


def eulerian_row_closed(shape: Shape) -> Row:
    """Alternating-sum closed form of the descent-count row."""
    values = _inclusion_exclusion(shape, lambda i, h: binomial(shape.size + 1, i - h))
    return Row(shape, 0, values)


def _forward_solve(shape: Shape, basis: Callable[[int, int], int]) -> tuple[int, ...]:
    """Solve point_count(shape, n) = sum over i <= n of row[i] * basis(n, i)
    for n = 0..d-1 by forward substitution.

    Each basis has basis(n, n) = 1, so the system is unit lower triangular
    and the solve is exact integer arithmetic with no division.
    """
    row: list[int] = []
    for n in range(shape.size):
        row.append(
            point_count(shape, n) - sum(row[i] * basis(n, i) for i in range(n))
        )
    return tuple(row)


def eulerian_row_solve(shape: Shape) -> Row:
    """Recover the descent-count row by forward substitution on Worpitzky's
    identity, point_count(shape, n) = sum over i of row[i] * C(n - i + d, d)."""
    d = shape.size
    return Row(shape, 0, _forward_solve(shape, lambda n, i: binomial(n - i + d, d)))


def stirling2_row_enum(shape: Shape) -> Row:
    """Count ordered multiset partitions per block number by enumerating
    the corresponding chains.

    A plain count: grouping the chains into `chain_classes` costs about
    three times their enumeration, and a run of the integer identities
    has no other reader of that table to share it with.
    """
    values = [
        sum(1 for _ in iter_chains(shape, k)) for k in range(1, shape.size + 1)
    ]
    return Row(shape, 1, tuple(values))


def stirling2_row_closed(shape: Shape) -> Row:
    """Closed form of the ordered partition row, by block count k = i + 1:
    the inverse's entries are C(k, h + 1), and enumeration confirms it."""
    values = _inclusion_exclusion(shape, lambda i, h: binomial(i + 1, h + 1))
    return Row(shape, 1, values)


def stirling2_row_as_printed(shape: Shape) -> Row:
    """`stirling2_row_closed` with the paper's printed index C(k, h), kept
    because it disagrees with enumeration: for (1,1), k = 2 it gives 7, not 2."""
    values = _inclusion_exclusion(shape, lambda i, h: binomial(i + 1, h))
    return Row(shape, 1, values)


def stirling2_row_solve(shape: Shape) -> Row:
    """Recover the ordered partition row by forward substitution on
    point_count(shape, n) = sum over k of row[k] * C(n + 1, k); entry i of
    the solved tuple is block count k = i + 1."""
    return Row(shape, 1, _forward_solve(shape, lambda n, i: binomial(n + 1, i + 1)))


def lah_row(shape: Shape) -> Row:
    """Number of (permutation, k-segment split) pairs by k: the ordered
    analog of the third-kind numbers, in closed form."""
    d = shape.size
    mult = multinomial(shape.parts)
    values = tuple(mult * binomial(d - 1, k - 1) for k in range(1, d + 1))
    return Row(shape, 1, values)


def a_polynomials(shape: Shape) -> Row:
    """Major-index generating polynomials grouped by descent count.

    Index i = 1..d collects the permutations with exactly d - i
    descents, so evaluating at q = 1 recovers the descent-count row read
    backwards.
    """
    d = shape.size
    tallies: list[dict[int, int]] = [{} for _ in range(d)]
    for word in iter_permutations(shape):
        ds = descent_set(word)
        bucket = tallies[d - len(ds) - 1]
        maj = sum(ds)
        bucket[maj] = bucket.get(maj, 0) + 1
    return Row(shape, 1, tuple(QPolynomial.from_exponent_counts(t) for t in tallies))


def b_polynomials(shape: Shape) -> Row:
    """Major-index generating polynomials of chains, by dimension k.

    The major index of a chain is the sum of its internal vertex
    coordinate totals; at q = 1 each polynomial reduces to the ordered
    partition count.  Those totals are the partial sums of the block
    sizes, so every chain of a block-size class has the major index of the
    class's first chain, and the tally adds it once per class, weighted
    by the class's count.  The sum is exact: every chain is enumerated.
    """
    tallies: list[dict[int, int]] = [{} for _ in range(shape.size)]
    for sizes, rep, count in chain_classes(shape):
        tally = tallies[len(sizes) - 1]
        maj = chain_major_index(rep)
        tally[maj] = tally.get(maj, 0) + count
    return Row(shape, 1, tuple(QPolynomial.from_exponent_counts(t) for t in tallies))


def c_polynomials(shape: Shape) -> Row:
    """Joint major-index polynomials of (permutation, cut-chain) pairs,
    by enumeration.

    Counts every permutation with every way of cutting it into k
    contiguous nonempty segments.  The cut chain's internal vertices are
    the word's prefix contents at the cuts, so its major index is the sum
    of those vertices' coordinate totals: it depends on the word only
    through the word's vector of prefix totals.  So the words are counted
    per vector, and the cut sets of each distinct vector are walked once,
    weighted by its count.  The regrouping is exact for whatever totals
    the enumeration reads, since every word is enumerated and its vertices
    are read.  A prefix of length i has total i, so in practice every word
    falls into one class; the tally does not assume that.
    """
    classes = Counter(
        tuple(map(sum, word_prefix_contents(word)))
        for word in iter_permutations(shape)
    )
    tallies: list[dict[int, int]] = [{} for _ in range(shape.size)]
    for totals, count in classes.items():
        # the cut sets for k blocks are the (k - 1)-subsets of the internal
        # prefixes, all but the full word
        for k, tally in enumerate(tallies, start=1):
            for cuts in itertools.combinations(totals[:-1], k - 1):
                maj = sum(cuts)
                tally[maj] = tally.get(maj, 0) + count
    return Row(shape, 1, tuple(QPolynomial.from_exponent_counts(t) for t in tallies))


def c_polynomials_closed(shape: Shape) -> Row:
    """Closed form of `c_polynomials`: the multinomial times a shifted
    Gaussian binomial.  The two agree because the major index of a cut
    chain equals the sum of its cut positions."""
    d = shape.size
    mult = multinomial(shape.parts)
    return Row(
        shape,
        1,
        tuple(
            q_binomial(d - 1, k - 1).shift(k * (k - 1) // 2) * mult
            for k in range(1, d + 1)
        ),
    )
