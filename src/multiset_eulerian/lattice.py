"""Lattice points of dilated shape polytopes and their two classifications.

The polytope attached to a shape is a product of order simplices, one
factor per letter: the factor for letter j consists of weakly decreasing
dj-tuples.  Scaling by a dilation level n and restricting to integer
points gives the finite sets enumerated here.  A point is stored as
nested tuples grouped by letter, mirroring the text form "x11,x12;x21".

Each point is classified in two ways:

* first classification: the reading word obtained by sorting all
  coordinates by value descending, breaking ties by letter.  The fibers
  are half-open permutation regions; their sizes and q-weights have
  binomial closed forms.
* second classification: the chain of cumulative letter contents of the
  distinct coordinate values, read from the largest value down.  It
  costs one sort per point: the (value, letter) pairs are swept in
  descending order and a vertex is cut wherever the value drops.  The
  fibers are chain regions.  Their exact q-weight is computed by
  :func:`chain_weight_sum`, which weights each value class by its block
  size; this is deliberately not assumed to have a Gaussian-binomial
  form, because it does not have one once a block size exceeds 1.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .combinatorics import (
    Chain,
    Shape,
    Word,
    chain_block_sizes,
    descent_set,
    iter_permutations,
)
from .qpoly import ONE, ZERO, QPolynomial, binomial, multinomial, q_binomial

Point = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _factor_points(dj: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing dj-tuples with entries in 0..n, lex ascending."""
    if dj == 0:
        return ((),)
    out = []
    for first in range(n + 1):
        for rest in _factor_points(dj - 1, first):
            out.append((first,) + rest)
    return tuple(out)


def iter_points(shape: Shape, n: int) -> Iterator[Point]:
    """Yield the dilation's lattice points in lexicographic order."""
    if n < 0:
        raise ValueError("dilation level must be nonnegative")
    factors = [_factor_points(p, n) for p in shape.parts]
    if not factors:
        yield ()
        return
    yield from itertools.product(*factors)


def point_count(shape: Shape, n: int) -> int:
    """Closed count of the dilation's lattice points."""
    return math.prod(binomial(n + p, p) for p in shape.parts)


def coordinate_sum(point: Point) -> int:
    return sum(map(sum, point))


def validate_point(point: Point, shape: Shape, n: int) -> None:
    """Raise ValueError unless the point lies in the n-fold dilation."""
    if len(point) != shape.letters:
        raise ValueError(
            f"point has {len(point)} factors, shape expects {shape.letters}"
        )
    for j, (xs, dj) in enumerate(zip(point, shape.parts), start=1):
        if len(xs) != dj:
            raise ValueError(f"factor {j} has {len(xs)} coordinates, expected {dj}")
        for i, v in enumerate(xs, start=1):
            if not 0 <= v <= n:
                raise ValueError(f"coordinate x{j},{i} = {v} outside 0..{n}")
        if any(a < b for a, b in zip(xs, xs[1:])):
            raise ValueError(f"factor {j} is not weakly decreasing: {xs}")


def classify_first(point: Point) -> Word:
    """Reading word of a point: coordinates sorted by value descending
    with ties broken by letter.

    Equal values within one letter are interchangeable, so their order
    never changes the word.  The tie order makes the classification
    total and forces a strict value drop at every descent of the
    resulting word, which is the half-open region condition.
    """
    keyed = []
    for j, xs in enumerate(point, start=1):
        for v in xs:
            keyed.append((-v, j))
    keyed.sort()
    word = tuple([j for _, j in keyed])
    for h in range(1, len(word)):
        if word[h - 1] > word[h]:
            assert keyed[h - 1][0] < keyed[h][0]
    return word


def classify_second(point: Point) -> Chain:
    """Chain of cumulative letter contents of the distinct values.

    The top value class may sit at the dilation bound and the bottom one
    at 0; only the gaps between classes are strict, so the number of
    blocks k is simply the number of distinct coordinate values.  One
    descending sort of the (value, letter) pairs gives the chain: the
    running content vector becomes a vertex wherever the value drops.
    """
    content = [0] * len(point)
    chain = [tuple(content)]
    pairs = [(v, j) for j, xs in enumerate(point) for v in xs]
    if not pairs:
        return tuple(chain)
    pairs.sort(reverse=True)
    current = pairs[0][0]
    for v, j in pairs:
        if v != current:
            chain.append(tuple(content))
            current = v
        content[j] += 1
    chain.append(tuple(content))
    return tuple(chain)


def _word_coordinate_order(word: Word) -> tuple[int, ...]:
    """Flat coordinate indices visited in the word's reading order.

    Entry h points at the coordinate holding the next occurrence of
    letter word[h] in the flattened letter-major layout.
    """
    if not word:
        return ()
    letters = max(word)
    counts = [0] * (letters + 1)
    for letter in word:
        counts[letter] += 1
    offsets = [0] * (letters + 1)
    for j in range(1, letters + 1):
        offsets[j] = offsets[j - 1] + counts[j - 1]
    seen = [0] * (letters + 1)
    out = []
    for letter in word:
        out.append(offsets[letter] + seen[letter])
        seen[letter] += 1
    return tuple(out)


def in_region(point: Point, word: Word, n: int) -> bool:
    """Half-open region membership for the first classification.

    Values must decrease weakly along the reading order, strictly at
    the word's descents, and stay within 0..n.
    """
    flat = [v for xs in point for v in xs]
    values = [flat[idx] for idx in _word_coordinate_order(word)]
    if not values:
        return True
    if values[0] > n or values[-1] < 0:
        return False
    for h in range(1, len(values)):
        if word[h - 1] > word[h]:
            if values[h - 1] <= values[h]:
                return False
        elif values[h - 1] < values[h]:
            return False
    return True


def in_closed_simplex(point: Point, word: Word, n: int) -> bool:
    """Weak-chain membership in one closed permutation simplex."""
    flat = [v for xs in point for v in xs]
    prev = n
    for idx in _word_coordinate_order(word):
        v = flat[idx]
        if v > prev:
            return False
        prev = v
    return prev >= 0


def region_point_count(word: Word, n: int) -> int:
    """Closed size of one reading-word region."""
    d = len(word)
    return binomial(n - len(descent_set(word)) + d, d)


def region_gf(word: Word, n: int) -> QPolynomial:
    """Closed q-weight of one reading-word region: the major index times
    a Gaussian binomial whose argument shrinks by the descent count."""
    d = len(word)
    ds = descent_set(word)
    return q_binomial(n - len(ds) + d, d).shift(sum(ds))


def chain_region_count(k: int, n: int) -> int:
    """Closed size of one chain region: C(n+1, k)."""
    return binomial(n + 1, k)


def chain_weight_sum(chain: Chain, n: int) -> QPolynomial:
    """Exact q-weight of one chain region at dilation level n.

    Each of the k distinct values is weighted by its block size and the
    values strictly decrease, from at most n down to at least 0.  At
    q = 1 this counts C(n+1, k).  When every block has size 1 the sum
    collapses to q**(k(k-1)/2) times a Gaussian binomial; with a larger
    block it does not, which is exactly what the failing q-identities
    overlook.
    """
    return _strict_weight(chain_block_sizes(chain), n)


@lru_cache(maxsize=None)
def _strict_weight(sizes: tuple[int, ...], n: int) -> QPolynomial:
    if not sizes:
        return ONE
    if n + 1 < len(sizes):
        return ZERO
    total = ZERO
    for top in range(len(sizes) - 1, n + 1):
        total = total + _strict_weight(sizes[1:], top - 1).shift(sizes[0] * top)
    return total


def f1(shape: Shape, n: int) -> QPolynomial:
    """Product closed form of the dilation's q-weight enumerator."""
    out = ONE
    for p in shape.parts:
        out = out * q_binomial(n + p, p)
    return out


def f1_enumerated(shape: Shape, n: int) -> QPolynomial:
    """Direct q-weight sum over the enumerated points (cross-check)."""
    tally = [0] * (n * shape.size + 1)
    for point in iter_points(shape, n):
        tally[coordinate_sum(point)] += 1
    return QPolynomial(tally)


def f2(shape: Shape, n: int) -> QPolynomial:
    """Closed q-weight summed over all closed permutation simplices."""
    return q_binomial(n + shape.size, shape.size) * multinomial(shape.parts)


def f2_enumerated(shape: Shape, n: int) -> QPolynomial:
    """Membership cross-check for :func:`f2`.

    Each point contributes its q-weight once for every word whose
    closed simplex contains it, so overlaps on region boundaries are
    counted with multiplicity.
    """
    orders = [
        _word_coordinate_order(word) for word in iter_permutations(shape)
    ]
    tally = [0] * (n * shape.size + 1)
    for point in iter_points(shape, n):
        flat = [v for xs in point for v in xs]
        s = sum(flat)
        for order in orders:
            prev = n
            for idx in order:
                v = flat[idx]
                if v > prev:
                    break
                prev = v
            else:
                tally[s] += 1
    return QPolynomial(tally)
