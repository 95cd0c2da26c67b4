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
  distinct coordinate values, read from the largest value down: the
  running content vector becomes a vertex wherever the value drops.  The
  fibers are chain regions.  Their exact q-weight is computed by
  :func:`chain_weight_sum`, which weights each value class by its block
  size; this is deliberately not assumed to have a Gaussian-binomial
  form, because it does not have one once a block size exceeds 1.

:func:`classify_points` classifies every point of a dilation in one
depth-first sweep over the letter factors.  A node at depth m carries the
sorted (value, letter) pairs of the tuples chosen for the first m letters
and their coordinate sum, so each factor tuple's pairs and sum are built
once and a child only merges one tuple into its parent's sorted list.
The leaves are the points: each is visited once and gets its own key.
:func:`classify_first` and :func:`classify_second` are the one-point case
of the same sweep.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .combinatorics import Chain, Shape, Word, chain_block_sizes, descent_set
from .qpoly import ONE, ZERO, QPolynomial, binomial, multinomial, q_binomial

Point = tuple[tuple[int, ...], ...]
# fiber key (word or chain) -> {coordinate sum: number of points}
Fibers = dict[tuple, dict[int, int]]


# bounded memory: `verify --dmax 6 --nmax 6 --q` fills 42 entries
@lru_cache(maxsize=256)
def _factor_points(dj: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing dj-tuples with entries in 0..n, lex ascending."""
    # drawn from the descending pool n..0, the tuples come out weakly
    # decreasing and lex descending in value; reversed, lex ascending
    drawn = tuple(itertools.combinations_with_replacement(range(n, -1, -1), dj))
    return drawn[::-1]


def iter_points(shape: Shape, n: int) -> Iterator[Point]:
    """Yield the dilation's lattice points in lexicographic order."""
    if n < 0:
        raise ValueError("dilation level must be nonnegative")
    factors = [_factor_points(p, n) for p in shape.parts]
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


def _reading_word(pairs: list[tuple[int, int]], letters: int) -> Word:
    """Reading word of a point's (-value, letter) pairs, sorted ascending.
    `letters` is unused; it keeps the signature of :func:`_content_chain`.

    Equal values within one letter are interchangeable, so their order
    never changes the word.  The tie order makes the classification
    total and forces a strict value drop at every descent of the
    resulting word, which is the half-open region condition: pairs with
    equal values are sorted by ascending letter, so wherever the letter
    drops the value drops strictly.
    """
    return tuple(map(itemgetter(1), pairs))


def _content_chain(pairs: list[tuple[int, int]], letters: int) -> Chain:
    """Chain of a point's (-value, letter) pairs, sorted ascending, with
    letters numbered from 0.

    The top value class may sit at the dilation bound and the bottom one
    at 0; only the gaps between classes are strict, so the number of
    blocks k is simply the number of distinct coordinate values.
    """
    content = [0] * letters
    chain = [tuple(content)]
    if pairs:
        current = pairs[0][0]
        for minus_v, j in pairs:
            if minus_v != current:
                chain.append(tuple(content))
                current = minus_v
            content[j] += 1
        chain.append(tuple(content))
    return tuple(chain)


def _sweep(
    kind: str, factors: Sequence[Sequence[tuple[int, ...]]]
) -> tuple[int, Fibers]:
    """Classify every point of the product of `factors` (the coordinate
    tuples of each letter in turn) by an explicit-stack depth-first walk.

    Returns the number of points classified and their fibers.  The stack
    holds at most one entry per tuple of each factor, never the points;
    the last factor's tuples are merged in at the leaves.
    """
    first = kind == "first"
    leaf = _reading_word if first else _content_chain
    # each tuple's sorted pairs and coordinate sum, built once per letter;
    # letters are numbered from 1 in a word, from 0 as content indices
    levels = [
        [(sorted([(-v, j) for v in xs]), sum(xs)) for xs in tuples]
        for j, tuples in enumerate(factors, start=1 if first else 0)
    ]
    last = levels.pop() if levels else [([], 0)]
    letters = len(factors)
    fibers: Fibers = {}
    total = 0
    stack = [([], 0, 0)]
    while stack:
        pairs, s, depth = stack.pop()
        if depth < len(levels):
            for keyed, t in levels[depth]:
                stack.append((sorted(pairs + keyed), s + t, depth + 1))
            continue
        for keyed, t in last:
            merged = pairs + keyed
            merged.sort()
            key = leaf(merged, letters)
            bucket = fibers.get(key)
            if bucket is None:
                bucket = fibers[key] = {}
            weight = s + t
            bucket[weight] = bucket.get(weight, 0) + 1
            total += 1
    return total, fibers


def classify_points(kind: str, shape: Shape, n: int) -> tuple[int, Fibers]:
    """Classify every lattice point of the n-fold dilation.

    `kind` is "first" (fibers keyed by reading word) or "second" (keyed
    by chain).  Returns the number of points classified and a dict from
    each fiber key to its tally {coordinate sum: number of points}.
    """
    if kind not in ("first", "second"):
        raise ValueError(f"unknown classification kind {kind!r}")
    if n < 0:
        raise ValueError("dilation level must be nonnegative")
    return _sweep(kind, [_factor_points(p, n) for p in shape.parts])


def classify_first(point: Point) -> Word:
    """Reading word of a point: coordinates sorted by value descending
    with ties broken by letter."""
    (word,) = _sweep("first", [(xs,) for xs in point])[1]
    return word


def classify_second(point: Point) -> Chain:
    """Chain of cumulative letter contents of the distinct values."""
    (chain,) = _sweep("second", [(xs,) for xs in point])[1]
    return chain


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


# bounded memory: `verify --dmax 6 --nmax 6 --q` fills 448 entries
@lru_cache(maxsize=4096)
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


def f2(shape: Shape, n: int) -> QPolynomial:
    """Closed q-weight summed over all closed permutation simplices."""
    return q_binomial(n + shape.size, shape.size) * multinomial(shape.parts)
