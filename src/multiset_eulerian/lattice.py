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

:func:`classify_new_points` classifies the points of a dilation that
are not in the one below it, those whose largest coordinate is n, in one
depth-first sweep over the letter factors, and tallies them into a
running fiber table.  A point's key and coordinate sum do not depend on
the dilation level, so a caller walking the levels n = 0, 1, ... in turn
classifies each point once, at the first level that contains it, and
after level n holds the table of every point of level n.  Each
coordinate is coded as one integer that sorts by value descending, then
by letter.  A node of the sweep carries the sorted codes of the tuples
chosen so far and their coordinate sum, so each factor tuple's codes and
sum are built once and a child only merges one tuple into its parent's
sorted list.  The last coordinate of one letter is not merged: a point's
place in its parent's word, or among its parent's value blocks, is where
that one code sorts in (either side of a tie with an equal coordinate of
its letter gives the same word and block), so a point needs no sort and
builds no key.  Each place of a parent pattern holds the bucket of the
fiber table its leaves land in; these rows belong to that one table and
live as long as it does, one job's worth of levels.
:func:`classify_first` and :func:`classify_second` are the one-point case
of the same sweep.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from functools import lru_cache
from typing import Iterator, Sequence

from .combinatorics import (
    Chain,
    Shape,
    Vector,
    Word,
    chain_block_sizes,
    descent_set,
)
from .qpoly import ONE, ZERO, QPolynomial, binomial, multinomial, q_binomial

__all__ = [
    "chain_region_count",
    "chain_weight_sum",
    "classify_first",
    "classify_new_points",
    "classify_second",
    "coordinate_sum",
    "f1",
    "f2",
    "iter_points",
    "point_count",
    "region_gf",
    "region_point_count",
    "validate_point",
]

Point = tuple[tuple[int, ...], ...]
# fiber key (word or chain) -> {coordinate sum: number of points}
Fibers = dict[tuple, dict[int, int]]
# a parent's pattern -> per place, the bucket in `Fibers` its leaves land in
Rows = dict[tuple, list]


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


def _vertex(x: int, radix: int, letters: int) -> Vector:
    """Content vector whose digits, least significant first, in radix
    `radix` are the integer `x`."""
    digits = []
    for _ in range(letters):
        x, digit = divmod(x, radix)
        digits.append(digit)
    return tuple(digits)


def _sweep(
    kind: str,
    factors: Sequence[Sequence[tuple[int, ...]]],
    fibers: Fibers,
    rows: Rows,
    top: int | None = None,
) -> int:
    """Classify the points of the product of `factors` (the coordinate
    tuples of each letter in turn) by an explicit-stack depth-first walk,
    tallying them into `fibers`.  With `top` given, only the points with
    some coordinate equal to `top` are visited.

    Returns the number of points classified.  The stack holds at most one
    entry per tuple of each factor, never the points.

    A coordinate of value v of letter j (numbered from 1) is coded as the
    integer (N - v) * (L + 1) + j, where N is the largest value and L the
    number of letters, so sorting the codes orders the coordinates by
    value descending, then by letter; equal values of one letter share a
    code, as they are interchangeable.  The tie order makes the
    classification total and forces a strict value drop at every descent
    of the reading word, which is the half-open region condition.

    The reading word maps each sorted code to its letter.  The chain keeps
    the running content as one integer, one digit per letter in radix
    max(parts) + 1, and reads off a vertex wherever the value drops; the
    top class may sit at the dilation bound and the bottom one at 0, so
    the number of blocks is the number of distinct values.

    Every point is placed by one coordinate: the last one of the leaf
    letter j, the last letter with the fewest copies.  The walk runs once
    per head, the codes of a tuple of j but the last, over the other
    letters; a parent node computes once its pattern and its places, and
    a leaf's place is r = `bisect(places, c)` of its code c.  For the
    first kind they are the parent's word and codes, and r is where j
    enters the word.  For the second kind the pattern is the content
    integer before each value block, then the whole content, and the
    places are each block's code bounds [low, high); an odd r means j
    joins block (r - 1) / 2, and an even r means j opens a new block after
    r / 2 blocks.  Only a head copy of j can tie with c: either side of
    the tie gives the same word, so both places share a bucket, and a
    bound, a multiple of L + 1, is never a code, so a tied leaf joins its
    value's block.  A leaf tallies into `rows[pattern][r]`, the bucket of
    its fiber in `fibers`, built with its key when the first point lands
    in it.  The pattern does not depend on the level, so one `rows` serves
    every level of one table, and only that table.
    """
    first = kind == "first"
    if not factors:  # the empty point: the empty word, the chain ((),)
        fibers[() if first else ((),)] = {0: 1}
        return 1
    letters = len(factors)
    width = letters + 1  # codes of one value: one per letter, 1..L
    parts = tuple(len(tuples[0]) for tuples in factors)
    radix = max(parts) + 1
    largest = max(xs[0] for tuples in factors for xs in tuples)
    # code -> its letter (first kind) or what its letter adds to the content
    # integer (second kind); only the codes that occur, so a point with a
    # huge value costs no more table than its coordinates
    table = {}
    # per letter, each tuple's codes, ascending, its coordinate sum and
    # whether it holds `top` (its first, largest value), built once
    levels = []
    for j, tuples in enumerate(factors, start=1):
        step = j if first else radix ** (j - 1)
        level = []
        for xs in tuples:
            keyed = [(largest - v) * width + j for v in xs]
            table.update(dict.fromkeys(keyed, step))
            level.append((keyed, sum(xs), xs[:1] == (top,)))
        levels.append(level)
    letter_of = table.__getitem__
    # content integer -> its vertex, built as met, so every chain shares
    # the vertex tuples; a chain runs from 0 up to the full content `parts`
    vertices = {0: (0,) * letters}
    j = letters - parts[::-1].index(min(parts))
    total = 0
    # the leaf letter's tuples that share a head, their codes but the last,
    # are adjacent, as the factor is in lex order
    for head, group in itertools.groupby(levels.pop(j - 1), lambda e: e[0][:-1]):
        entries = list(group)
        # each tuple's last code and coordinate sum; then only those of the
        # tuples that hold `top`, all of them when the head does
        leaves = [(keyed[-1], t) for keyed, t, _ in entries]
        leaves_top = [(keyed[-1], t) for keyed, t, has_top in entries if has_top]
        # a node is new once one of its tuples holds `top` (from the root
        # when there is no `top`); a node that is not new by the leaves
        # places only `leaves_top`
        stack = [(head, 0, 0, top is None)]
        while stack:
            codes, s, depth, new = stack.pop()
            if depth < len(levels):
                for keyed, t, has_top in levels[depth]:
                    stack.append(
                        (sorted(codes + keyed), s + t, depth + 1, new or has_top)
                    )
                continue
            batch = leaves if new else leaves_top
            if not batch:
                continue
            if first:
                pattern = tuple(map(letter_of, codes))
                places = codes
            else:
                contents = []  # before each value block, then the whole
                places = []
                x = 0
                bound = 0
                for c in codes:
                    if c >= bound:
                        contents.append(x)
                        low = c - c % width
                        bound = low + width
                        places.append(low)
                        places.append(bound)
                    x += table[c]
                contents.append(x)
                pattern = tuple(contents)
            row = rows.get(pattern)
            if row is None:
                row = rows[pattern] = [None] * (len(places) + 1)
            for c, t in batch:
                # r is the merge place, up to a tie with a head copy of j
                # (first kind), or odd inside a value block, even between two
                r = bisect(places, c)
                bucket = row[r]
                if bucket is None:
                    if first:
                        key = pattern[:r] + (letter_of(c),) + pattern[r:]
                    else:
                        # the blocks after j's own block hold j as well
                        xs = pattern[: r // 2 + 1] + tuple(
                            x + table[c] for x in pattern[(r + 1) // 2 :]
                        )
                        for x in xs:
                            if x not in vertices:
                                vertices[x] = _vertex(x, radix, letters)
                        key = tuple(map(vertices.__getitem__, xs))
                    bucket = row[r] = fibers.setdefault(key, {})
                weight = s + t
                bucket[weight] = bucket.get(weight, 0) + 1
                total += 1
    return total


def classify_new_points(
    kind: str, shape: Shape, n: int, fibers: Fibers, rows: Rows
) -> int:
    """Classify the lattice points of the n-fold dilation that are not in
    the (n-1)-fold one, those whose largest coordinate is n, and tally
    them into the running table `fibers`.

    `kind` is "first" (fibers keyed by reading word) or "second" (keyed
    by chain); the table maps each fiber key to its tally {coordinate
    sum: number of points}.  Returns the number of new points.  Called
    for n = 0, 1, ... in turn on one table, it classifies each point
    once, at the first level that contains it, and leaves the table of
    every point of the last level.  `rows` is the table's row memo, empty
    at the first call and passed with the table to every later one: it
    holds buckets of that table (see `_sweep`), so a new table needs a new
    memo.
    """
    if kind not in ("first", "second"):
        raise ValueError(f"unknown classification kind {kind!r}")
    if n < 0:
        raise ValueError("dilation level must be nonnegative")
    factors = [_factor_points(p, n) for p in shape.parts]
    return _sweep(kind, factors, fibers, rows, n)


def _point_key(kind: str, point: Point) -> tuple:
    fibers: Fibers = {}
    _sweep(kind, [(xs,) for xs in point], fibers, {})
    (key,) = fibers
    return key


def classify_first(point: Point) -> Word:
    """Reading word of a point: coordinates sorted by value descending
    with ties broken by letter."""
    return _point_key("first", point)


def classify_second(point: Point) -> Chain:
    """Chain of cumulative letter contents of the distinct values."""
    return _point_key("second", point)


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


# bounded memory: `verify --dmax 6 --nmax 6 --q` fills 441 entries
@lru_cache(maxsize=4096)
def _strict_weight(sizes: tuple[int, ...], n: int) -> QPolynomial:
    k = len(sizes)
    if not k:
        return ONE
    if n + 1 < k:
        return ZERO
    # A loop from the last block up, so no chain is too long for the
    # stack.  Block j takes the values k-1-j .. n-j, a window of the same
    # width for every block.  Before block j is placed, below[i] is the
    # weight of the blocks after it, summed over their values, when block
    # j sits at value k-1-j+i; the last block has nothing after it.
    below = [ONE] * (n - k + 2)
    for j in range(k - 1, -1, -1):
        low = k - 1 - j
        running = ZERO
        for i, weight in enumerate(below):
            # the prefix sum is the weight under block j - 1 at value
            # low+1+i, which admits block j at every value up to low+i
            running = running + weight.shift(sizes[j] * (low + i))
            below[i] = running
    # after block 0, the last prefix sum covers every top value up to n
    return below[-1]


def f1(shape: Shape, n: int) -> QPolynomial:
    """Product closed form of the dilation's q-weight enumerator."""
    out = ONE
    for p in shape.parts:
        out = out * q_binomial(n + p, p)
    return out


def f2(shape: Shape, n: int) -> QPolynomial:
    """Closed q-weight summed over all closed permutation simplices."""
    return q_binomial(n + shape.size, shape.size) * multinomial(shape.parts)
