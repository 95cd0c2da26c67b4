"""Independent brute-force oracles and classical fixtures for the tests.

Everything here recomputes expected values from first principles with
logic that shares no code with the package implementations: permutations
come from deduplicated itertools permutations, chains from filtered
vertex sequences, partition counts from a direct recursive enumeration.

Cyclotomic polynomials and the remainder modulo a monic polynomial give
exact evaluations at roots of unity, for the cyclic sieving checks.  A
word's inversions and the q-multinomial coefficient, a product of
Gaussian binomials from their lattice-point definition, serve MacMahon's
equidistribution check.

The region-membership tests and the enumerated generating functions at
the end are cross-checks of the package's closed forms: they walk the
package's own point and word enumerators and test each point directly.
Cutting a word into segments, last, is checked against the package's
chain enumerator and Lah row.  The recursive chain enumerator the
package used before its explicit-stack one is kept as a reference for
its chains and their order, and compositions come from bitmasks over the
gaps between elements, sorted into the package's shape order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from multiset_eulerian.combinatorics import (
    Chain,
    Shape,
    Vector,
    Word,
    iter_permutations,
    word_prefix_contents,
)
from multiset_eulerian.lattice import Point, coordinate_sum, iter_points
from multiset_eulerian.qpoly import QPolynomial

# Classical Eulerian triangle rows, indexed by d (A008292).
EULERIAN_CLASSICAL = {
    1: (1,),
    2: (1, 1),
    3: (1, 4, 1),
    4: (1, 11, 11, 1),
    5: (1, 26, 66, 26, 1),
    6: (1, 57, 302, 302, 57, 1),
    7: (1, 120, 1191, 2416, 1191, 120, 1),
}

# Ordered Bell numbers: total ordered set partitions of d distinct items
# (A000670).
FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


def compositions_by_bitmask(
    d_max: int, l_max: int | None = None
) -> list[tuple[int, ...]]:
    """Every composition with 1 <= d <= d_max and at most l_max parts,
    ordered by d, then part count, then lexicographically.  Bit i of a
    mask over the d - 1 gaps cuts the d elements after element i + 1."""
    found = []
    for d in range(1, d_max + 1):
        for mask in range(1 << (d - 1)):
            parts, size = [], 1
            for i in range(d - 1):
                if mask >> i & 1:
                    parts.append(size)
                    size = 0
                size += 1
            parts.append(size)
            if l_max is None or len(parts) <= l_max:
                found.append(tuple(parts))
    return sorted(found, key=lambda c: (sum(c), len(c), c))


def weakly_decreasing_tuples(length: int, bound: int) -> list[tuple[int, ...]]:
    """All weakly decreasing tuples with entries 0..bound, brute force."""
    return [
        t
        for t in itertools.product(range(bound + 1), repeat=length)
        if all(a >= b for a, b in zip(t, t[1:]))
    ]


def brute_q_binomial_coeffs(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of [n, k]_q from its lattice-point definition."""
    tally: dict[int, int] = {}
    for t in weakly_decreasing_tuples(k, n - k):
        s = sum(t)
        tally[s] = tally.get(s, 0) + 1
    if not tally:
        return ()
    out = [0] * (max(tally) + 1)
    for s, c in tally.items():
        out[s] = c
    return tuple(out)


def _divide_monic(
    coeffs: tuple[int, ...], monic: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer coefficient lists, lowest degree
    first, by long division; a monic divisor keeps them integers."""
    rem = list(coeffs)
    deg = len(monic) - 1
    quotient = [0] * max(len(rem) - deg, 0)
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        quotient[top - deg] = c
        for i, m in enumerate(monic):
            rem[top - deg + i] -= c * m
    return quotient, rem[:deg]


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree
    first: q**m - 1 divided by every cyclotomic polynomial of a proper
    divisor of m."""
    coeffs = (-1,) + (0,) * (m - 1) + (1,)
    for e in range(1, m):
        if m % e == 0:
            quotient, rem = _divide_monic(coeffs, cyclotomic(e))
            assert not any(rem)
            coeffs = tuple(quotient)
    return coeffs


def remainder_mod_cyclotomic(poly: QPolynomial, m: int) -> QPolynomial:
    """`poly` modulo the m-th cyclotomic polynomial: its value at a
    primitive m-th root of unity, as a polynomial of degree below phi(m)."""
    return QPolynomial(_divide_monic(poly.coeffs, cyclotomic(m))[1])


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    """Classical S(n, k) by the standard recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


def q_multinomial_coeffs(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product over j of [d1 + ... + dj, dj]_q, each
    factor from its lattice-point definition, multiplied out directly."""
    coeffs = [1]
    top = 0
    for part in parts:
        top += part
        factor = brute_q_binomial_coeffs(top, part)
        product = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        coeffs = product
    return tuple(coeffs)


def inversions(word: Word) -> int:
    """Pairs of positions i < j with word[i] > word[j], by a double loop."""
    count = 0
    for i, a in enumerate(word):
        for b in word[i + 1 :]:
            if a > b:
                count += 1
    return count


def multiset_words(parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every distinct word of the multiset, by deduplication."""
    letters = [j for j, p in enumerate(parts, start=1) for _ in range(p)]
    return set(itertools.permutations(letters))


def brute_eulerian_row(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Descent-count row from deduplicated permutations."""
    d = sum(parts)
    row = [0] * d
    for word in multiset_words(parts):
        row[sum(1 for a, b in zip(word, word[1:]) if a > b)] += 1
    return tuple(row)


@lru_cache(maxsize=None)
def _ordered_partitions(remaining: tuple[int, ...], blocks: int) -> int:
    if blocks == 0:
        return 1 if all(r == 0 for r in remaining) else 0
    total = 0
    for block in itertools.product(*[range(r + 1) for r in remaining]):
        if all(b == 0 for b in block):
            continue
        rest = tuple(r - b for r, b in zip(remaining, block))
        if sum(rest) >= blocks - 1:
            total += _ordered_partitions(rest, blocks - 1)
    return total


def ordered_partition_count(parts: tuple[int, ...], k: int) -> int:
    """Count ordered multiset partitions into k nonempty blocks directly."""
    return _ordered_partitions(tuple(parts), k)


def brute_chains(parts: tuple[int, ...], k: int) -> set[tuple[tuple[int, ...], ...]]:
    """All k-step chains of a tiny shape by filtering vertex sequences."""
    target = tuple(parts)
    origin = (0,) * len(parts)
    grid = list(itertools.product(*[range(p + 1) for p in parts]))
    internal = [v for v in grid if v not in (origin, target)]

    def increases(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        return u != v and all(a <= b for a, b in zip(u, v))

    chains = set()
    for combo in itertools.permutations(internal, k - 1):
        seq = (origin,) + combo + (target,)
        if all(increases(u, v) for u, v in zip(seq, seq[1:])):
            chains.add(seq)
    return chains


def recursive_chains(shape: Shape, k: int) -> Iterator[Chain]:
    """The package's former recursive chain enumerator, kept as the
    reference for :func:`iter_chains`: the same chains in the same order.

    A chain runs from the origin to the full content vector; each step
    increases at least one coordinate and decreases none.  Chains are
    yielded in lexicographic order of their flattened vertex sequences.
    k outside 1..d yields nothing, except for the empty shape whose only
    chain is the single origin vertex at k = 0.
    """
    target = shape.parts
    d = shape.size
    origin = (0,) * shape.letters
    if d == 0:
        if k == 0:
            yield (origin,)
        return
    if k < 1 or k > d:
        return

    # vertex -> [(vertex above it, elements still to place)] in product
    # order; at most prod(dj + 1) entries, dropped with the generator
    successors: dict[Vector, list[tuple[Vector, int]]] = {}

    def above(current: Vector) -> list[tuple[Vector, int]]:
        out = successors.get(current)
        if out is None:
            ranges = [range(c, t + 1) for c, t in zip(current, target)]
            out = [
                (nxt, d - sum(nxt))
                for nxt in itertools.product(*ranges)
                if nxt != current
            ]
            successors[current] = out
        return out

    def extend(prefix: Chain, current: Vector, steps: int) -> Iterator[Chain]:
        if steps == 1:
            yield prefix + (target,)
            return
        for nxt, left in above(current):
            # the remaining steps each add at least one element
            if left >= steps - 1:
                yield from extend(prefix + (nxt,), nxt, steps - 1)

    yield from extend((origin,), origin, k)


def brute_classify_first(point: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Reading word by definition: sort (-value, letter, slot) triples."""
    triples = sorted(
        (-v, j, i)
        for j, xs in enumerate(point, start=1)
        for i, v in enumerate(xs, start=1)
    )
    return tuple(j for _, j, _ in triples)


def brute_classify_second(
    point: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], ...]:
    """Chain by definition: for each distinct value, from the largest
    down, count the coordinates of every letter at or above it."""
    values = sorted({v for xs in point for v in xs}, reverse=True)
    origin = tuple(0 for _ in point)
    return (origin,) + tuple(
        tuple(sum(1 for v in xs if v >= val) for xs in point) for val in values
    )


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


def f1_enumerated(shape: Shape, n: int) -> QPolynomial:
    """Direct q-weight sum over the enumerated points (cross-check)."""
    tally = [0] * (n * shape.size + 1)
    for point in iter_points(shape, n):
        tally[coordinate_sum(point)] += 1
    return QPolynomial(tally)


def f2_enumerated(shape: Shape, n: int) -> QPolynomial:
    """Membership cross-check for the package's closed ``f2``.

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


def iter_chains_of_word(word: Word, k: int) -> Iterator[Chain]:
    """Chains obtained by cutting the word into k contiguous segments.

    Cut positions run over the (k-1)-subsets of 1..d-1 in lexicographic
    order; the vertices are the letter contents of the cut prefixes.
    Every yielded chain is also produced by :func:`iter_chains` for the
    word's shape.
    """
    d = len(word)
    if k < 1 or k > d:
        return
    prefixes = word_prefix_contents(word)
    origin = (0,) * len(prefixes[-1])
    full = prefixes[-1]
    for cuts in itertools.combinations(range(1, d), k - 1):
        yield (origin,) + tuple(prefixes[c - 1] for c in cuts) + (full,)
