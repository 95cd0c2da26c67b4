"""Multiset shapes, multiset permutations, and increasing vertex chains.

A shape (d1, ..., dl) records how many copies of each letter j in 1..l a
multiset contains; d is the total size.  Permutations are words over the
letters.  Chains are strictly increasing sequences of integer vectors
from the origin to the full content vector; taking successive
differences identifies a k-step chain with an ordered partition of the
multiset into k nonempty blocks.

All enumerators are deterministic: permutations come out in
lexicographic word order and chains in lexicographic order of their
flattened vertex sequences, so repeated runs produce identical output.
No enumerator recurses, so a shape deeper than the recursion limit is
served: `iter_permutations` steps a word to its successor in place, and
`iter_chains` walks an explicit stack of vertex frames and completes
each chain's last two vertices at C level, from a memoised list per
vertex joined to the prefix by `map`.

`chain_classes` tallies a shape's chains once into block-size classes: a
chain's major index and q-weight depend on its block sizes alone, so the
q-statistics of chains read the classes instead of the chains.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache
from typing import Iterator

__all__ = [
    "Chain",
    "Shape",
    "Word",
    "chain_block_sizes",
    "chain_major_index",
    "descent_set",
    "format_chain",
    "format_word",
    "iter_all_chains",
    "iter_chains",
    "iter_permutations",
    "iter_shapes",
    "major_index",
]

Word = tuple[int, ...]
Vector = tuple[int, ...]
Chain = tuple[Vector, ...]


class Shape(namedtuple("Shape", "parts")):
    """Composition (d1, ..., dl) with d >= 1; zero parts are dropped on
    construction, and a shape with no positive part is rejected.

    A shape is a named tuple of one field, so it pickles, hashes and
    compares as the tuple `(parts,)`: `Shape((2, 1)) == ((2, 1),)` and
    `len(shape) == 1`.  `_make` and `_replace` skip the check, as they do
    for any named tuple subclass.
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Shape:
        cleaned = tuple(map(operator.index, parts))
        if any(p < 0 for p in cleaned):
            raise ValueError("shape parts must be nonnegative")
        parts = tuple(p for p in cleaned if p > 0)
        if not parts:
            raise ValueError("a shape needs d >= 1")
        return super().__new__(cls, parts)

    @classmethod
    def parse(cls, text: str) -> "Shape":
        """Parse a comma-separated shape such as "2,1"."""
        try:
            parts = tuple(parse_int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"malformed shape {text!r}") from None
        try:
            return cls(parts)
        except ValueError as exc:
            raise ValueError(f"{exc}: {text!r}") from None

    @property
    def size(self) -> int:
        """Total number of elements d."""
        return sum(self.parts)

    @property
    def letters(self) -> int:
        """Number of distinct letters l."""
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def parse_int(token: str) -> int:
    """The integer an ASCII decimal token names, with surrounding
    whitespace and a leading "-" allowed; anything else `int` would take,
    such as "1_0", "+1" or a non-ASCII digit, raises ValueError."""
    text = token.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed integer {token!r}")
    return int(text)


def iter_permutations(shape: Shape) -> Iterator[Word]:
    """Yield every word with the shape's letter counts, lexicographically."""
    word = [j for j, p in enumerate(shape.parts, start=1) for _ in range(p)]
    last = len(word) - 1
    while True:
        yield tuple(word)
        # next word in lexicographic order: find the rightmost ascent,
        # swap its left letter with the rightmost larger letter after it,
        # and reverse the (weakly decreasing) tail
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


def descent_set(word: Word) -> tuple[int, ...]:
    """Positions h (1-based) where word[h] > word[h+1], ascending."""
    return tuple(h for h in range(1, len(word)) if word[h - 1] > word[h])


def major_index(word: Word) -> int:
    """Sum of the descent positions."""
    return sum(descent_set(word))


def iter_chains(shape: Shape, k: int) -> Iterator[Chain]:
    """Yield the k-step strictly increasing vertex chains of the shape.

    A chain runs from the origin to the full content vector; each step
    increases at least one coordinate and decreases none.  Chains are
    yielded in lexicographic order of their flattened vertex sequences.
    k outside 1..d yields nothing.

    One generator, no recursion: an explicit stack holds a frame per
    chosen vertex, so k may exceed the recursion limit.  The last
    internal vertex and the target are not chosen in Python: each vertex
    v has a memoised list of its (last internal vertex, target) pairs,
    and the chains through v are yielded by mapping the prefix's tuple
    concatenation over that list.  The successors of a vertex with a
    given number of steps left are filtered once, to those from which the
    target is still reachable, and memoised.  Both memos are local to the
    call.
    """
    target = shape.parts
    d = shape.size
    origin = (0,) * shape.letters
    if k < 1 or k > d:
        return
    if k == 1:
        yield (origin, target)
        return

    # (vertex, steps) -> [admissible vertex above it] in product order, and
    # vertex -> [(last internal vertex, target)] for the chains that end
    # two steps above it; at most k * prod(dj + 1) and prod(dj + 1)
    # entries, dropped with the generator
    successors: dict[tuple[Vector, int], list[Vector]] = {}
    completions: dict[Vector, list[tuple[Vector, Vector]]] = {}

    def above(current: Vector, steps: int) -> list[Vector]:
        out = successors.get((current, steps))
        if out is None:
            # the steps - 1 steps after this one each add at least one
            # element, so a successor holds at most `top` elements and no
            # coordinate grows by more than `room`
            top = d - steps + 1
            room = top - sum(current)
            ranges = [range(c, min(c + room, t) + 1) for c, t in zip(current, target)]
            # the product's first tuple is `current` itself
            candidates = itertools.islice(itertools.product(*ranges), 1, None)
            out = [nxt for nxt in candidates if sum(nxt) <= top]
            successors[(current, steps)] = out
        return out

    def finish(current: Vector) -> list[tuple[Vector, Vector]]:
        out = completions.get(current)
        if out is None:
            out = [(nxt, target) for nxt in above(current, 2)]
            completions[current] = out
        return out

    if k == 2:
        yield from map((origin,).__add__, finish(origin))
        return

    # Each frame is (prefix, iterator over the admissible successors of its
    # last vertex, steps from that vertex to the target).  Every successor
    # leads to at least one chain.  A frame three steps short picks the
    # vertex v before the last internal one and hands every chain through
    # v to `finish(v)`, joined at C level by map.
    stack = [((origin,), iter(above(origin, k)), k)]
    while stack:
        prefix, successors_left, steps = stack[-1]
        if steps == 3:
            stack.pop()
            for nxt in successors_left:
                yield from map((prefix + (nxt,)).__add__, finish(nxt))
            continue
        nxt = next(successors_left, None)
        if nxt is None:
            stack.pop()
        else:
            stack.append((prefix + (nxt,), iter(above(nxt, steps - 1)), steps - 1))


def iter_all_chains(shape: Shape) -> Iterator[Chain]:
    """Chains of every dimension k = 1..d, in increasing k."""
    for k in range(1, shape.size + 1):
        yield from iter_chains(shape, k)


# bounded memory: `verify --dmax 6 --nmax 6 --q` fills 63 entries, one per
# shape, each of at most 2^(d-1) classes, and the 255 shapes of a `--dmax 8`
# run still fit; `SuiteRun` clears it when a run starts.  Jobs run identity
# by identity, so a run over more than 256 shapes evicts each table before
# its next reader and gets no reuse: each reader groups the shape again.
@lru_cache(maxsize=256)
def chain_classes(shape: Shape) -> tuple[tuple[tuple[int, ...], Chain, int], ...]:
    """The shape's chains of every dimension, grouped by block sizes.

    One pass over `iter_all_chains`; each class is a triple (block sizes,
    first chain with them, number of chains with them), in the order the
    classes are first seen.  The block count is the length of the sizes
    and the major index is a function of them (see `chain_major_index`),
    so a class's count stands for every chain in it.  The pass keys each
    chain by its vertex totals, which run from 0 to d and determine the
    block sizes; the sizes are computed once per class.  The result is a
    tuple, so no caller can alter what a later one reads.
    """
    classes: dict[tuple[int, ...], list] = {}
    for chain in iter_all_chains(shape):
        totals = tuple(map(sum, chain))
        entry = classes.get(totals)
        if entry is None:
            classes[totals] = [chain, 1]
        else:
            entry[1] += 1
    return tuple(
        (chain_block_sizes(rep), rep, count) for rep, count in classes.values()
    )


def chain_major_index(chain: Chain) -> int:
    """Sum of coordinate totals over the internal vertices.

    With block sizes b_1, ..., b_k the internal totals are the partial sums
    S_j = b_1 + ... + b_j, so the major index is S_1 + ... + S_{k-1}
    (Stanley, *EC1* §3.15): it depends on the block sizes alone.
    """
    return sum(map(sum, chain[1:-1]))


def chain_block_sizes(chain: Chain) -> tuple[int, ...]:
    """Sizes of the successive difference blocks; they sum to d."""
    sizes = []
    prev = sum(chain[0])
    for v in chain[1:]:
        total = sum(v)
        sizes.append(total - prev)
        prev = total
    return tuple(sizes)


def word_prefix_contents(word: Word) -> tuple[Vector, ...]:
    """Letter content vectors of the word's prefixes, lengths 1..d."""
    letters = max(word) if word else 0
    acc = [0] * letters
    out = []
    for letter in word:
        acc[letter - 1] += 1
        out.append(tuple(acc))
    return tuple(out)


def format_word(word: Word) -> str:
    """Digit string when every letter fits one digit, else comma-separated."""
    if word and max(word) > 9:
        return ",".join(str(x) for x in word)
    return "".join(str(x) for x in word)


def format_chain(chain: Chain) -> str:
    """Semicolon-separated vertex vectors, e.g. "0,0;1,0;1,1"."""
    return ";".join(",".join(str(c) for c in v) for v in chain)


def iter_shapes(d_max: int, l_max: int | None = None) -> Iterator[Shape]:
    """All compositions with 1 <= d <= d_max and at most l_max parts.

    Ordered by total size d, then by number of parts, then
    lexicographically, so suite output is reproducible.
    """
    for d in range(1, d_max + 1):
        top = d if l_max is None else min(l_max, d)
        for parts in range(1, top + 1):
            # cut points in lexicographic order give the parts in it too
            for cuts in itertools.combinations(range(1, d), parts - 1):
                yield Shape(tuple(map(operator.sub, (*cuts, d), (0, *cuts))))
