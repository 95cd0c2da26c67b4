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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

Word = tuple[int, ...]
Vector = tuple[int, ...]
Chain = tuple[Vector, ...]
Blocks = tuple[Vector, ...]


@dataclass(frozen=True)
class Shape:
    """Composition (d1, ..., dl); zero parts are dropped on construction."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(int(p) for p in self.parts)
        if any(p < 0 for p in cleaned):
            raise ValueError("shape parts must be nonnegative")
        object.__setattr__(self, "parts", tuple(p for p in cleaned if p > 0))

    @classmethod
    def parse(cls, text: str) -> "Shape":
        """Parse a comma-separated shape such as "2,1"."""
        try:
            parts = tuple(int(tok) for tok in text.split(","))
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


def iter_permutations(shape: Shape) -> Iterator[Word]:
    """Yield every word with the shape's letter counts, lexicographically.

    The empty shape yields the single empty word.
    """
    counts = list(shape.parts)
    d = shape.size
    word: list[int] = []

    def rec() -> Iterator[Word]:
        if len(word) == d:
            yield tuple(word)
            return
        for j in range(len(counts)):
            if counts[j]:
                counts[j] -= 1
                word.append(j + 1)
                yield from rec()
                word.pop()
                counts[j] += 1

    yield from rec()


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


def iter_all_chains(shape: Shape) -> Iterator[Chain]:
    """Chains of every dimension k = 1..d, in increasing k."""
    for k in range(1, shape.size + 1):
        yield from iter_chains(shape, k)


def chain_major_index(chain: Chain) -> int:
    """Sum of coordinate totals over the internal vertices."""
    return sum(sum(v) for v in chain[1:-1])


def chain_block_sizes(chain: Chain) -> tuple[int, ...]:
    """Sizes of the successive difference blocks; they sum to d."""
    sizes = []
    prev = sum(chain[0])
    for v in chain[1:]:
        total = sum(v)
        sizes.append(total - prev)
        prev = total
    return tuple(sizes)


def chain_to_partition(chain: Chain) -> Blocks:
    """Successive difference vectors: the ordered multiset partition."""
    return tuple(
        tuple(bj - aj for aj, bj in zip(a, b)) for a, b in zip(chain, chain[1:])
    )


def partition_to_chain(blocks: Blocks) -> Chain:
    """Inverse of :func:`chain_to_partition` via partial sums."""
    if not blocks:
        raise ValueError("need at least one block")
    acc = [0] * len(blocks[0])
    chain = [tuple(acc)]
    for block in blocks:
        for j, b in enumerate(block):
            acc[j] += b
        chain.append(tuple(acc))
    return tuple(chain)


def word_prefix_contents(word: Word) -> tuple[Vector, ...]:
    """Letter content vectors of the word's prefixes, lengths 1..d."""
    letters = max(word) if word else 0
    acc = [0] * letters
    out = []
    for letter in word:
        acc[letter - 1] += 1
        out.append(tuple(acc))
    return tuple(out)


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
            for comp in _compositions(d, parts):
                yield Shape(comp)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
