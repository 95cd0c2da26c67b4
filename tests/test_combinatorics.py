import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiset_eulerian.combinatorics import (
    Shape,
    chain_block_sizes,
    chain_classes,
    chain_major_index,
    descent_set,
    format_chain,
    format_word,
    iter_all_chains,
    iter_chains,
    iter_permutations,
    iter_shapes,
    major_index,
    parse_int,
)
from multiset_eulerian.qpoly import binomial, multinomial
from oracles import (
    brute_chains,
    compositions_by_bitmask,
    iter_chains_of_word,
    multiset_words,
    ordered_partition_count,
    recursive_chains,
)


class TestShape:
    def test_zero_parts_dropped(self):
        assert Shape((2, 0, 1)).parts == (2, 1)

    def test_size_and_letters(self):
        s = Shape((2, 1))
        assert s.size == 3
        assert s.letters == 2

    def test_empty_shape_rejected(self):
        for build in (
            lambda: Shape(()),
            lambda: Shape((0, 0)),
            lambda: Shape.parse("0"),
            lambda: Shape.parse("0,0"),
        ):
            with pytest.raises(ValueError, match="d >= 1"):
                build()

    def test_parse_and_str(self):
        assert Shape.parse("2,1") == Shape((2, 1))
        assert str(Shape((2, 1))) == "2,1"
        with pytest.raises(ValueError):
            Shape.parse("2,x")
        with pytest.raises(ValueError):
            Shape((-1, 2))

    @pytest.mark.parametrize("parts", [(2.9,), ("1_0",), (2, 1.0)])
    def test_parts_must_be_integers(self, parts):
        # int() would take 2.9 as 2 and "1_0" as 10, around parse_int
        with pytest.raises(TypeError):
            Shape(parts)

    def test_hashable(self):
        assert Shape((2, 0, 1)) == Shape((2, 1))
        assert len({Shape((2, 1)), Shape((2, 0, 1))}) == 1

    @pytest.mark.parametrize("text", ["1_0", "\u0661", "3,,2", "+1", "2,"])
    def test_parse_takes_ascii_decimal_tokens_only(self, text):
        with pytest.raises(ValueError, match="malformed shape"):
            Shape.parse(text)


class TestParseInt:
    @pytest.mark.parametrize(
        "token, value", [("7", 7), (" 12\t", 12), ("-3", -3), ("007", 7)]
    )
    def test_served(self, token, value):
        assert parse_int(token) == value

    @pytest.mark.parametrize(
        "token", ["", " ", "-", "+1", "--1", "- 1", "1_0", "\u0661", "1.0", "0x1"]
    )
    def test_rejected(self, token):
        # int() takes "+1", "1_0" and the Arabic-Indic digit one
        with pytest.raises(ValueError):
            parse_int(token)


class TestPermutations:
    def test_exact_listing(self):
        assert list(iter_permutations(Shape((2, 1)))) == [
            (1, 1, 2),
            (1, 2, 1),
            (2, 1, 1),
        ]
        assert list(iter_permutations(Shape((3,)))) == [(1, 1, 1)]

    def test_matches_dedup_oracle(self):
        for shape in iter_shapes(6):
            words = list(iter_permutations(shape))
            assert len(words) == multinomial(shape.parts)
            assert words == sorted(words)
            assert set(words) == multiset_words(shape.parts)

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    def test_count_is_multinomial(self, parts):
        shape = Shape(tuple(parts))
        assert sum(1 for _ in iter_permutations(shape)) == multinomial(shape.parts)

    def test_descents_and_major_index(self):
        assert descent_set((1, 1, 2)) == ()
        assert descent_set((1, 2, 1)) == (2,)
        assert descent_set((2, 1, 1)) == (1,)
        assert descent_set((2, 1, 2, 1)) == (1, 3)
        assert major_index((2, 1, 2, 1)) == 4
        assert major_index(()) == 0


class TestChains:
    def test_exact_small_listings(self):
        assert list(iter_chains(Shape((1, 1)), 1)) == [((0, 0), (1, 1))]
        assert list(iter_chains(Shape((1, 1)), 2)) == [
            ((0, 0), (0, 1), (1, 1)),
            ((0, 0), (1, 0), (1, 1)),
        ]
        chains = set(iter_chains(Shape((2, 1)), 3))
        assert chains == {
            ((0, 0), (0, 1), (1, 1), (2, 1)),
            ((0, 0), (1, 0), (1, 1), (2, 1)),
            ((0, 0), (1, 0), (2, 0), (2, 1)),
        }

    def test_out_of_range_k(self):
        assert list(iter_chains(Shape((2, 1)), 0)) == []
        assert list(iter_chains(Shape((2, 1)), 4)) == []

    def test_lexicographic_order(self):
        for shape in (Shape((2, 1)), Shape((2, 2)), Shape((1, 1, 1))):
            for k in range(1, shape.size + 1):
                chains = list(iter_chains(shape, k))
                flattened = [tuple(c for v in ch for c in v) for ch in chains]
                assert flattened == sorted(flattened)
                assert len(set(chains)) == len(chains)

    def test_against_subset_oracle(self):
        # content and order: the oracle's chains sorted by flattened vertices
        for shape in iter_shapes(4):
            for k in range(1, shape.size + 1):
                expected = sorted(
                    brute_chains(shape.parts, k),
                    key=lambda ch: tuple(c for v in ch for c in v),
                )
                assert list(iter_chains(shape, k)) == expected

    def test_matches_recursive_reference(self):
        # same chains in the same order, out-of-range k included
        for shape in iter_shapes(7):
            for k in range(shape.size + 2):
                expected = list(recursive_chains(shape, k))
                assert list(iter_chains(shape, k)) == expected, (shape, k)

    def test_beyond_the_recursion_limit(self):
        m = sys.getrecursionlimit() + 100
        assert list(iter_chains(Shape((m,)), m)) == [
            tuple((i,) for i in range(m + 1))
        ]

    def test_counts_match_partition_oracle(self):
        for shape in iter_shapes(5):
            for k in range(1, shape.size + 1):
                count = sum(1 for _ in iter_chains(shape, k))
                assert count == ordered_partition_count(shape.parts, k)

    def test_statistics(self):
        chain = ((0, 0), (1, 0), (1, 1), (2, 1))
        assert chain_major_index(chain) == 3
        assert chain_block_sizes(chain) == (1, 1, 1)
        diag = ((0, 0), (1, 1))
        assert chain_major_index(diag) == 0
        assert chain_block_sizes(diag) == (2,)


def _block_sizes(chain):
    # differences of the vertex totals, computed here rather than by the
    # package
    totals = [sum(v) for v in chain]
    return tuple(b - a for a, b in zip(totals, totals[1:]))


class TestChainClasses:
    def test_groups_the_reference_chains_by_block_sizes(self):
        # classes in first-seen order, each with its first chain and count
        for shape in iter_shapes(6):
            expected: dict = {}
            for k in range(1, shape.size + 1):
                for chain in recursive_chains(shape, k):
                    entry = expected.setdefault(_block_sizes(chain), [chain, 0])
                    entry[1] += 1
            classes = chain_classes(shape)
            assert [(s, [r, c]) for s, r, c in classes] == list(expected.items())
            for sizes, rep, _ in classes:
                assert _block_sizes(rep) == chain_block_sizes(rep) == sizes

    def test_counts_per_block_count_match_partition_oracle(self):
        for shape in iter_shapes(6):
            totals = [0] * shape.size
            for sizes, _, count in chain_classes(shape):
                totals[len(sizes) - 1] += count
            expected = [
                ordered_partition_count(shape.parts, k)
                for k in range(1, shape.size + 1)
            ]
            assert totals == expected, shape

    def test_result_is_immutable(self):
        classes = chain_classes(Shape((2, 1)))
        assert isinstance(classes, tuple)
        assert all(isinstance(c, tuple) for c in classes)
        assert classes == (
            ((3,), ((0, 0), (2, 1)), 1),
            ((1, 2), ((0, 0), (0, 1), (2, 1)), 2),
            ((2, 1), ((0, 0), (1, 1), (2, 1)), 2),
            ((1, 1, 1), ((0, 0), (0, 1), (1, 1), (2, 1)), 3),
        )

    def test_major_index_is_a_partial_sum_of_block_sizes(self):
        # the fact the regrouping relies on: maj = S_1 + ... + S_{k-1}
        for shape in iter_shapes(6):
            for k in range(1, shape.size + 1):
                for chain in recursive_chains(shape, k):
                    partial = list(itertools.accumulate(_block_sizes(chain)))
                    assert chain_major_index(chain) == sum(partial[:-1]), chain


class TestChainsOfWord:
    def test_exact_listing(self):
        assert list(iter_chains_of_word((1, 2), 2)) == [((0, 0), (1, 0), (1, 1))]
        assert list(iter_chains_of_word((2, 1, 1), 2)) == [
            ((0, 0), (0, 1), (2, 1)),
            ((0, 0), (1, 1), (2, 1)),
        ]
        assert list(iter_chains_of_word((1, 2), 3)) == []

    def test_counts_and_membership(self):
        for shape in iter_shapes(5):
            all_chains = {
                k: set(iter_chains(shape, k)) for k in range(1, shape.size + 1)
            }
            for word in iter_permutations(shape):
                for k in range(1, shape.size + 1):
                    cut = list(iter_chains_of_word(word, k))
                    assert len(cut) == binomial(shape.size - 1, k - 1)
                    assert set(cut) <= all_chains[k]


class TestFormatting:
    def test_word_forms(self):
        assert format_word((2, 1, 1)) == "211"
        assert format_word(()) == ""
        wide = tuple(range(1, 11))
        assert format_word(wide) == "1,2,3,4,5,6,7,8,9,10"

    def test_chain_form(self):
        assert format_chain(((0, 0), (1, 0), (1, 1))) == "0,0;1,0;1,1"


class TestIterShapes:
    def test_order_snapshot(self):
        got = [s.parts for s in iter_shapes(3)]
        assert got == [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)]

    @pytest.mark.parametrize("l_max", [None, 1, 2, 3, 5])
    def test_matches_bitmask_oracle(self, l_max):
        got = [s.parts for s in iter_shapes(12, l_max)]
        assert got == compositions_by_bitmask(12, l_max)

    def test_l_max_filter(self):
        assert all(s.letters <= 2 for s in iter_shapes(5, 2))
        count = sum(1 for _ in iter_shapes(8, 4))
        expected = sum(
            binomial(d - 1, l - 1) for d in range(1, 9) for l in range(1, 5)
        )
        assert count == expected
