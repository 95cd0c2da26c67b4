import bisect
import inspect
import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiset_eulerian import lattice
from multiset_eulerian.combinatorics import (
    Shape,
    chain_block_sizes,
    descent_set,
    iter_all_chains,
    iter_permutations,
    iter_shapes,
    major_index,
)
from multiset_eulerian.lattice import (
    chain_region_count,
    chain_weight_sum,
    classify_first,
    classify_new_points,
    classify_second,
    coordinate_sum,
    f1,
    f2,
    iter_points,
    point_count,
    region_gf,
    region_point_count,
    validate_point,
)
from multiset_eulerian.qpoly import QPolynomial, binomial, multinomial, q_binomial
from oracles import (
    brute_classify_first,
    brute_classify_second,
    f1_enumerated,
    f2_enumerated,
    in_closed_simplex,
    in_region,
    weakly_decreasing_tuples,
)


class TestPoints:
    def test_listing_single_factor(self):
        pts = list(iter_points(Shape((2,)), 1))
        assert pts == [((0, 0),), ((1, 0),), ((1, 1),)]

    def test_listing_two_factors(self):
        pts = list(iter_points(Shape((1, 1)), 1))
        assert pts == [
            ((0,), (0,)),
            ((0,), (1,)),
            ((1,), (0,)),
            ((1,), (1,)),
        ]

    def test_count_matches_closed_form(self):
        for shape in iter_shapes(5):
            for n in range(4):
                pts = list(iter_points(shape, n))
                assert len(pts) == point_count(shape, n)
                assert len(set(pts)) == len(pts)

    def test_matches_oracle_tuples(self):
        shape = Shape((3, 2))
        n = 3
        expected = set(
            itertools.product(
                weakly_decreasing_tuples(3, n), weakly_decreasing_tuples(2, n)
            )
        )
        assert set(iter_points(shape, n)) == expected

    def test_validate_point(self):
        shape = Shape((2, 1))
        validate_point(((2, 1), (1,)), shape, 2)
        with pytest.raises(ValueError):
            validate_point(((1, 2), (0,)), shape, 2)  # not weakly decreasing
        with pytest.raises(ValueError):
            validate_point(((3, 1), (0,)), shape, 2)  # exceeds bound
        with pytest.raises(ValueError):
            validate_point(((1, 0), (-1,)), shape, 2)  # negative entry
        with pytest.raises(ValueError):
            validate_point(((1, 0),), shape, 2)  # wrong arity
        with pytest.raises(ValueError):
            validate_point(((1,), (0,)), shape, 2)  # wrong factor length


class TestClassifyFirst:
    def test_example_two_letters(self):
        assert classify_first(((1,), (0,))) == (1, 2)
        assert classify_first(((0,), (1,))) == (2, 1)

    def test_ties_use_letter_then_slot(self):
        assert classify_first(((1, 0),)) == (1, 1)
        assert classify_first(((1,), (1,))) == (1, 2)

    def test_fiber_sizes_match_region_counts(self):
        for shape in iter_shapes(4):
            for n in range(4):
                tallies = {}
                for point in iter_points(shape, n):
                    word = classify_first(point)
                    tallies[word] = tallies.get(word, 0) + 1
                for word in iter_permutations(shape):
                    assert tallies.pop(word, 0) == region_point_count(word, n)
                assert not tallies

    def test_membership_agrees(self):
        for shape in iter_shapes(4):
            words = list(iter_permutations(shape))
            for n in range(4):
                for point in iter_points(shape, n):
                    word = classify_first(point)
                    assert in_region(point, word, n)
                    assert sum(1 for w in words if in_region(point, w, n)) == 1


class TestClassifySecond:
    def test_example(self):
        chain = classify_second(((2, 1), (1,)))
        assert chain == ((0, 0), (1, 0), (2, 1))
        assert chain_block_sizes(chain) == (1, 2)

    def test_single_value(self):
        assert classify_second(((1, 1),)) == ((0,), (2,))

    def test_origin_gives_one_block(self):
        assert classify_second(((0, 0), (0,))) == ((0, 0), (2, 1))

    def test_fiber_sizes_match_chain_counts(self):
        for shape in iter_shapes(4):
            for n in range(4):
                tallies = {}
                for point in iter_points(shape, n):
                    chain = classify_second(point)
                    tallies[chain] = tallies.get(chain, 0) + 1
                for chain in iter_all_chains(shape):
                    k = len(chain) - 1
                    assert tallies.pop(chain, 0) == chain_region_count(k, n)
                assert not tallies


class TestClassifierOracles:
    def test_every_point_small_shapes(self):
        for shape in iter_shapes(5):
            for n in range(4):
                factors = [weakly_decreasing_tuples(p, n) for p in shape.parts]
                for point in itertools.product(*factors):
                    assert classify_first(point) == brute_classify_first(point)
                    assert classify_second(point) == brute_classify_second(point)

    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_points_with_ties(self, factors):
        # values in 0..3 over up to 16 coordinates tie across letters often
        point = tuple(tuple(sorted(xs, reverse=True)) for xs in factors)
        assert classify_first(point) == brute_classify_first(point)
        assert classify_second(point) == brute_classify_second(point)

    def test_empty_point(self):
        assert classify_first(()) == brute_classify_first(()) == ()
        assert classify_second(()) == brute_classify_second(()) == ((),)

    def test_huge_values(self):
        # a coordinate's code grows with the largest value, its tables do not
        point = ((10**18, 10**18, 0), (7,), (10**18 - 1,))
        assert classify_first(point) == brute_classify_first(point)
        assert classify_second(point) == brute_classify_second(point)


_ORACLES = {"first": brute_classify_first, "second": brute_classify_second}


def _oracle_table(kind, shape, n, new_only):
    """Point count and fiber table of level n from the enumerated points,
    their brute-force keys and a plain coordinate sum; with `new_only`,
    only the points whose largest coordinate is n."""
    count = 0
    fibers = {}
    for point in iter_points(shape, n):
        values = [v for xs in point for v in xs]
        if new_only and max(values) != n:
            continue
        bucket = fibers.setdefault(_ORACLES[kind](point), {})
        s = sum(values)
        bucket[s] = bucket.get(s, 0) + 1
        count += 1
    return count, fibers


def _check_levels(kind, shape, n_max):
    # each level alone, tallied into an empty table with its own row memo,
    # holds the points whose largest coordinate is n
    for n in range(n_max + 1):
        table = {}
        new = classify_new_points(kind, shape, n, table, {})
        assert (new, table) == _oracle_table(kind, shape, n, new_only=True)


def _check_running(kind, shape, n_max):
    # the levels tallied into one running table, with one row memo kept
    # for the whole job, leave after level n the table of every point of
    # level n
    fibers = {}
    rows = {}
    total = 0
    for n in range(n_max + 1):
        new = classify_new_points(kind, shape, n, fibers, rows)
        # point_count(shape, -1) is 0: level 0 is all new
        assert new == point_count(shape, n) - point_count(shape, n - 1)
        total += new
        assert (total, fibers) == _oracle_table(kind, shape, n, new_only=False)


def _one_place_early(places, c):
    return max(bisect.bisect(places, c) - 1, 0)


def _joins_as_new(places, c):
    r = bisect.bisect(places, c)
    return r + r % 2


_ROW_VERTICES = lattice._row_vertices


def _next_letter_step(pattern, step, vertices):
    # the step of the letter after j, never j's own
    return _ROW_VERTICES(pattern, step * vertices.radix, vertices)


def _first_letter_step(pattern, step, vertices):
    # the step of letter 1, j's own where j is letter 1
    return _ROW_VERTICES(pattern, 1, vertices)


def _swapped(pattern, step, vertices):
    return _ROW_VERTICES(pattern, step, vertices)[::-1]


def _but(passed):
    """Every shape with d <= 5 but those in `passed`."""
    return [s.parts for s in iter_shapes(5) if s.parts not in passed]


# the shapes with d <= 5 whose leaf letter, the last one with the fewest
# copies, is letter 1
_LEAF_FIRST = [(1,), (2,), (3,), (4,), (5,), (1, 2), (1, 3), (1, 4), (2, 3), (1, 2, 2)]


class TestSweep:
    def test_matches_point_by_point_oracles(self):
        for shape in iter_shapes(5):
            for kind in _ORACLES:
                _check_levels(kind, shape, 3)

    def test_running_table_equals_full_sweep(self):
        for shape in iter_shapes(5):
            for kind in _ORACLES:
                _check_running(kind, shape, 4)

    def test_running_table_on_every_shape_to_size_six(self):
        # the leaf letter first, in the middle and last, with one copy or
        # more, among up to six letters
        for shape in iter_shapes(6):
            for kind in _ORACLES:
                _check_running(kind, shape, 2)

    @pytest.mark.parametrize("kind", list(_ORACLES))
    @pytest.mark.parametrize(
        "parts, n_max",
        [
            ((2, 1), 10),  # values up to 10, several codes per value
            ((3,), 10),
            ((1,) * 10, 1),  # ten and eleven letters
            ((1,) * 11, 1),
            ((5, 1), 4),  # a content digit above the letter count
            ((1, 5), 4),
            ((1, 2), 10),  # a single-copy letter first, then in the middle,
            ((2, 1, 2), 6),  # inserted among many distinct values
            ((3, 2, 3), 2),  # the leaf letter in the middle, with two copies
            ((4, 4), 3),  # a leaf tied with a head copy of its letter
            ((2, 2, 2), 3),
            ((6,), 6),
        ],
    )
    def test_integer_codes_at_their_edges(self, kind, parts, n_max):
        _check_levels(kind, Shape(parts), n_max)
        _check_running(kind, Shape(parts), n_max)

    @pytest.mark.parametrize(
        "fault, kind, caught, passed",
        [
            # the leaf one place early, in its parent's word or among its
            # parent's value blocks; in a word of (3,) every letter is 1
            pytest.param(
                _one_place_early,
                "first",
                [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2)],
                [(3,)],
                id="one_place_early-first",
            ),
            pytest.param(
                _one_place_early,
                "second",
                [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2), (3,)],
                [],
                id="one_place_early-second",
            ),
            # a new block opened after the value block the leaf should join
            pytest.param(
                _joins_as_new,
                "second",
                [(1, 1), (2, 1), (1, 2, 2), (3,)],
                [],
                id="joins_as_new-second",
            ),
            # the leaf placed before a head copy of its letter that it ties
            # with, not after it: the same word, and still inside its block
            *(
                pytest.param(
                    bisect.bisect_left,
                    kind,
                    [],
                    [shape.parts for shape in iter_shapes(5)],
                    id=f"bisect_left-{kind}",
                )
                for kind in _ORACLES
            ),
        ],
    )
    def test_planted_bisect_fault(self, monkeypatch, fault, kind, caught, passed):
        monkeypatch.setattr(lattice, "bisect", fault)
        for parts in caught:
            with pytest.raises(AssertionError):
                _check_levels(kind, Shape(parts), 3)
        for parts in passed:  # the fault is equivalent on these shapes
            _check_levels(kind, Shape(parts), 3)

    @pytest.mark.parametrize(
        "fault, caught, passed",
        [
            # W, a second-kind row's vertices with one more copy of the leaf
            # letter j, built with another letter's step
            pytest.param(_next_letter_step, _but([]), [], id="next_letter_step"),
            pytest.param(
                _first_letter_step,
                _but(_LEAF_FIRST),
                _LEAF_FIRST,
                id="first_letter_step",
            ),
            # each key then reads W up to j's block and V after it
            pytest.param(_swapped, _but([]), [], id="v_w_swapped"),
        ],
    )
    def test_planted_key_fault(self, monkeypatch, fault, caught, passed):
        monkeypatch.setattr(lattice, "_row_vertices", fault)
        for parts in caught:
            with pytest.raises(AssertionError):
                _check_levels("second", Shape(parts), 3)
        for parts in passed:  # the fault is equivalent on these shapes
            _check_levels("second", Shape(parts), 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_new_points("third", Shape((1,)), 1, {}, {})
        with pytest.raises(ValueError):
            classify_new_points("first", Shape((1,)), -1, {}, {})


class TestRegionWeights:
    def test_region_gf_examples(self):
        assert descent_set((2, 1)) == (1,)
        assert region_gf((2, 1), 1) == QPolynomial((0, 1))
        assert region_gf((1, 2), 1) == q_binomial(3, 2)

    def test_region_gf_matches_enumeration(self):
        for shape in iter_shapes(4):
            for n in range(4):
                for word in iter_permutations(shape):
                    total = QPolynomial(())
                    for point in iter_points(shape, n):
                        if in_region(point, word, n):
                            total = total + QPolynomial.monomial(
                                1, coordinate_sum(point)
                            )
                    assert total == region_gf(word, n)

    def test_region_count_is_gf_at_one(self):
        for shape in iter_shapes(4):
            for word in iter_permutations(shape):
                for n in range(4):
                    assert region_gf(word, n)(1) == region_point_count(word, n)

    def test_maj_is_lowest_degree(self):
        for shape in iter_shapes(4):
            for word in iter_permutations(shape):
                gf = region_gf(word, 3)
                low = next(i for i, c in enumerate(gf.coeffs) if c)
                assert low == major_index(word)


class TestChainWeights:
    def test_diagonal_example(self):
        chain = ((0, 0), (1, 1))
        assert chain_weight_sum(chain, 1) == QPolynomial((1, 0, 1))

    def test_unit_blocks_give_shifted_gaussian(self):
        for shape in iter_shapes(5):
            for chain in iter_all_chains(shape):
                sizes = chain_block_sizes(chain)
                if any(s != 1 for s in sizes):
                    continue
                k = len(sizes)
                for n in range(5):
                    expected = q_binomial(n + 1, k).shift(k * (k - 1) // 2)
                    assert chain_weight_sum(chain, n) == expected

    def test_merged_block_breaks_gaussian_form(self):
        chain = ((0, 0), (1, 1))  # one block of size 2
        assert chain_weight_sum(chain, 1) != q_binomial(2, 1)

    def test_chain_longer_than_recursion_limit(self):
        # the one-letter chain 0 < 1 < ... < 150 has 150 blocks of size 1;
        # at n = 149 its values are forced to 149, 148, ..., 0
        chain = tuple((i,) for i in range(151))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            weight = chain_weight_sum(chain, 149)
        finally:
            sys.setrecursionlimit(limit)
        assert weight == QPolynomial.monomial(1, 150 * 149 // 2)

    def test_at_one_is_region_count(self):
        for shape in iter_shapes(5):
            for chain in iter_all_chains(shape):
                k = len(chain) - 1
                for n in range(5):
                    assert chain_weight_sum(chain, n)(1) == chain_region_count(k, n)

    def test_matches_enumeration(self):
        for shape in iter_shapes(4):
            for n in range(4):
                tallies = {}
                for point in iter_points(shape, n):
                    chain = classify_second(point)
                    poly = tallies.get(chain, QPolynomial(()))
                    tallies[chain] = poly + QPolynomial.monomial(
                        1, coordinate_sum(point)
                    )
                for chain, poly in tallies.items():
                    assert poly == chain_weight_sum(chain, n)


class TestGeneratingFunctions:
    def test_f1_closed_matches_enumeration(self):
        for shape in iter_shapes(4):
            for n in range(4):
                assert f1(shape, n) == f1_enumerated(shape, n)

    def test_f2_closed_matches_enumeration(self):
        for shape in iter_shapes(4):
            for n in range(3):
                assert f2(shape, n) == f2_enumerated(shape, n)

    def test_f1_at_one(self):
        for shape in iter_shapes(5):
            for n in range(5):
                assert f1(shape, n)(1) == point_count(shape, n)

    def test_f2_enumerated_at_one(self):
        for shape in iter_shapes(4):
            for n in range(3):
                d = shape.size
                expected = multinomial(shape.parts) * binomial(n + d, d)
                assert f2_enumerated(shape, n)(1) == expected


class TestMembership:
    def test_half_open_vs_closed(self):
        point = ((0,), (1,))
        assert in_region(point, (2, 1), 1)
        assert not in_region(point, (1, 2), 1)
        assert in_closed_simplex(point, (2, 1), 1)
        assert not in_closed_simplex(point, (1, 2), 1)

    def test_boundary_point_shared_by_closed_simplices(self):
        point = ((1,), (1,))
        assert in_closed_simplex(point, (1, 2), 1)
        assert in_closed_simplex(point, (2, 1), 1)
        assert in_region(point, (1, 2), 1)
        assert not in_region(point, (2, 1), 1)

    def test_regions_partition_dilation(self):
        shape = Shape((2, 2))
        n = 2
        words = list(iter_permutations(shape))
        for point in iter_points(shape, n):
            holders = [w for w in words if in_region(point, w, n)]
            assert len(holders) == 1
            assert all(in_closed_simplex(point, w, n) for w in holders)
