import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    classify_points,
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


class TestSweep:
    def test_matches_point_by_point_oracles(self):
        # total and fibers equal those built from every enumerated point,
        # its brute-force key and a plain coordinate sum
        oracles = {"first": brute_classify_first, "second": brute_classify_second}
        for shape in iter_shapes(5):
            for n in range(4):
                for kind, oracle in oracles.items():
                    total = 0
                    fibers = {}
                    for point in iter_points(shape, n):
                        bucket = fibers.setdefault(oracle(point), {})
                        s = sum(v for xs in point for v in xs)
                        bucket[s] = bucket.get(s, 0) + 1
                        total += 1
                    assert classify_points(kind, shape, n) == (total, fibers)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_points("third", Shape((1,)), 1)
        with pytest.raises(ValueError):
            classify_points("first", Shape((1,)), -1)


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
