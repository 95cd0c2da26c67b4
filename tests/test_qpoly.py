import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiset_eulerian.qpoly import (
    ONE,
    ZERO,
    QPolynomial,
    binomial,
    multinomial,
    q_binomial,
)
from oracles import brute_q_binomial_coeffs, remainder_mod_cyclotomic

polys = st.lists(st.integers(-9, 9), max_size=6).map(QPolynomial)


class TestBinomial:
    def test_matches_math_comb_in_range(self):
        for n in range(12):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_zero_outside_range(self):
        assert binomial(2, 3) == 0
        assert binomial(5, -1) == 0
        assert binomial(-1, 0) == 0

    def test_identity_edge_terms(self):
        # C(n - i + d, d) must vanish once i exceeds n
        assert binomial(0 - 1 + 3, 3) == 0
        assert binomial(1 - 1 + 3, 3) == 1


class TestMultinomial:
    def test_small_values(self):
        assert multinomial(()) == 1
        assert multinomial((2, 1)) == 3
        assert multinomial((1, 1, 1)) == 6
        assert multinomial((2, 2)) == 6
        assert multinomial((2, 2, 2, 2)) == 2520

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multinomial((1, -1))


class TestQBinomial:
    def test_frozen_examples(self):
        assert q_binomial(2, 1).coeffs == (1, 1)
        assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert q_binomial(3, 5) == ZERO
        assert q_binomial(0, 0) == ONE

    def test_against_lattice_oracle(self):
        for n in range(9):
            for k in range(n + 1):
                assert q_binomial(n, k).coeffs == brute_q_binomial_coeffs(n, k)

    def test_value_at_one_is_binomial(self):
        for n in range(21):
            for k in range(n + 2):
                assert q_binomial(n, k)(1) == binomial(n, k)

    def test_palindromic_nonnegative(self):
        for n in range(15):
            for k in range(n + 1):
                cs = q_binomial(n, k).coeffs
                assert all(c >= 0 for c in cs)
                assert cs == cs[::-1]

    def test_matches_recursive_reference(self):
        @lru_cache(maxsize=None)
        def reference(n, k):
            # the Pascal recurrence, read top down
            if k < 0 or n < 0 or k > n:
                return ZERO
            if k == 0 or k == n:
                return ONE
            return reference(n - 1, k - 1) + reference(n - 1, k).shift(k)

        for n in range(31):
            for k in range(-1, n + 2):
                assert q_binomial(n, k) == reference(n, k)

    def test_beyond_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        assert q_binomial(n, 1).coeffs == (1,) * n
        assert q_binomial(n, n - 1) == q_binomial(n, 1)

    def test_symmetry_in_k(self):
        for n in range(12):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_cyclic_sieving_on_subsets(self):
        # Reiner, Stanton and White: [n, k]_q at a primitive m-th root of
        # unity (m | n) counts the k-subsets of Z/n that rotating by n/m
        # places fixes
        for n in range(1, 13):
            for k in range(n + 1):
                subsets = [set(c) for c in itertools.combinations(range(n), k)]
                for m in range(1, n + 1):
                    if n % m:
                        continue
                    step = n // m
                    fixed = sum(1 for s in subsets if {(x + step) % n for x in s} == s)
                    rem = remainder_mod_cyclotomic(q_binomial(n, k), m)
                    assert rem == fixed, (n, k, m)


class TestQPolynomial:
    def test_canonical_form(self):
        assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPolynomial((0, 0)).coeffs == ()
        assert QPolynomial() == 0
        assert not QPolynomial()
        assert QPolynomial((5,)) == 5

    def test_degree(self):
        assert QPolynomial().degree == -1
        assert QPolynomial((1, 1)).degree == 1

    def test_arithmetic_examples(self):
        one_plus_q = QPolynomial((1, 1))
        assert one_plus_q * one_plus_q == QPolynomial((1, 2, 1))
        assert one_plus_q + 1 == QPolynomial((2, 1))
        assert one_plus_q - one_plus_q == ZERO
        assert 3 * one_plus_q == QPolynomial((3, 3))
        assert one_plus_q * 0 == ZERO
        assert -one_plus_q == QPolynomial((-1, -1))

    def test_shift(self):
        assert QPolynomial((1, 1)).shift(2).coeffs == (0, 0, 1, 1)
        assert ZERO.shift(3) == ZERO
        with pytest.raises(ValueError):
            QPolynomial((1,)).shift(-1)

    def test_evaluate(self):
        p = QPolynomial((1, 2, 1))
        assert p(1) == 4
        assert p(2) == 9
        assert p(0) == 1
        assert ZERO(7) == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: QPolynomial([2.9, 1]),
            lambda: QPolynomial([1, "3"]),
            lambda: QPolynomial([Fraction(1, 2)]),
            lambda: QPolynomial.monomial(2.5, 1),
            lambda: QPolynomial((1, 1))(0.5),
        ],
        ids=["float", "str", "fraction", "monomial", "evaluate"],
    )
    def test_coefficients_and_points_are_integers(self, make):
        # int() would take 2.9 as 2 and "3" as 3, and Horner's rule would
        # evaluate at 0.5 in floating point
        with pytest.raises(TypeError):
            make()

    def test_monomial_and_tally(self):
        assert QPolynomial.monomial(3, 2).coeffs == (0, 0, 3)
        assert QPolynomial.from_exponent_counts({0: 1, 2: 5}).coeffs == (1, 0, 5)
        assert QPolynomial.from_exponent_counts({}) == ZERO

    def test_serialization_round_trip(self):
        p = QPolynomial((1, -(10**40), 0, 7))
        strings = p.to_coeff_strings()
        assert strings == ["1", str(-(10**40)), "0", "7"]
        assert QPolynomial(map(int, strings)) == p
        assert ZERO.to_coeff_strings() == []

    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(QPolynomial((1, 3, 2))) == "1+3q+2q^2"
        assert str(QPolynomial((0, 1))) == "q"

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a

    @given(polys, polys, st.integers(-4, 4))
    def test_evaluation_is_ring_morphism(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)
