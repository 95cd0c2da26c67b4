import math
from collections import Counter

import pytest

from multiset_eulerian import numbers
from multiset_eulerian.combinatorics import (
    Shape,
    chain_major_index,
    iter_permutations,
    iter_shapes,
)
from multiset_eulerian.numbers import (
    a_polynomials,
    b_polynomials,
    c_polynomials,
    c_polynomials_closed,
    eulerian_row_closed,
    eulerian_row_enum,
    eulerian_row_solve,
    lah_row,
    stirling2_row_as_printed,
    stirling2_row_closed,
    stirling2_row_enum,
    stirling2_row_solve,
)
from multiset_eulerian.qpoly import ONE, ZERO, QPolynomial, multinomial
from oracles import (
    EULERIAN_CLASSICAL,
    FUBINI,
    brute_eulerian_row,
    inversions,
    iter_chains_of_word,
    ordered_partition_count,
    q_multinomial_coeffs,
    recursive_chains,
    remainder_mod_cyclotomic,
    stirling_second,
)


def test_row_first_index():
    # Eulerian rows start at descent count 0; partition rows and the
    # q-families at block count 1
    shape = Shape((2, 1))
    rows = {
        0: (eulerian_row_enum, eulerian_row_closed, eulerian_row_solve),
        1: (
            stirling2_row_enum,
            stirling2_row_closed,
            stirling2_row_solve,
            lah_row,
            a_polynomials,
            b_polynomials,
            c_polynomials,
            c_polynomials_closed,
        ),
    }
    for start, functions in rows.items():
        for function in functions:
            row = function(shape)
            assert row.start == start
            assert [row.value(i) for i in range(start, start + 3)] == list(row.values)
            # an index outside the row never wraps around to its other end
            for outside in (start - 1, start + 3):
                with pytest.raises(IndexError):
                    row.value(outside)
    assert stirling2_row_enum(shape).value(2) == 4
    assert eulerian_row_enum(shape).value(1) == 2


class TestEulerianRows:
    def test_frozen_rows(self):
        assert eulerian_row_enum(Shape((2, 1))).values == (1, 2, 0)
        assert eulerian_row_enum(Shape((2, 2))).values == (1, 4, 1, 0)
        assert eulerian_row_enum(Shape((5,))).values == (1, 0, 0, 0, 0)

    def test_classical_all_ones(self):
        for l, row in EULERIAN_CLASSICAL.items():
            assert eulerian_row_enum(Shape((1,) * l)).values == row

    def test_matches_dedup_oracle(self):
        for shape in iter_shapes(6):
            assert eulerian_row_enum(shape).values == brute_eulerian_row(shape.parts)

    def test_row_sum_is_multinomial(self):
        for shape in iter_shapes(7):
            row = eulerian_row_enum(shape)
            assert sum(row.values) == multinomial(shape.parts)
            assert len(row.values) == shape.size
            assert all(v >= 0 for v in row.values)

    def test_closed_examples(self):
        assert eulerian_row_closed(Shape((1, 1, 1))).value(1) == 4
        assert eulerian_row_closed(Shape((2, 1))).value(1) == 2
        for shape in iter_shapes(6):
            assert eulerian_row_closed(shape).value(0) == 1

    def test_closed_matches_enum(self):
        for shape in iter_shapes(6):
            assert eulerian_row_closed(shape).values == eulerian_row_enum(shape).values

    def test_validation(self):
        with pytest.raises(IndexError):
            eulerian_row_closed(Shape((2, 1))).value(3)
        with pytest.raises(IndexError):
            eulerian_row_closed(Shape((2, 1))).value(-1)
        with pytest.raises(ValueError):
            eulerian_row_enum(Shape(()))


class TestStirlingRows:
    def test_frozen_rows(self):
        assert stirling2_row_enum(Shape((1, 1))).values == (1, 2)
        assert stirling2_row_enum(Shape((2, 1))).values == (1, 4, 3)
        assert stirling2_row_enum(Shape((2,))).values == (1, 1)

    def test_all_ones_reduction(self):
        for l in range(1, 6):
            row = stirling2_row_enum(Shape((1,) * l))
            expected = tuple(
                math.factorial(k) * stirling_second(l, k) for k in range(1, l + 1)
            )
            assert row.values == expected
            assert sum(row.values) == FUBINI[l]

    def test_corrected_closed_matches_enum(self):
        for shape in iter_shapes(6):
            assert (
                stirling2_row_closed(shape).values
                == stirling2_row_enum(shape).values
            )

    def test_as_printed_discrepancy(self):
        assert stirling2_row_as_printed(Shape((1, 1))).value(2) == 7
        assert stirling2_row_closed(Shape((1, 1))).value(2) == 2
        assert stirling2_row_as_printed(Shape((2, 1))).value(2) == 11
        assert stirling2_row_closed(Shape((2, 1))).value(2) == 4

    def test_eulerian_stirling_transform(self):
        # an ordered partition into k blocks, each written in increasing
        # order, is a word cut at k - 1 positions that include its descents,
        # so S(k) = sum over i of E(i) * C(d - 1 - i, k - 1 - i)
        for shape in iter_shapes(7):
            d = shape.size
            eulerian = eulerian_row_enum(shape).values
            transform = tuple(
                sum(eulerian[i] * math.comb(d - 1 - i, k - 1 - i) for i in range(k))
                for k in range(1, d + 1)
            )
            assert stirling2_row_enum(shape).values == transform, shape

    def test_row_matches_partition_oracle(self):
        for shape in iter_shapes(5):
            row = stirling2_row_enum(shape)
            for k in range(1, shape.size + 1):
                assert row.value(k) == ordered_partition_count(shape.parts, k)

    def test_validation(self):
        with pytest.raises(IndexError):
            stirling2_row_closed(Shape((2, 1))).value(0)


class TestLahRows:
    def test_frozen_values(self):
        assert lah_row(Shape((1, 1, 1))).value(2) == 12
        assert lah_row(Shape((2, 1))).value(2) == 6
        assert lah_row(Shape((2, 1))).values == (3, 6, 3)

    def test_counts_cut_pairs(self):
        for shape in iter_shapes(5):
            row = lah_row(shape)
            for k in range(1, shape.size + 1):
                pairs = sum(
                    1
                    for word in iter_permutations(shape)
                    for _ in iter_chains_of_word(word, k)
                )
                assert pairs == row.value(k)

    def test_row_sum(self):
        for shape in iter_shapes(7):
            total = sum(lah_row(shape).values)
            assert total == multinomial(shape.parts) * 2 ** (shape.size - 1)


class TestSolve:
    def test_frozen_examples(self):
        assert eulerian_row_solve(Shape((2, 1))).values == (1, 2, 0)
        assert stirling2_row_solve(Shape((2, 1))).values == (1, 4, 3)
        assert stirling2_row_solve(Shape((1, 1))).values == (1, 2)

    def test_triple_agreement(self):
        for shape in iter_shapes(6):
            enum = eulerian_row_enum(shape).values
            assert eulerian_row_solve(shape).values == enum
            assert eulerian_row_closed(shape).values == enum
            senum = stirling2_row_enum(shape).values
            assert stirling2_row_solve(shape).values == senum
            assert stirling2_row_closed(shape).values == senum


class TestQFamilies:
    def test_a_frozen(self):
        fam = a_polynomials(Shape((1, 1)))
        assert fam.values == (QPolynomial((0, 1)), QPolynomial((1,)))
        fam = a_polynomials(Shape((2, 1)))
        assert fam.values == (
            QPolynomial(()),
            QPolynomial((0, 1, 1)),
            QPolynomial((1,)),
        )
        fam = a_polynomials(Shape((4,)))
        assert fam.values == (
            QPolynomial(()),
            QPolynomial(()),
            QPolynomial(()),
            QPolynomial((1,)),
        )

    def test_a_at_one_reverses_eulerian(self):
        for shape in iter_shapes(5):
            fam = a_polynomials(shape)
            row = eulerian_row_enum(shape)
            d = shape.size
            for i in range(1, d + 1):
                assert fam.value(i)(1) == row.values[d - i]

    def test_b_frozen(self):
        fam = b_polynomials(Shape((1, 1)))
        assert fam.values == (QPolynomial((1,)), QPolynomial((0, 2)))
        fam = b_polynomials(Shape((2, 1)))
        assert fam.values == (
            QPolynomial((1,)),
            QPolynomial((0, 2, 2)),
            QPolynomial((0, 0, 0, 3)),
        )

    def test_b_at_one_is_stirling(self):
        for shape in iter_shapes(5):
            fam = b_polynomials(shape)
            row = stirling2_row_enum(shape)
            for k in range(1, shape.size + 1):
                assert fam.value(k)(1) == row.value(k)

    def test_b_matches_per_chain_tally(self):
        # b_polynomials tallies one major index per block-size class; here
        # every chain of the reference enumerator is tallied on its own
        for shape in iter_shapes(6):
            expected = []
            for k in range(1, shape.size + 1):
                tally: dict[int, int] = {}
                for chain in recursive_chains(shape, k):
                    maj = chain_major_index(chain)
                    tally[maj] = tally.get(maj, 0) + 1
                expected.append(QPolynomial.from_exponent_counts(tally))
            assert b_polynomials(shape).values == tuple(expected), shape

    def test_b_at_one_is_closed_stirling(self):
        # the closed route shares no code with the chain enumeration; every
        # shape with d <= 7, and those with d = 8 and at most 3 parts (0.8
        # million chains; all of d <= 8 would be 9.7 million)
        for shape in iter_shapes(8):
            if shape.size == 8 and shape.letters > 3:
                continue
            at_one = tuple(p(1) for p in b_polynomials(shape).values)
            assert at_one == stirling2_row_closed(shape).values, shape

    def test_c_frozen(self):
        fam = c_polynomials(Shape((1, 1)))
        assert fam.values == (QPolynomial((2,)), QPolynomial((0, 2)))
        fam = c_polynomials(Shape((2, 1)))
        assert fam.values == (
            QPolynomial((3,)),
            QPolynomial((0, 3, 3)),
            QPolynomial((0, 0, 0, 3)),
        )

    def test_c_enum_matches_closed(self):
        for shape in iter_shapes(7):
            assert c_polynomials(shape).values == c_polynomials_closed(shape).values

    def test_c_matches_per_word_tally(self):
        # c_polynomials walks the cut sets once per class of prefix totals;
        # here every cut chain of every word is tallied on its own
        for shape in iter_shapes(6):
            expected = []
            for k in range(1, shape.size + 1):
                tally: dict[int, int] = {}
                for word in iter_permutations(shape):
                    for chain in iter_chains_of_word(word, k):
                        maj = chain_major_index(chain)
                        tally[maj] = tally.get(maj, 0) + 1
                expected.append(QPolynomial.from_exponent_counts(tally))
            assert c_polynomials(shape).values == tuple(expected), shape

    def test_c_reads_every_words_vertices(self, monkeypatch):
        # one word of 2,1 gets a perturbed first vertex; the enumeration
        # must see it, so it no longer equals the closed form
        original = numbers.word_prefix_contents

        def perturbed(word):
            prefixes = original(word)
            if word == (1, 2, 1):
                return ((2, 0),) + prefixes[1:]
            return prefixes

        monkeypatch.setattr(numbers, "word_prefix_contents", perturbed)
        shape = Shape((2, 1))
        assert c_polynomials(shape) != c_polynomials_closed(shape)

    def test_c_at_one_is_lah(self):
        for shape in iter_shapes(5):
            fam = c_polynomials(shape)
            row = lah_row(shape)
            for k in range(1, shape.size + 1):
                assert fam.value(k)(1) == row.value(k)


class TestIndependentQChecks:
    def test_cyclic_sieving_on_words(self):
        # Reiner, Stanton and White: the words' major-index polynomial, the
        # summed A row, takes at a primitive m-th root of unity (m | d) the
        # number of words that rotating by d/m places fixes
        for shape in iter_shapes(7):
            d = shape.size
            total = sum(a_polynomials(shape).values, ZERO)
            words = list(iter_permutations(shape))
            for m in range(1, d + 1):
                if d % m:
                    continue
                step = d // m
                fixed = sum(1 for w in words if w[step:] + w[:step] == w)
                assert remainder_mod_cyclotomic(total, m) == fixed, (shape, m)

    def test_q_binomial_theorem(self):
        # Andrews, ch. 3: cutting a word anywhere, the summed C row is the
        # multinomial times the product of (1 + q^i) over the d - 1 gaps,
        # with no Gaussian binomial involved
        for shape in iter_shapes(7):
            product = ONE
            for i in range(1, shape.size):
                product = product * (ONE + QPolynomial.monomial(1, i))
            total = sum(c_polynomials(shape).values, ZERO)
            assert total == product * multinomial(shape.parts), shape

    def test_macmahon_equidistribution(self):
        # MacMahon (Combinatory Analysis, 1915): over a shape's words the
        # major index, summed over the A row, and the inversion number share
        # one distribution, the q-multinomial coefficient
        for shape in iter_shapes(7):
            maj = sum(a_polynomials(shape).values, ZERO).coeffs
            inv = Counter(inversions(word) for word in iter_permutations(shape))
            tally = tuple(inv[e] for e in range(max(inv) + 1))
            assert maj == tally == q_multinomial_coeffs(shape.parts), shape
