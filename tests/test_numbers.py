import math

import pytest

from multiset_eulerian.combinatorics import Shape, iter_permutations, iter_shapes
from multiset_eulerian.numbers import (
    a_polynomials,
    b_polynomials,
    c_polynomials,
    c_polynomials_closed,
    eulerian_row_closed,
    eulerian_row_enum,
    eulerian_row_solve,
    lah_row,
    stirling2_row_closed,
    stirling2_row_enum,
    stirling2_row_solve,
)
from multiset_eulerian.qpoly import QPolynomial, multinomial
from oracles import (
    EULERIAN_CLASSICAL,
    FUBINI,
    brute_eulerian_row,
    iter_chains_of_word,
    ordered_partition_count,
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
        assert stirling2_row_closed(Shape((1, 1)), "as-printed").value(2) == 7
        assert stirling2_row_closed(Shape((1, 1)), "corrected").value(2) == 2
        assert stirling2_row_closed(Shape((2, 1)), "as-printed").value(2) == 11
        assert stirling2_row_closed(Shape((2, 1)), "corrected").value(2) == 4

    def test_row_matches_partition_oracle(self):
        for shape in iter_shapes(5):
            row = stirling2_row_enum(shape)
            for k in range(1, shape.size + 1):
                assert row.value(k) == ordered_partition_count(shape.parts, k)

    def test_validation(self):
        with pytest.raises(IndexError):
            stirling2_row_closed(Shape((2, 1))).value(0)
        with pytest.raises(ValueError):
            stirling2_row_closed(Shape((2, 1)), "mystery")


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
        for shape in iter_shapes(6):
            assert c_polynomials(shape).values == c_polynomials_closed(shape).values

    def test_c_at_one_is_lah(self):
        for shape in iter_shapes(5):
            fam = c_polynomials(shape)
            row = lah_row(shape)
            for k in range(1, shape.size + 1):
                assert fam.value(k)(1) == row.value(k)
