"""Exact integer and q-polynomial arithmetic.

Every quantity in this package is either an integer or a polynomial in q
with integer coefficients, and every computation is exact: there is no
floating point and no rational division anywhere.  Python integers are
already arbitrary precision, so the integer side reduces to the binomial
helpers below; :class:`QPolynomial` supplies the polynomial side.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero outside 0 <= k <= n.

    The zero convention matters: identity right-hand sides rely on terms
    like C(x + 1, k) vanishing when x + 1 < k.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """Number of distinct words with the given letter multiplicities.

    Computed as a product of binomials, so the result is assembled
    without any division.
    """
    total = 0
    out = 1
    for p in parts:
        if p < 0:
            raise ValueError("multiplicities must be nonnegative")
        total += p
        out *= math.comb(total, p)
    return out


class QPolynomial:
    """Dense polynomial in q with integer coefficients.

    Coefficients are stored in ascending powers of q.  The representation
    is canonical: no trailing zeros, with the zero polynomial stored as
    the empty tuple, so ``==`` is structural equality.  Instances are
    immutable by convention and hashable.  Comparison against a plain
    ``int`` treats the int as a constant polynomial.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "QPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c: int, power: int) -> "QPolynomial":
        """The polynomial c * q**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (c,))

    @classmethod
    def from_exponent_counts(cls, tally: Mapping[int, int]) -> "QPolynomial":
        """Build a polynomial from an exponent -> coefficient mapping."""
        if not tally:
            return cls()
        coeffs = [0] * (max(tally) + 1)
        for exponent, count in tally.items():
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            coeffs[exponent] = count
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Degree in q; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            if other == 0:
                return not self.coeffs
            return self.coeffs == (other,)
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like the ints they equal
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            other = QPolynomial((other,))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            other = QPolynomial((other,))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return (-self) + other

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            if other == 0 or not self.coeffs:
                return QPolynomial()
            return QPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPolynomial(out)

    __rmul__ = __mul__

    def shift(self, power: int) -> "QPolynomial":
        """Multiply by q**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        if not self.coeffs:
            return self
        return QPolynomial((0,) * power + self.coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner, exact)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def to_coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, ascending degree."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Iterable[str]) -> "QPolynomial":
        return cls(int(s) for s in items)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else str(c)
                terms.append(f"{head}q" if e == 1 else f"{head}q^{e}")
        text = "+".join(terms)
        return text.replace("+-", "-")


ZERO = QPolynomial()
ONE = QPolynomial((1,))


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial [n, k]_q as an integer polynomial.

    Built from the Pascal-style recurrence
    ``[n, k] = [n-1, k-1] + q**k * [n-1, k]`` so the whole computation
    stays inside integer polynomials.  Out-of-range arguments give the
    zero polynomial, matching :func:`binomial`.  The result counts
    weakly decreasing k-tuples bounded by n - k, graded by entry sum, so
    its coefficients are nonnegative and palindromic, and evaluating at
    q = 1 gives C(n, k).
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
