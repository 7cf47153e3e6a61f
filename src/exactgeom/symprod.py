"""Intersection numbers on a symmetric product of a curve.

Classes on the d-th symmetric product X^(d) of a genus-g curve are written as
truncated polynomials in the tautological classes x (the divisor p + X^(d-1))
and theta (the pullback of the theta divisor).  Top-degree monomials integrate
by the classical rule

    integral over X^(d) of x^(d-k) theta^k  =  g! / (g-k)!   (0 if k > g),

which reproduces the familiar degree-1 and degree-2 values (theta on X^(1)
integrates to g, theta^2 on X^(2) to g(g-1)).

The headline computation: on X^(4) for g = 5, the locus of divisors moving in
a pencil has class (theta^2 - 2 x theta)/2, the image of the doubling map
(p, q) -> 2p + 2q has class 4(32 x^2 + theta^2 - 10 x theta), their product
expands to 104 x^2 theta^2 + 2 theta^4 - 24 x theta^3 - 128 x^3 theta, and
the integral is exactly 240.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import DomainMismatchError, VerificationError
from .multipoly import MultiPoly

XTHETA_VARS = ("x", "theta")


@dataclass(frozen=True)
class XThetaClass:
    """A truncated polynomial in x and theta on X^(d) for a genus-g curve.

    ``poly`` is a :class:`MultiPoly` over QQ in ``XTHETA_VARS`` whose
    monomials x^i theta^j all have i + j <= d; sums, differences, products
    and the text rendering are MultiPoly's.  ``truncated`` records whether a
    product ever dropped terms of total degree above d (those do not
    contribute to integrals but dropping them is flagged, never silent).
    """

    g: int
    d: int
    poly: MultiPoly
    truncated: bool = False

    def __post_init__(self) -> None:
        for i, j in self.poly.terms:
            if i < 0 or j < 0 or i + j > self.d:
                raise ValueError(f"monomial x^{i} theta^{j} exceeds degree {self.d}")

    @property
    def coeffs(self) -> Mapping[tuple[int, int], Fraction]:
        """Read-only view of the terms: (i, j) -> coefficient of x^i theta^j."""
        return MappingProxyType(self.poly.terms)

    def _check(self, other: "XThetaClass") -> None:
        if (self.g, self.d) != (other.g, other.d):
            raise DomainMismatchError("classes live on different symmetric products")

    def __add__(self, other: "XThetaClass") -> "XThetaClass":
        self._check(other)
        truncated = self.truncated or other.truncated
        return XThetaClass(self.g, self.d, self.poly + other.poly, truncated)

    def __sub__(self, other: "XThetaClass") -> "XThetaClass":
        self._check(other)
        truncated = self.truncated or other.truncated
        return XThetaClass(self.g, self.d, self.poly - other.poly, truncated)

    def __mul__(self, other) -> "XThetaClass":
        if isinstance(other, (int, Fraction)):
            return XThetaClass(self.g, self.d, self.poly * other, self.truncated)
        self._check(other)
        product = self.poly * other.poly
        kept = {ex: c for ex, c in product.terms.items() if sum(ex) <= self.d}
        # QQ[x, theta] has no zero divisors, so some term pair lands above d
        # exactly when the product itself has degree above d
        truncated = self.truncated or other.truncated or product.total_degree() > self.d
        return XThetaClass(self.g, self.d, MultiPoly(XTHETA_VARS, kept), truncated)

    __rmul__ = __mul__

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.poly.coefficient((i, j))

    def to_text(self) -> str:
        return self.poly.to_text()

    __str__ = to_text


def monomial_value(g: int, d: int, i: int, j: int) -> int:
    """Integral of x^i theta^j over X^(d) when i + j = d, else 0."""
    if i + j != d:
        return 0
    return math.perm(g, j)


def eval_top(c: XThetaClass) -> Fraction:
    """Integrate the top-degree part of a class over X^(d)."""
    total = Fraction(0)
    for (i, j), coeff in c.coeffs.items():
        if i + j == c.d:
            total += coeff * monomial_value(c.g, c.d, i, j)
    return total


def xtheta(g: int, d: int, coeffs: Mapping[tuple[int, int], object]) -> XThetaClass:
    terms = {k: Fraction(v) for k, v in coeffs.items()}
    return XThetaClass(g, d, MultiPoly(XTHETA_VARS, terms))


def class_c14() -> XThetaClass:
    """Class on X^(4), g = 5, of divisors moving in a pencil: (theta^2 - 2 x theta)/2."""
    return xtheta(5, 4, {(0, 2): Fraction(1, 2), (1, 1): -1})


def class_delta2() -> XThetaClass:
    """Class on X^(4), g = 5, of the locus of divisors 2p + 2q:
    4(32 x^2 + theta^2 - 10 x theta)."""
    return xtheta(5, 4, {(2, 0): 128, (0, 2): 4, (1, 1): -40})


EXPECTED_PRODUCT = {
    (2, 2): Fraction(104), (0, 4): Fraction(2), (1, 3): Fraction(-24), (3, 1): Fraction(-128)
}


def product_and_eval() -> tuple[XThetaClass, Fraction]:
    """Expand class_c14 * class_delta2 and integrate; re-checks the expansion
    term by term and the final value 240 before returning them."""
    product = class_c14() * class_delta2()
    if dict(product.coeffs) != EXPECTED_PRODUCT:
        raise VerificationError(f"unexpected expansion: {product}")
    value = eval_top(product)
    if value != 240:
        raise VerificationError(f"unexpected intersection number: {value}")
    return product, value
