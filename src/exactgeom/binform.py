"""Binary forms: Sylvester resultants and gcds.

A :class:`BinaryForm` is a :class:`MultiPoly` over QQ that is homogeneous
in a designated pair of variables; the remaining variables act as
parameters, of which at most one may occur.  Resultants eliminate the
designated pair: the coefficients of the two forms are read once into int
lists in the parameter (each form scaled by the lcm of its denominators)
for :func:`exactgeom.zpoly.sampled_resultant`; no Sylvester matrix is
built.  They serve the smoothness certificate; the family's eliminant
R(alpha) is the pencil eliminant of :mod:`exactgeom.pencil24` over ZZ and
does not pass through here.  Bareiss elimination on ints, the package's
only determinant routine, remains behind :func:`det_constant` for matrices
of rationals.
The point at infinity is handled explicitly throughout: the gcd strips and
restores pure powers of either pair variable, so a common root at [1:0] or
[0:1] is never lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import univar, zpoly
from .domains import QQ
from .errors import DomainMismatchError
from .multipoly import MultiPoly


@dataclass(frozen=True)
class BinaryForm:
    """A polynomial homogeneous in the designated variable pair.

    ``degree`` is the common pair-degree of every term, or -1 for the zero
    form.
    """

    poly: MultiPoly
    pair: tuple[str, str]

    def __post_init__(self) -> None:
        u, v = self.pair
        iu = self.poly._var_index(u)
        iv = self.poly._var_index(v)
        degrees = {ex[iu] + ex[iv] for ex in self.poly.terms}
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous in ({u}, {v})")

    @property
    def degree(self) -> int:
        u, v = self.pair
        iu = self.poly._var_index(u)
        iv = self.poly._var_index(v)
        if not self.poly.terms:
            return -1
        return next(iter(ex[iu] + ex[iv] for ex in self.poly.terms))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def coefficient_polys(self) -> list[MultiPoly]:
        """Coefficients of u^(m-i) v^i for i = 0..m, as parameter polynomials."""
        u, v = self.pair
        iu = self.poly._var_index(u)
        iv = self.poly._var_index(v)
        m = self.degree
        if m < 0:
            raise ValueError("zero form has no coefficient sequence")
        buckets: list[dict] = [{} for _ in range(m + 1)]
        for ex, c in self.poly.terms.items():
            stripped = list(ex)
            stripped[iu] = 0
            stripped[iv] = 0
            buckets[ex[iv]][tuple(stripped)] = c
        return [MultiPoly(self.poly.variables, bucket) for bucket in buckets]

    def coefficient_list(self) -> list:
        """Coefficient sequence as rationals; parameters must be absent."""
        out = []
        for c in self.coefficient_polys():
            if not c.is_constant():
                raise ValueError("form has non-constant coefficients")
            out.append(c.constant_value())
        return out

    def __str__(self) -> str:
        return self.poly.to_text()


def form_from_coefficients(variables, pair, coefficients) -> BinaryForm:
    """Build the form sum_i c_i u^(m-i) v^i from a descending coefficient list."""
    variables = tuple(variables)
    u, v = pair
    iu, iv = variables.index(u), variables.index(v)
    m = len(coefficients) - 1
    terms: dict = {}
    for i, c in enumerate(coefficients):
        if not c:
            continue
        ex = [0] * len(variables)
        ex[iu] = m - i
        ex[iv] = i
        terms[tuple(ex)] = Fraction(c)
    return BinaryForm(MultiPoly(variables, terms), (u, v))


# --- determinants ------------------------------------------------------------


def _det_int(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_constant(matrix) -> Fraction:
    """Determinant of a matrix of ``Fraction``s (elements of QQ)."""
    # each row is scaled to ints by the lcm of its denominators
    scale = 1
    rows = []
    for row in matrix:
        denom = math.lcm(*(c.denominator for c in row))
        scale *= denom
        rows.append([c.numerator * (denom // c.denominator) for c in row])
    return Fraction(_det_int(rows), scale)


def _raw_sequence(cs: list[MultiPoly], var: int) -> tuple[list[list[int]], int]:
    """Coefficients as dense int lists in variable ``var``, low degree first,
    in reversed order (low degree in u first), as
    :func:`exactgeom.zpoly.sampled_resultant` takes them.

    The whole sequence is multiplied by the lcm of its denominators, which
    is returned as the scale.
    """
    scale = math.lcm(*(c.denominator for poly in cs for c in poly.terms.values()))
    seq = []
    for poly in reversed(cs):
        dense = [0] * (1 + max((ex[var] for ex in poly.terms), default=0))
        for ex, c in poly.terms.items():
            dense[ex[var]] = c.numerator * (scale // c.denominator)
        seq.append(dense)
    return seq, scale


def det_polynomial_matrix(fc: list[MultiPoly], gc: list[MultiPoly]) -> MultiPoly:
    """Determinant of the Sylvester matrix of two coefficient sequences over QQ.

    With m = len(fc) - 1 and n = len(gc) - 1, the matrix holds n shifted
    copies of ``fc`` and m of ``gc``.  At most one variable, the parameter,
    may have positive degree in a coefficient; two or more raise
    ``ValueError``.  Each sequence is scaled to ints by the lcm D of its
    denominators, so :func:`exactgeom.zpoly.sampled_resultant` returns the
    determinant times D_f^n D_g^m, which is divided out.  With no parameter
    the result is the constant determinant, as a constant ``MultiPoly``.
    """
    variables = fc[0].variables
    m, n = len(fc) - 1, len(gc) - 1
    active = [
        name for i, name in enumerate(variables) if any(ex[i] for c in fc + gc for ex in c.terms)
    ]
    if len(active) > 1:
        raise ValueError(f"resultant coefficients depend on more than one parameter: {active}")
    # with no parameter every exponent is 0, so any variable serves
    var = variables.index(active[0]) if active else 0
    fs, scale_f = _raw_sequence(fc, var)
    gs, scale_g = _raw_sequence(gc, var)
    scale = scale_f**n * scale_g**m
    terms = {}
    for e, c in enumerate(zpoly.sampled_resultant(fs, gs)):
        ex = [0] * len(variables)
        ex[var] = e
        terms[tuple(ex)] = Fraction(c, scale)
    return MultiPoly(variables, terms)


# --- resultants --------------------------------------------------------------


def sylvester_resultant(f: BinaryForm, g: BinaryForm) -> MultiPoly:
    """Resultant of two binary forms over QQ, eliminating the designated pair.

    The result lives in the remaining (parameter) variables.  It vanishes at
    a parameter value exactly when the specialized forms share a projective
    root, provided their leading coefficients do not both vanish there.
    """
    if f.pair != g.pair:
        raise DomainMismatchError("resultant of forms with different designated pairs")
    f.poly._check_compatible(g.poly)
    if f.degree < 1 or g.degree < 1:
        raise ValueError("resultant requires nonzero forms of degree at least 1")
    det = det_polynomial_matrix(f.coefficient_polys(), g.coefficient_polys())
    return det.drop_vars(f.pair)


# --- gcd ---------------------------------------------------------------------


def dehomogenize(coeffs: list, field) -> tuple[int, int, list]:
    """Write a form as u^a v^b * core and dehomogenize the core.

    ``coeffs[i]``, a raw value of ``field``, multiplies u^(m-i) v^i; zeros
    are tested by ``field._ris_zero`` (the raw zero of an extension is a
    tuple, which is truthy).  Returns ``(a, b, core)`` with the core as a
    univariate polynomial in u/v, low degree first, so that a > 0 marks a
    root at [0:1] and b > 0 a root at [1:0].
    """
    is_zero = field._ris_zero
    lead = 0
    while lead < len(coeffs) and is_zero(coeffs[lead]):
        lead += 1
    trail = 0
    while trail < len(coeffs) - lead and is_zero(coeffs[len(coeffs) - 1 - trail]):
        trail += 1
    # leading zeros give powers of v, trailing zeros give powers of u
    return trail, lead, list(reversed(coeffs[lead : len(coeffs) - trail]))


def _homogenize(variables, pair, a: int, b: int, core: list) -> BinaryForm:
    """Inverse of :func:`dehomogenize`: the form u^a v^b * core."""
    return form_from_coefficients(variables, pair, [0] * b + core[::-1] + [0] * a)


def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic greatest common divisor of two binary forms over QQ.

    Runs Euclid on dehomogenizations after stripping pure powers of the pair
    variables, then restores the stripped powers, so common roots at [1:0]
    and [0:1] are preserved exactly.  A zero argument yields the other form
    divided by its first nonzero coefficient.
    """
    if f.pair != g.pair:
        raise DomainMismatchError("gcd of forms with different designated pairs")
    f.poly._check_compatible(g.poly)
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        f, g = g, f
    a, b, core = dehomogenize(f.coefficient_list(), QQ)
    # a zero g keeps every power of u and v, and gcd(core, 0) is the monic core
    ag, bg, core_g = (a, b, []) if g.is_zero() else dehomogenize(g.coefficient_list(), QQ)
    core = univar.gcd(core, core_g, QQ)
    return _homogenize(f.poly.variables, f.pair, min(a, ag), min(b, bg), core)
