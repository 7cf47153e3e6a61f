"""Binary forms: Sylvester resultants, gcds, and squarefree parts.

A :class:`BinaryForm` is a :class:`MultiPoly` that is homogeneous in a
designated pair of variables; the remaining variables act as parameters.
Resultants eliminate the designated pair: the Sylvester determinant of forms
of degrees m and n is interpolated at integer sample points, one parameter at
a time, with degree bound n deg f + m deg g in that parameter.  Each
coefficient is substituted once per point; only constant matrices are laid
out, for Bareiss elimination.
The point at infinity is handled explicitly throughout: the gcd strips and
restores pure powers of either pair variable, so a common root at [1:0] or
[0:1] is never lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import univar
from .domains import PrimeField, Rationals
from .errors import DomainMismatchError, InterpolationError
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
        return [
            MultiPoly(self.poly.domain, self.poly.variables, bucket) for bucket in buckets
        ]

    def coefficient_list(self) -> list:
        """Coefficient sequence as field elements; parameters must be absent."""
        out = []
        for c in self.coefficient_polys():
            if not c.is_constant():
                raise ValueError("form has non-constant coefficients")
            out.append(c.constant_value())
        return out

    def __str__(self) -> str:
        return self.poly.to_text()


def form_from_coefficients(domain, variables, pair, coefficients) -> BinaryForm:
    """Build the form sum_i c_i u^(m-i) v^i from a descending coefficient list."""
    variables = tuple(variables)
    u, v = pair
    iu, iv = variables.index(u), variables.index(v)
    m = len(coefficients) - 1
    terms: dict = {}
    for i, c in enumerate(coefficients):
        if isinstance(c, int):
            c = domain.elem(c)
        if not c:
            continue
        ex = [0] * len(variables)
        ex[iu] = m - i
        ex[iv] = i
        terms[tuple(ex)] = c
    return BinaryForm(MultiPoly(domain, variables, terms), (u, v))


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


def _det_mod_p(m: list[list[int]], p: int) -> int:
    """Bareiss elimination carried out modulo p (entries are ints in [0, p))."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev_inv = 1
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
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) * prev_inv % p
            row_i[k] = 0
        prev_inv = pow(pivot, p - 2, p)
    return sign * m[n - 1][n - 1] % p


def _det_rational(m: list[list[Fraction]]) -> Fraction:
    scale = Fraction(1)
    rows = []
    for row in m:
        denom = math.lcm(*(c.denominator for c in row)) if row else 1
        scale *= denom
        rows.append([int(c * denom) for c in row])
    return Fraction(_det_int(rows), 1) / scale


def det_constant(matrix, domain):
    """Determinant of a matrix of elements of QQ or GF(p)."""
    if isinstance(domain, Rationals):
        return _det_rational([[Fraction(c) for c in row] for row in matrix])
    if isinstance(domain, PrimeField):
        rows = [[c.value for c in row] for row in matrix]
        return domain.wrap(_det_mod_p(rows, domain.p))
    raise DomainMismatchError(f"no constant determinant over {domain!r}")


def det_polynomial_matrix(
    fc: list[MultiPoly], gc: list[MultiPoly], sample_base: int = 0
) -> MultiPoly:
    """Determinant of the Sylvester matrix of two coefficient sequences.

    With m = len(fc) - 1 and n = len(gc) - 1, the matrix holds n shifted
    copies of ``fc`` and m of ``gc``.  Constant coefficients are laid out and
    dispatched to Bareiss elimination; otherwise the determinant is
    interpolated in the first variable of positive degree at the integer
    sample points sample_base, ..., sample_base + bound, where bound is
    n * deg fc + m * deg gc in that variable.
    """
    domain, variables = fc[0].domain, fc[0].variables
    m, n = len(fc) - 1, len(gc) - 1
    active = next(
        (name for name in variables if any(c.degree_in(name) > 0 for c in fc + gc)), None
    )
    if active is None:
        fv = [c.constant_value() for c in fc]
        gv = [c.constant_value() for c in gc]
        zero = domain.zero()
        mat = [[zero] * i + fv + [zero] * (n - 1 - i) for i in range(n)]
        mat += [[zero] * i + gv + [zero] * (m - 1 - i) for i in range(m)]
        return MultiPoly.constant(domain, variables, det_constant(mat, domain))

    # a sequence that vanishes at a sample point has degree -1; its rows add nothing
    bound = n * max(0, max(c.degree_in(active) for c in fc))
    bound += m * max(0, max(c.degree_in(active) for c in gc))
    if domain.order is not None and bound + 1 > domain.order:
        raise InterpolationError(
            f"need {bound + 1} sample points but the field has only {domain.order} elements"
        )
    points = [domain.elem(sample_base + i) for i in range(bound + 1)]
    if len(set(points)) != len(points):
        raise InterpolationError("interpolation sample points are not distinct")
    values = []
    for pt in points:
        fs = [c.substitute(active, pt) for c in fc]
        gs = [c.substitute(active, pt) for c in gc]
        values.append(det_polynomial_matrix(fs, gs, sample_base))
    return _newton_interpolate(active, points, values, domain, variables)


def _newton_interpolate(name, points, values, domain, variables) -> MultiPoly:
    coeffs = list(values)
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            denominator = points[i] - points[i - j]
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / denominator
    x = MultiPoly.variable(domain, variables, name)
    result = coeffs[-1]
    for k in range(n - 2, -1, -1):
        result = result * (x - MultiPoly.constant(domain, variables, points[k])) + coeffs[k]
    return result


# --- resultants --------------------------------------------------------------


def sylvester_resultant(f: BinaryForm, g: BinaryForm, sample_base: int = 0) -> MultiPoly:
    """Resultant of two binary forms, eliminating the designated pair.

    The result lives in the remaining (parameter) variables.  It vanishes at
    a parameter value exactly when the specialized forms share a projective
    root, provided their leading coefficients do not both vanish there.
    """
    if f.pair != g.pair:
        raise DomainMismatchError("resultant of forms with different designated pairs")
    f.poly._check_compatible(g.poly)
    if f.degree < 1 or g.degree < 1:
        raise ValueError("resultant requires nonzero forms of degree at least 1")
    det = det_polynomial_matrix(f.coefficient_polys(), g.coefficient_polys(), sample_base)
    return det.drop_vars(f.pair)


# --- gcd and squarefree part --------------------------------------------------


def dehomogenize(coeffs: list) -> tuple[int, int, list]:
    """Write a form as u^a v^b * core and dehomogenize the core.

    ``coeffs[i]`` multiplies u^(m-i) v^i.  Returns ``(a, b, core)`` with the
    core as a univariate polynomial in u/v, low degree first, so that a > 0
    marks a root at [0:1] and b > 0 a root at [1:0].
    """
    lead = 0
    while lead < len(coeffs) and not coeffs[lead]:
        lead += 1
    trail = 0
    while trail < len(coeffs) - lead and not coeffs[len(coeffs) - 1 - trail]:
        trail += 1
    # leading zeros give powers of v, trailing zeros give powers of u
    return trail, lead, list(reversed(coeffs[lead : len(coeffs) - trail]))


def _homogenize(domain, variables, pair, a: int, b: int, core: list) -> BinaryForm:
    """Inverse of :func:`dehomogenize`: the form u^a v^b * core."""
    zero = domain.zero()
    return form_from_coefficients(domain, variables, pair, [zero] * b + core[::-1] + [zero] * a)


def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic greatest common divisor of two binary forms over a field.

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
    domain = f.poly.domain
    a, b, core = dehomogenize(f.coefficient_list())
    # a zero g keeps every power of u and v, and gcd(core, 0) is the monic core
    ag, bg, core_g = (a, b, []) if g.is_zero() else dehomogenize(g.coefficient_list())
    core = univar.gcd(core, core_g, domain)
    return _homogenize(domain, f.poly.variables, f.pair, min(a, ag), min(b, bg), core)


def squarefree_part(f: BinaryForm) -> BinaryForm:
    """Product of the distinct irreducible factors of a nonzero binary form.

    Computed as f / gcd(f, f') on the dehomogenization; requires field
    coefficients of characteristic 0 or larger than deg f.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero form")
    domain = f.poly.domain
    char = domain.char
    if char and char <= f.degree:
        raise ValueError("squarefree part needs characteristic 0 or > deg f")
    a, b, core = dehomogenize(f.coefficient_list())
    s = univar.squarefree_part(core, domain)
    return _homogenize(domain, f.poly.variables, f.pair, min(a, 1), min(b, 1), s)
