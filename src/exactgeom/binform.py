"""Binary forms: Sylvester resultants, gcds, and squarefree parts.

A :class:`BinaryForm` is a :class:`MultiPoly` that is homogeneous in a
designated pair of variables; the remaining variables act as parameters.
Resultants eliminate the designated pair.  Determinants with constant entries
use fraction-free Bareiss elimination; determinants with polynomial entries
are computed by evaluation-interpolation at integer sample points, with the
degree bound taken as the sum over matrix rows of the maximal entry degree.
The point at infinity is handled explicitly throughout: the gcd strips and
restores pure powers of either pair variable, so a common root at [1:0] or
[0:1] is never lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import univar
from .domains import FieldElement, PrimeField, Rationals
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

    def evaluate_pair(self, u_value, v_value):
        """Value at a point of the designated pair (parameters must be absent)."""
        u, v = self.pair
        return self.poly.evaluate({u: u_value, v: v_value})

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


def _det_field_generic(m: list[list[FieldElement]], field) -> FieldElement:
    n = len(m)
    if n == 0:
        return field.one()
    m = [list(row) for row in m]
    sign = 1
    prev = field.one()
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return field.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - factor * m[k][j]) / prev
            m[i][k] = field.zero()
        prev = pivot
    value = m[n - 1][n - 1]
    return value if sign == 1 else -value


def det_constant(matrix, domain):
    """Determinant of a matrix of domain elements."""
    if isinstance(domain, Rationals):
        return _det_rational([[Fraction(c) for c in row] for row in matrix])
    if isinstance(domain, PrimeField):
        rows = [[c.value for c in row] for row in matrix]
        return domain.wrap(_det_mod_p(rows, domain.p))
    return _det_field_generic(matrix, domain)


def det_polynomial_matrix(rows: list[list[MultiPoly]], sample_base: int = 0) -> MultiPoly:
    """Determinant of a square matrix of polynomials sharing domain/variables.

    Entries that involve no variable are dispatched to Bareiss elimination;
    otherwise the determinant is interpolated variable by variable at the
    integer sample points sample_base, ..., sample_base + bound, where bound
    is the sum over rows of the maximal entry degree in the active variable.
    """
    first = rows[0][0]
    domain, variables = first.domain, first.variables
    active = None
    for name in variables:
        if any(entry.degree_in(name) > 0 for row in rows for entry in row):
            active = name
            break
    if active is None:
        mat = [[entry.constant_value() for entry in row] for row in rows]
        return MultiPoly.constant(domain, variables, det_constant(mat, domain))

    bound = sum(max(max(entry.degree_in(active), 0) for entry in row) for row in rows)
    if domain.order is not None and bound + 1 > domain.order:
        raise InterpolationError(
            f"need {bound + 1} sample points but the field has only {domain.order} elements"
        )
    points = [domain.elem(sample_base + i) for i in range(bound + 1)]
    if len(set(points)) != len(points):
        raise InterpolationError("interpolation sample points are not distinct")
    values = []
    for pt in points:
        specialized = [[entry.substitute(active, pt) for entry in row] for row in rows]
        values.append(det_polynomial_matrix(specialized, sample_base))
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


def _sylvester_rows(fc: list[MultiPoly], gc: list[MultiPoly], zero: MultiPoly):
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([zero] * i + fc + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + gc + [zero] * (size - n - 1 - i))
    return rows


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
    zero = MultiPoly.zero(f.poly.domain, f.poly.variables)
    rows = _sylvester_rows(f.coefficient_polys(), g.coefficient_polys(), zero)
    det = det_polynomial_matrix(rows, sample_base)
    return det.drop_vars(f.pair)


def resultant_wrt(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Classical Sylvester resultant with respect to a single variable."""
    f._check_compatible(g)
    df, dg = f.degree_in(name), g.degree_in(name)
    if df < 1 or dg < 1:
        raise ValueError("resultant requires positive degree in the elimination variable")
    idx = f._var_index(name)

    def coeff_rows(poly: MultiPoly, d: int) -> list[MultiPoly]:
        buckets: list[dict] = [{} for _ in range(d + 1)]
        for ex, c in poly.terms.items():
            stripped = list(ex)
            stripped[idx] = 0
            buckets[d - ex[idx]][tuple(stripped)] = c
        return [MultiPoly(poly.domain, poly.variables, b) for b in buckets]

    zero = MultiPoly.zero(f.domain, f.variables)
    rows = _sylvester_rows(coeff_rows(f, df), coeff_rows(g, dg), zero)
    return det_polynomial_matrix(rows).drop_vars([name])


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


def _rehomogenize(domain, variables, pair, univariate: list, extra_u: int, extra_v: int) -> BinaryForm:
    coeffs = list(reversed(univariate))
    form = form_from_coefficients(domain, variables, pair, coeffs)
    u, v = pair
    poly = form.poly
    if extra_u:
        poly = poly * MultiPoly.variable(domain, variables, u) ** extra_u
    if extra_v:
        poly = poly * MultiPoly.variable(domain, variables, v) ** extra_v
    return BinaryForm(poly, pair)


def _normalize_monic(form: BinaryForm) -> BinaryForm:
    coeffs = form.coefficient_list()
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        return form
    return BinaryForm(form.poly / lead, form.pair)


def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic greatest common divisor of two binary forms over a field.

    Runs Euclid on dehomogenizations after stripping pure powers of the pair
    variables, then restores the stripped powers, so common roots at [1:0]
    and [0:1] are preserved exactly.
    """
    if f.pair != g.pair:
        raise DomainMismatchError("gcd of forms with different designated pairs")
    f.poly._check_compatible(g.poly)
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return _normalize_monic(g)
    if g.is_zero():
        return _normalize_monic(f)
    domain, variables, pair = f.poly.domain, f.poly.variables, f.pair
    uf, vf, pf = dehomogenize(f.coefficient_list())
    ug, vg, pg = dehomogenize(g.coefficient_list())
    h = univar.gcd(pf, pg, domain)
    return _normalize_monic(
        _rehomogenize(domain, variables, pair, h, min(uf, ug), min(vf, vg))
    )


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
    uf, vf, p = dehomogenize(f.coefficient_list())
    s = univar.squarefree_part(p, domain)
    return _normalize_monic(
        _rehomogenize(domain, f.poly.variables, f.pair, s, min(uf, 1), min(vf, 1))
    )
