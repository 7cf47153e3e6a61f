"""Binary forms: resultants against independent oracles, gcd."""

import random
from fractions import Fraction

import pytest

from exactgeom import binform, univar, zpoly
from exactgeom.binform import (
    BinaryForm,
    binary_gcd,
    form_from_coefficients,
    sylvester_resultant,
)
from exactgeom.domains import QQ
from exactgeom.multipoly import MultiPoly

UV = ("u", "v")


def qform(coeffs, variables=UV, pair=UV):
    return form_from_coefficients(variables, pair, [Fraction(c) for c in coeffs])


def cofactor_det(matrix):
    """Naive cofactor expansion over QQ; the independent determinant oracle."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if not matrix[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * matrix[0][j] * cofactor_det(minor)
    return total


def test_homogeneity_validation():
    u, v = MultiPoly.gens(UV)
    with pytest.raises(ValueError):
        BinaryForm(u**2 + v, UV)


def test_resultant_two_linear_forms():
    # Res(a u + b v, c u + d v) = a d - b c, with a the parameter
    u, v, a = MultiPoly.gens(("u", "v", "a"))
    (a_only,) = MultiPoly.gens(("a",))
    rng = random.Random(3)
    for _ in range(10):
        b, d = rng.randrange(-9, 10), rng.randrange(-9, 10)
        c = rng.choice([-1, 1]) * rng.randrange(1, 10)
        res = sylvester_resultant(BinaryForm(a * u + b * v, UV), BinaryForm(c * u + d * v, UV))
        assert res == d * a_only - b * c


def test_resultant_single_variable():
    # Res(u^2 - t v^2, u - v) = 1 - t: the dehomogenized Res_u(u^2 - t, u - 1)
    u, v, t = MultiPoly.gens(("u", "v", "t"))
    res = sylvester_resultant(BinaryForm(u**2 - t * v**2, UV), BinaryForm(u - v, UV))
    (t_only,) = MultiPoly.gens(("t",))
    assert res == 1 - t_only


def test_resultant_prescribed_against_cofactor_oracle():
    f = qform([1, -2, 1])  # (u - v)^2
    g = qform([1, 2, 1])  # (u + v)^2
    # independent route: cofactor expansion of the explicit Sylvester matrix
    matrix = [
        [Fraction(1), Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(-2), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(2), Fraction(1)],
    ]
    assert cofactor_det(matrix) == 16
    assert sylvester_resultant(f, g).constant_value() == 16


def test_resultant_random_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(20):
        fc = [Fraction(rng.randrange(-5, 6)) for _ in range(4)]
        gc = [Fraction(rng.randrange(-5, 6)) for _ in range(3)]
        if not fc[0] and not fc[1] and not fc[2] and not fc[3]:
            continue
        if not any(fc) or not any(gc):
            continue
        f, g = qform(fc), qform(gc)
        if f.degree < 1 or g.degree < 1:
            continue
        m, n = 3, 2
        size = m + n
        rows = []
        for i in range(n):
            rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
        for i in range(m):
            rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
        assert sylvester_resultant(f, g).constant_value() == cofactor_det(rows)


def test_resultant_rejects_zero_form():
    f = qform([1, 0, 1])
    zero = BinaryForm(MultiPoly.zero(UV), UV)
    with pytest.raises(ValueError):
        sylvester_resultant(f, zero)


def test_resultant_multiplicativity_rationals():
    rng = random.Random(41)

    def rand_form(deg):
        while True:
            coeffs = [Fraction(rng.randrange(-6, 7)) for _ in range(deg + 1)]
            form = qform(coeffs)
            if form.degree == deg:
                return form

    for _ in range(10):
        f, g, h = rand_form(2), rand_form(2), rand_form(3)
        fg = BinaryForm(f.poly * g.poly, UV)
        lhs = sylvester_resultant(fg, h).constant_value()
        rhs = (
            sylvester_resultant(f, h).constant_value()
            * sylvester_resultant(g, h).constant_value()
        )
        assert lhs == rhs


def test_resultant_specialization_commutes():
    # a pencil of forms in (u, v) with parameter s: specialize then eliminate
    # equals eliminate then specialize, when the leading coefficients survive
    names = ("u", "v", "s")
    u, v, s = MultiPoly.gens(names)
    f = BinaryForm(u**2 + s * u * v + v**2, UV)
    g = BinaryForm(u**3 + (s + 1) * v**3, UV)
    eliminated = sylvester_resultant(f, g)
    rng = random.Random(13)
    for _ in range(8):
        s0 = Fraction(rng.randrange(-20, 21))
        f0 = BinaryForm(f.poly.specialize({"s": s0}), UV)
        g0 = BinaryForm(g.poly.specialize({"s": s0}), UV)
        assert f0.degree == 2 and g0.degree == 3
        direct = sylvester_resultant(f0, g0).constant_value()
        assert direct == eliminated.evaluate({"s": s0})


def _divides(d: BinaryForm, f: BinaryForm) -> bool:
    du, dv, dcore = binform.dehomogenize(d.coefficient_list(), QQ)
    fu, fv, fcore = binform.dehomogenize(f.coefficient_list(), QQ)
    if du > fu or dv > fv:
        return False
    rem = univar.divmod_(fcore, dcore, QQ)[1]
    return not rem


def test_gcd_shared_factor():
    f = qform([1, -1, -1, 1])  # (u - v)^2 (u + v)
    g = qform([1, 1, -2])  # (u - v)(u + 2v)
    u, v = MultiPoly.gens(UV)
    assert binary_gcd(f, g).poly == u - v


def test_gcd_coprime():
    assert binary_gcd(qform([1, 0, 1]), qform([1, 1])).poly == 1


def test_gcd_divides_inputs():
    rng = random.Random(17)
    for _ in range(15):
        fc = [Fraction(rng.randrange(-4, 5)) for _ in range(5)]
        gc = [Fraction(rng.randrange(-4, 5)) for _ in range(4)]
        if not any(fc) or not any(gc):
            continue
        f, g = qform(fc), qform(gc)
        d = binary_gcd(f, g)
        assert _divides(d, f) and _divides(d, g)


def test_gcd_preserves_roots_at_infinity():
    # both forms share the root [1:0] (pure v factor)
    u, v = MultiPoly.gens(UV)
    f = BinaryForm(v**2 * (u + v), UV)
    g = BinaryForm(v * (u - v), UV)
    d = binary_gcd(f, g)
    assert d.poly == v


def test_gcd_both_zero_rejected():
    zero = BinaryForm(MultiPoly.zero(UV), UV)
    with pytest.raises(ValueError):
        binary_gcd(zero, zero)


def test_gcd_with_zero_is_the_other_form_divided_by_its_first_coefficient():
    # -3 u v^2 (u - 2v): the factors u and v^2 pad the coefficient list at both ends
    u, v = MultiPoly.gens(UV)
    f = BinaryForm(-3 * u * v**2 * (u - 2 * v), UV)
    zero = BinaryForm(MultiPoly.zero(UV), UV)
    expected = u * v**2 * (u - 2 * v)
    assert binary_gcd(f, zero).poly == expected
    assert binary_gcd(zero, f).poly == expected


def test_det_constant_paths_agree():
    rng = random.Random(19)
    for n in (2, 4, 6):
        ints = [[rng.randrange(-50, 51) for _ in range(n)] for _ in range(n)]
        rational = binform.det_constant([[Fraction(c) for c in row] for row in ints])
        assert rational.denominator == 1
        assert cofactor_det([[Fraction(c) for c in row] for row in ints]) == rational
    # entries with denominators: each row is scaled to ints by its own lcm
    for n in (1, 3, 5):
        matrix = [
            [Fraction(rng.randrange(-30, 31), rng.randrange(1, 13)) for _ in range(n)]
            for _ in range(n)
        ]
        assert binform.det_constant(matrix) == cofactor_det(matrix)
    halves = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert binform.det_constant(halves) == Fraction(1, 210)


def test_resultant_when_a_sequence_vanishes_at_a_sample_point():
    # at s = 0 the first form vanishes, and the second has degree 0 in s, so
    # its share of the degree bound is 0: Res = s^2 Res(u + v, u^2 + 2 v^2)
    u, v, s = MultiPoly.gens(("u", "v", "s"))
    res = sylvester_resultant(BinaryForm(s * u + s * v, UV), BinaryForm(u**2 + 2 * v**2, UV))
    (s_only,) = MultiPoly.gens(("s",))
    assert res == 3 * s_only**2


def test_resultant_substitutes_each_coefficient_once_per_point(monkeypatch):
    from exactgeom.quartic import disc_delta, sem_d
    from exactgeom.transversality import family_coeffs

    # the transversality family's conditions, expanded as MultiPolys in (x, y, alpha)
    f, g = (BinaryForm(form(family_coeffs()), ("x", "y")) for form in (disc_delta, sem_d))
    substitutions = resultants = determinants = 0
    original_substitute = MultiPoly.substitute
    original_resultant = zpoly.int_resultant
    original_det = binform._det_int

    def counting_substitute(self, name, value):
        nonlocal substitutions
        substitutions += 1
        return original_substitute(self, name, value)

    def counting_resultant(a, b, *rest):
        nonlocal resultants
        resultants += 1
        return original_resultant(a, b, *rest)

    def counting_det(m):
        nonlocal determinants
        determinants += 1
        return original_det(m)

    monkeypatch.setattr(MultiPoly, "substitute", counting_substitute)
    monkeypatch.setattr(zpoly, "int_resultant", counting_resultant)
    monkeypatch.setattr(binform, "_det_int", counting_det)
    sylvester_resultant(f, g)
    # the coefficients are read once into ints, never substituted; one integer
    # resultant at each of 85 sample points (bound 12 * 4 + 18 * 2), and no
    # Sylvester matrix or Bareiss determinant
    assert substitutions == 0
    assert resultants == 85
    assert determinants == 0


def _parameter_forms(variables=("u", "v", "s")):
    """Forms of degrees 2 and 3 in (u, v) whose coefficients are polynomials
    with non-integer rational coefficients in s, and in t when ``variables``
    holds it."""
    gens = MultiPoly.gens(variables)
    u, v, s = gens[:3]
    t = gens[3] if len(gens) > 3 else 1
    c = Fraction

    f = (c(1, 2) * s + t) * u**2 + (s**2 - c(3, 4)) * u * v + (t + c(2, 3) * s) * v**2
    g = (
        u**3
        + (c(5, 6) * s**2 - t) * u**2 * v
        + c(7, 3) * u * v**2
        + (s - c(1, 5) * s**3 + 1) * v**3
    )
    return BinaryForm(f, UV), BinaryForm(g, UV)


def _specialized_sylvester_det(f, g, point):
    fc = [c.evaluate(point) for c in f.coefficient_polys()]
    gc = [c.evaluate(point) for c in g.coefficient_polys()]
    m, n = len(fc) - 1, len(gc) - 1
    zero = Fraction(0)
    rows = [[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)]
    return binform.det_constant(rows)


def test_resultant_in_one_parameter_against_the_bareiss_oracle():
    f, g = _parameter_forms()
    res = sylvester_resultant(f, g)
    assert res.variables == ("s",)
    rng = random.Random(23)
    points = [0, -4, 1, Fraction(-7, 3)] + [rng.randrange(-40, 41) for _ in range(6)]
    for s0 in points:
        point = {"s": Fraction(s0)}
        assert res.evaluate(point) == _specialized_sylvester_det(f, g, point)


def test_resultant_refuses_two_parameters():
    f, g = _parameter_forms(("u", "v", "s", "t"))
    with pytest.raises(ValueError, match="more than one parameter"):
        sylvester_resultant(f, g)


def test_resultant_without_parameters_is_a_fraction():
    f = qform([Fraction(1, 2), Fraction(-1, 3), 2])
    g = qform([Fraction(3, 4), 1])
    res = sylvester_resultant(f, g).constant_value()
    assert isinstance(res, Fraction)
    assert res == cofactor_det(
        [
            [Fraction(1, 2), Fraction(-1, 3), Fraction(2)],
            [Fraction(3, 4), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(3, 4), Fraction(1)],
        ]
    )
