"""Binary forms: resultants against independent oracles, gcd, squarefree parts."""

import random
from fractions import Fraction

import pytest

from exactgeom import binform, univar
from exactgeom.binform import (
    BinaryForm,
    binary_gcd,
    det_polynomial_matrix,
    form_from_coefficients,
    resultant_wrt,
    squarefree_part,
    sylvester_resultant,
)
from exactgeom.domains import QQ, PrimeField
from exactgeom.errors import InterpolationError
from exactgeom.multipoly import MultiPoly

UV = ("u", "v")


def qform(coeffs, variables=UV, pair=UV):
    return form_from_coefficients(QQ, variables, pair, [Fraction(c) for c in coeffs])


def cofactor_det(matrix):
    """Naive cofactor expansion; the independent determinant oracle."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        if not matrix[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * matrix[0][j] * cofactor_det(minor)
    return total


def test_homogeneity_validation():
    u, v = MultiPoly.gens(QQ, UV)
    with pytest.raises(ValueError):
        BinaryForm(u**2 + v, UV)


def test_resultant_two_linear_forms():
    # Res(a u + b v, c u + d v) = a d - b c
    names = ("u", "v", "a", "b", "c", "d")
    u, v, a, b, c, d = MultiPoly.gens(QQ, names)
    res = sylvester_resultant(BinaryForm(a * u + b * v, UV), BinaryForm(c * u + d * v, UV))
    assert res == a.drop_vars(UV) * d.drop_vars(UV) - b.drop_vars(UV) * c.drop_vars(UV)


def test_resultant_single_variable():
    u, t = MultiPoly.gens(QQ, ("u", "t"))
    res = resultant_wrt(u**2 - t, u - 1, "u")
    (t_only,) = MultiPoly.gens(QQ, ("t",))
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
    zero = BinaryForm(MultiPoly.zero(QQ, UV), UV)
    with pytest.raises(ValueError):
        sylvester_resultant(f, zero)


def test_resultant_multiplicativity_prime_field():
    rng = random.Random(11)
    F = PrimeField(10007)

    def rand_form(deg):
        while True:
            coeffs = [F.rand(rng) for _ in range(deg + 1)]
            form = form_from_coefficients(F, UV, UV, coeffs)
            if form.degree == deg:
                return form

    for _ in range(10):
        f, g, h = rand_form(2), rand_form(1), rand_form(2)
        fg = BinaryForm(f.poly * g.poly, UV)
        lhs = sylvester_resultant(fg, h).constant_value()
        rhs = (
            sylvester_resultant(f, h).constant_value()
            * sylvester_resultant(g, h).constant_value()
        )
        assert lhs == rhs


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
    u, v, s = MultiPoly.gens(QQ, names)
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
    du, dv, dcore = binform.dehomogenize(d.coefficient_list())
    fu, fv, fcore = binform.dehomogenize(f.coefficient_list())
    if du > fu or dv > fv:
        return False
    rem = univar.divmod_(fcore, dcore, QQ)[1]
    return not rem


def test_gcd_shared_factor():
    f = qform([1, -1, -1, 1])  # (u - v)^2 (u + v)
    g = qform([1, 1, -2])  # (u - v)(u + 2v)
    u, v = MultiPoly.gens(QQ, UV)
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
    u, v = MultiPoly.gens(QQ, UV)
    f = BinaryForm(v**2 * (u + v), UV)
    g = BinaryForm(v * (u - v), UV)
    d = binary_gcd(f, g)
    assert d.poly == v


def test_gcd_both_zero_rejected():
    zero = BinaryForm(MultiPoly.zero(QQ, UV), UV)
    with pytest.raises(ValueError):
        binary_gcd(zero, zero)


def test_squarefree_part_examples():
    u, v = MultiPoly.gens(QQ, UV)
    assert squarefree_part(qform([1, -1, -1, 1])).poly == (u - v) * (u + v)
    # squarefree input is only normalized
    f = qform([2, 0, 2])
    assert squarefree_part(f).poly == u**2 + v**2
    # u^2 (u - v)^2 -> u (u - v); the expected value comes from the factorization
    g = BinaryForm(u**2 * (u - v) ** 2, UV)
    assert squarefree_part(g).poly == u * (u - v)


def test_squarefree_part_idempotent():
    f = qform([1, 3, 1, -2])
    once = squarefree_part(f)
    assert squarefree_part(once).poly == once.poly


def test_square_of_squarefree_part_divides_only_repeated_inputs():
    rng = random.Random(47)
    for _ in range(15):
        coeffs = [Fraction(rng.randrange(-5, 6)) for _ in range(5)]
        if not any(coeffs):
            continue
        f = qform(coeffs)
        sf = squarefree_part(f)
        squared = BinaryForm(sf.poly * sf.poly, UV)
        had_repeated_factor = sf.degree < f.degree
        if not had_repeated_factor:
            assert not _divides(squared, f)
    # and when the input is an exact square, the squared part divides it
    square = qform([1, 4, 4])  # (u + 2v)^2
    assert _divides(
        BinaryForm(squarefree_part(square).poly ** 2, UV), square
    )


def test_squarefree_char_guard():
    F = PrimeField(10007)
    small = PrimeField(3)
    form = form_from_coefficients(small, UV, UV, [1, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        squarefree_part(form)
    ok = form_from_coefficients(F, UV, UV, [1, 0, 0, 0, 1])
    assert squarefree_part(ok).degree >= 1


def test_det_constant_paths_agree():
    rng = random.Random(19)
    p = 10007
    F = PrimeField(p)
    for n in (2, 4, 6):
        ints = [[rng.randrange(-50, 51) for _ in range(n)] for _ in range(n)]
        rational = binform.det_constant(
            [[Fraction(c) for c in row] for row in ints], QQ
        )
        modular = binform.det_constant(
            [[F.elem(c) for c in row] for row in ints], F
        )
        assert modular == F.elem(int(rational) % p)
        assert rational.denominator == 1
        assert cofactor_det([[Fraction(c) for c in row] for row in ints]) == rational


def test_interpolation_insufficient_points():
    F = PrimeField(5)
    x, s = MultiPoly.gens(F, ("x", "s"))
    entry = s**3 + 1
    rows = [[entry, entry], [entry, entry + s**2]]
    with pytest.raises(InterpolationError):
        det_polynomial_matrix(rows)
