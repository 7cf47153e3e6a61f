"""Univariate helpers: Euclid over any field, raw GF(p) kernel, factorization."""

import random
from fractions import Fraction

import pytest

from exactgeom import binform, univar, zpoly
from exactgeom.domains import QQ, ExtensionField, PrimeField
from exactgeom.errors import InterpolationError


def frac(*coeffs):
    return [Fraction(c) for c in coeffs]


def test_divmod_over_rationals():
    # (w^2 - 1) = (w + 1)(w - 1)
    q, r = univar.divmod_(frac(-1, 0, 1), frac(1, 1), QQ)
    assert q == frac(-1, 1) and r == []


def test_gcd_over_rationals():
    # gcd((w-1)^2 (w+2), (w-1)(w-3)) = w - 1, monic
    a = univar.mul(univar.mul(frac(-1, 1), frac(-1, 1), QQ), frac(2, 1), QQ)
    b = univar.mul(frac(-1, 1), frac(-3, 1), QQ)
    assert univar.gcd(a, b, QQ) == frac(-1, 1)


def test_squarefree_part():
    a = univar.mul(univar.mul(frac(-1, 1), frac(-1, 1), QQ), frac(2, 1), QQ)
    assert univar.squarefree_part(a, QQ) == univar.mul(frac(-1, 1), frac(2, 1), QQ)


def test_squarefree_char_guard():
    F = PrimeField(5)
    six = [F.one()] + [F.zero()] * 5 + [F.one()]
    with pytest.raises(ValueError):
        univar.squarefree_part(six, F)


def test_pow_mod_matches_repeated_multiplication():
    F = PrimeField(10007)
    f = [F.elem(c) for c in (3, 0, 1, 2)]
    base = [F.elem(7), F.elem(1), F.elem(2)]
    direct = [F.one()]
    for _ in range(5):
        direct = univar.rem(univar.mul(direct, base, F), f, F)
    assert univar.pow_mod(base, 5, f, F) == direct


def test_zp_mul_kronecker_matches_schoolbook():
    p = 10007
    rng = random.Random(1)
    for n in (3, 15, 16, 40, 144):
        a = [rng.randrange(p) for _ in range(n)] + [1]
        b = [rng.randrange(p) for _ in range(n)] + [1]
        direct = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                direct[i + j] = (direct[i + j] + ai * bj) % p
        assert zpoly.zp_mul(a, b, p) == zpoly.zp_trim(direct)


def test_zp_divmod_and_gcd():
    p = 10007
    rng = random.Random(2)
    a = [rng.randrange(p) for _ in range(30)] + [1]
    b = [rng.randrange(p) for _ in range(11)] + [1]
    q, r = zpoly.zp_divmod(a, b, p)
    assert zpoly.zp_sub(a, zpoly.zp_mul(q, b, p), p) == r
    g = zpoly.zp_gcd(zpoly.zp_mul(a, b, p), b, p)
    assert g == zpoly.zp_monic(b, p)


def test_zp_inv_mod():
    p = 10007
    m = [1, 0, 0, 1, 1]  # irreducibility not required for invertibility tests
    rng = random.Random(3)
    for _ in range(10):
        a = zpoly.zp_trim([rng.randrange(p) for _ in range(4)])
        if not a:
            continue
        try:
            inv = zpoly.zp_inv_mod(a, m, p)
        except ZeroDivisionError:
            continue
        assert zpoly.zp_rem(zpoly.zp_mul(a, inv, p), m, p) == [1]


def test_zp_factor_recovers_known_factors():
    p = 10007
    rng = random.Random(4)
    # (t - 3)(t - 5)(t^2 + 1)(t^3 + t + 1); the quadratic is irreducible
    # because -1 is a non-square mod p = 3 mod 4
    parts = [[-3 % p, 1], [-5 % p, 1], [1, 0, 1], [1, 1, 0, 1]]
    product = [1]
    for part in parts:
        product = zpoly.zp_mul(product, part, p)
    factors = zpoly.zp_factor_squarefree(product, p, rng)
    assert sorted(zpoly.zp_deg(f) for f in factors) in ([1, 1, 2, 3], [1, 1, 1, 1, 2])
    F = PrimeField(p)
    reassembled = [1]
    for f in factors:
        assert univar.ff_is_irreducible([F.elem(c) for c in f], F)
        reassembled = zpoly.zp_mul(reassembled, f, p)
    assert reassembled == zpoly.zp_monic(product, p)


def test_zp_squarefree_part():
    p = 10007
    square = zpoly.zp_mul([1, 1], [1, 1], p)  # (t + 1)^2
    full = zpoly.zp_mul(square, [3, 1], p)
    assert zpoly.zp_squarefree_part(full, p) == zpoly.zp_mul([1, 1], [3, 1], p)


def test_ff_factor_over_extension_field():
    F = PrimeField(10007)
    K = ExtensionField(F, [1, 0, 1], name="i", check=False)  # -1 is a non-square
    i = K.generator()
    # x^2 + 1 = (x - i)(x + i) over K
    f = [K.one(), K.zero(), K.one()]
    factors = univar.ff_factor_squarefree(f, K, random.Random(5))
    assert [univar.deg(h) for h in factors] == [1, 1]
    roots = {(-h[0] / h[1]).value for h in factors}
    assert roots == {i.value, (-i).value}


def test_ff_is_irreducible():
    F = PrimeField(10007)
    assert univar.ff_is_irreducible([F.one(), F.zero(), F.one()], F)  # x^2 + 1
    assert not univar.ff_is_irreducible([F.elem(-1), F.zero(), F.one()], F)  # x^2 - 1


def _sylvester_det(f, g, p):
    """det of the Sylvester matrix of f, g (low degree first) at the formal
    degrees len - 1, f's rows first."""
    F = PrimeField(p)
    m, n = zpoly.zp_deg(f), zpoly.zp_deg(g)
    fv, gv = [F.elem(c) for c in reversed(f)], [F.elem(c) for c in reversed(g)]
    zero = F.zero()
    rows = [[zero] * i + fv + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gv + [zero] * (m - 1 - i) for i in range(m)]
    return binform.det_constant(rows, F).value


def test_zp_resultant_matches_the_sylvester_determinant():
    p = 10007
    rng = random.Random(6)

    def rand(degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    quartic = [1, 0, 0, 2, 3]
    cases = [
        (rand(3), rand(5)),  # odd * odd: the sign of every swap counts
        (rand(5), rand(3)),
        (rand(18), rand(12)),
        (rand(4), rand(0)),  # constant second argument: lc^m
        (rand(0), rand(4)),
        # f mod g = x + 5 drops three degrees below deg g = 4
        (zpoly.zp_sub(zpoly.zp_mul([0, 0, 1], quartic, p), [p - 5, p - 1], p), quartic),
    ]
    for f, g in cases:
        assert zpoly.zp_resultant(f, g, p) == _sylvester_det(f, g, p)
    # formal degrees above the true ones (trailing zeros): each vanishing
    # leading coefficient of f scales by (-1)^N lc(g), each of g by lc(f)
    formal = [
        (rand(4) + [0], rand(3)),  # one drop with N odd: the sign counts
        (rand(4) + [0, 0], rand(3)),
        (rand(4) + [0], rand(6)),
        (rand(5), rand(2) + [0, 0, 0]),
        (rand(18) + [0], rand(12) + [0]),  # both vanish: zero first column
    ]
    for f, g in formal:
        assert zpoly.zp_resultant(f, g, p) == _sylvester_det(f, g, p)
    assert _sylvester_det(*formal[-1], p) == 0
    # a common root x = 4 makes both sides vanish
    f = zpoly.zp_mul([p - 4, 1], rand(6), p)
    g = zpoly.zp_mul([p - 4, 1], rand(3), p)
    assert zpoly.zp_resultant(f, g, p) == 0 == _sylvester_det(f, g, p)


@pytest.mark.parametrize("p", [1009, 10007, 2**31 - 1])
def test_zp_pow_mod_matches_square_and_multiply_with_zp_rem(p):
    rng = random.Random(p)
    for degree in (1, 2, 16, 29, 90):
        modulus = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        base = [rng.randrange(p) for _ in range(2 * degree + 3)]
        exponent = rng.randrange(p**2)
        result, acc, e = [1], zpoly.zp_rem(base, modulus, p), exponent
        while e:
            if e & 1:
                result = zpoly.zp_rem(zpoly.zp_mul(result, acc, p), modulus, p)
            e >>= 1
            acc = zpoly.zp_rem(zpoly.zp_mul(acc, acc, p), modulus, p)
        assert zpoly.zp_pow_mod(base, exponent, modulus, p) == result


def test_zp_interpolate_round_trip():
    # consecutive points from 0 and from a negative start, and 145 points of
    # 31-bit values
    for p, x0, n in [(10007, 0, 31), (10007, -4, 19), (2**31 - 1, 0, 145)]:
        rng = random.Random(p + n)
        poly = [rng.randrange(p) for _ in range(n - 1)] + [1]
        values = [sum(c * (x0 + i) ** k for k, c in enumerate(poly)) for i in range(n)]
        assert zpoly.zp_interpolate(x0, values, p) == poly
        assert zpoly.zp_interpolate(x0, [v % p for v in values], p) == poly
        assert zpoly.zp_interpolate(x0, [3] * 5, p) == [3]
        assert zpoly.zp_interpolate(x0, [0] * 5, p) == []


def test_int_interpolate_is_scaled_by_the_factorial():
    # (x^2 - x) / 2 takes the values 1, 0, 0 at x = -1, 0, 1; 2! times it is x^2 - x
    assert zpoly.int_interpolate(-1, [1, 0, 0]) == [0, -1, 1]


def test_zp_interpolate_needs_distinct_points():
    # more than p consecutive points repeat mod p
    with pytest.raises(InterpolationError, match="only 101 elements"):
        zpoly.zp_interpolate(0, [0] * 102, 101)
    assert zpoly.zp_interpolate(0, list(range(101)), 101) == [0, 1]
