"""Univariate helpers: Euclid over any field, raw GF(p) kernel, factorization."""

import random
from fractions import Fraction

import pytest

from exactgeom import univar, zpoly
from exactgeom.domains import QQ, ExtensionField, PrimeField


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
    recombined = zpoly.zp_add(zpoly.zp_mul(q, b, p), r, p)
    assert recombined == zpoly.zp_trim(list(a))
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
