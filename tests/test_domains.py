"""Field arithmetic: prime fields, extension towers, square roots."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exactgeom import univar
from exactgeom.domains import (
    QQ,
    ExtensionField,
    PrimeField,
    adjoin_sqrt,
    is_prime,
)
from exactgeom.errors import DomainMismatchError


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 10007, 31991, 2**31 - 1}
    composites = {1, 0, 4, 9, 10007 * 3, 31991 * 7, 2**31 - 2}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in composites)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(10006)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_prime_field_arithmetic():
    F = PrimeField(13)
    a, b = F.elem(7), F.elem(9)
    assert a + b == F.elem(3)
    assert a - b == F.elem(-2)
    assert a * b == F.elem(63)
    assert (a / b) * b == a
    assert a ** (13 - 1) == F.one()
    assert -a == F.elem(6)
    assert bool(F.zero()) is False
    with pytest.raises(ZeroDivisionError):
        a / F.zero()


def test_mixed_field_operations_rejected():
    a = PrimeField(13).elem(1)
    b = PrimeField(17).elem(1)
    with pytest.raises(DomainMismatchError):
        a + b


def test_reflected_operators_with_ints():
    F = PrimeField(13)
    a = F.elem(4)
    assert 1 - a == F.elem(-3)
    assert 2 + a == F.elem(6)
    assert 3 * a == F.elem(12)
    assert 1 / a == F.one() / a
    assert a ** (-1) * a == F.one()


def test_sqrt_fast_path_p3mod4():
    F = PrimeField(10007)  # 3 mod 4
    for n in (4, 9, 2500, 123 * 123):
        r = F.sqrt(F.elem(n))
        assert r is not None and r * r == F.elem(n)


@pytest.mark.parametrize("p", [13, 19])
def test_sqrt_exhaustive_small_field(p):
    # p = 13 is 1 mod 4, exercising Tonelli-Shanks; p = 19 is 3 mod 4, where
    # the one-power shortcut must return None for every non-residue
    F = PrimeField(p)
    squares = {(F.elem(n) * F.elem(n)).value for n in range(p)}
    for n in range(p):
        a = F.elem(n)
        r = F.sqrt(a)
        if n in squares:
            assert r is not None and r * r == a
        else:
            assert r is None


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert QQ.sqrt(Fraction(0)) == 0
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-4)) is None


def test_rational_raw_hooks_stay_exact():
    # a rational is its own raw value, and an int inverts to a Fraction, not a float
    inverse = QQ._rinv(3)
    assert type(inverse) is Fraction and inverse == Fraction(1, 3)
    assert QQ._rinv(Fraction(-2, 5)) == Fraction(-5, 2)
    with pytest.raises(ZeroDivisionError):
        QQ._rinv(0)
    assert type(QQ._rfrom_int(2)) is Fraction
    assert QQ._rmul(Fraction(1, 2), 4) == 2 and QQ._rsub(1, Fraction(1, 3)) == Fraction(2, 3)
    assert QQ._radd(Fraction(1, 2), 1) == Fraction(3, 2)
    assert QQ._ris_zero(Fraction(0)) and not QQ._ris_zero(Fraction(1, 7))
    assert QQ.wrap(Fraction(1, 2)) == Fraction(1, 2)


def test_extension_field_gf9():
    F3 = PrimeField(3)
    K = ExtensionField(F3, [1, 0, 1], name="i")  # i^2 = -1
    assert K.order == 9 and K.char == 3
    i = K.generator()
    assert i * i == K.elem(-1)
    # every nonzero element is invertible and satisfies x^8 = 1
    seen = set()
    for n in range(9):
        x = K.wrap(K._rfrom_index(n))
        seen.add(x.value)
        if x:
            assert x * (K.one() / x) == K.one()
            assert x**8 == K.one()
    assert len(seen) == 9


def test_extension_rejects_reducible_modulus():
    F5 = PrimeField(5)
    with pytest.raises(ValueError):
        ExtensionField(F5, [1, 0, 1])  # t^2 + 1 = (t+2)(t+3) over GF(5)


def test_extension_rejects_nonmonic():
    F5 = PrimeField(5)
    with pytest.raises(ValueError):
        ExtensionField(F5, [1, 0, 2])


def test_extension_rejects_modulus_coefficients_of_another_field():
    F7 = PrimeField(7)
    # GF(11)'s 10 would be stored as the raw value 10, outside [0, 7)
    with pytest.raises(DomainMismatchError):
        ExtensionField(F7, [PrimeField(11).elem(10), 0, 1])
    K = ExtensionField(F7, [F7.elem(1), 0, 1], name="i")  # t^2 + 1, 7 = 3 mod 4
    assert K.modulus == (1, 0, 1)
    # over a tower, the coefficients must lie in the tower, not in its base
    with pytest.raises(DomainMismatchError):
        ExtensionField(K, [F7.elem(3), 0, 1])


def test_tower_field():
    F3 = PrimeField(3)
    K = ExtensionField(F3, [1, 0, 1], name="i")
    # find a non-square in K and climb one more level
    non_square = next(
        x for x in K._element_iter() if x and K.sqrt(x) is None
    )
    L, root, lift = adjoin_sqrt(K, non_square, name="s")
    assert L.order == 81
    assert root * root == lift(non_square)
    # arithmetic in the tower stays consistent with the base embedding
    a = K.elem(2)
    assert lift(a) + lift(K.one()) == lift(a + K.one())


def test_adjoin_sqrt_when_square_exists():
    F = PrimeField(10007)
    field2, root, lift = adjoin_sqrt(F, F.elem(49))
    assert field2 is F
    assert root * root == F.elem(49)
    assert lift(F.elem(5)) == F.elem(5)


@given(st.integers(0, 10006), st.integers(0, 10006), st.integers(0, 10006))
def test_prime_field_ring_axioms(a, b, c):
    F = PrimeField(10007)
    x, y, z = F.elem(a), F.elem(b), F.elem(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


def test_extension_sqrt():
    F = PrimeField(10007)
    K = ExtensionField(F, [5, 1, 1], name="t", check=True)
    rng = random.Random(0)
    found_square = found_nonsquare = False
    for _ in range(40):
        a = K.rand(rng)
        if not a:
            continue
        r = K.sqrt(a)
        if r is None:
            found_nonsquare = True
        else:
            found_square = True
            assert r * r == a
    assert found_square and found_nonsquare


def _gf9():
    return ExtensionField(PrimeField(3), [1, 0, 1], name="i")


def _gf81_tower():
    K = _gf9()
    return ExtensionField(K, [-(K.generator() + 1), 0, 1], name="s")  # 1 + i generates GF(9)*


def _gf729_tower():
    K = _gf9()
    return ExtensionField(K, [K.generator(), 1, 0, 1], name="s")


NONRESIDUE_FIELDS = {
    "GF(9)": _gf9,
    "GF(169)": lambda: ExtensionField(PrimeField(13), [-2, 0, 1]),
    "GF(125)": lambda: ExtensionField(PrimeField(5), [1, 1, 0, 1]),
    "GF(7^4)": lambda: ExtensionField(PrimeField(7), [1, 0, 0, 1, 1]),
    "GF(9)[s], order 81": _gf81_tower,
    "GF(9)[s], order 729": _gf729_tower,
}


@pytest.mark.parametrize("build", NONRESIDUE_FIELDS.values(), ids=NONRESIDUE_FIELDS.keys())
def test_nonresidue_is_first_nonresidue_of_the_enumeration(build):
    K = build()
    half = (K.order - 1) // 2
    first = next(x for x in K._element_iter() if x and x**half != K.one())
    assert K._nonresidue() == first


def test_nonresidue_skips_the_prime_field_of_a_quadratic_extension(monkeypatch):
    K = ExtensionField(PrimeField(10007), [5, 1, 1], name="t", check=True)
    calls = []
    original = ExtensionField._rfrom_index

    def counting(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(ExtensionField, "_rfrom_index", counting)
    assert K._nonresidue() == K.generator()
    assert len(calls) <= 10


def _gf10007_squared():
    return ExtensionField(PrimeField(10007), [5, 1, 1], name="t")


def _repeated_product(a, exponent):
    one = a.field.one()
    if exponent < 0:
        a, exponent = one / a, -exponent
    result = one
    for _ in range(exponent):
        result = result * a
    return result


POWER_FIELDS = {"GF(10007)": lambda: PrimeField(10007), "GF(10007^2)": _gf10007_squared}


@pytest.mark.parametrize("build", POWER_FIELDS.values(), ids=POWER_FIELDS.keys())
def test_power_matches_repeated_multiplication(build):
    K = build()
    p = K.char
    rng = random.Random(41)
    elements = [K.rand(rng) for _ in range(2)]
    assert all(elements)
    for a in elements:
        for exponent in (0, 1, 2, 7, -1, -3, p - 1, p):
            power = a**exponent
            assert power.field == K
            assert power == _repeated_product(a, exponent), exponent
    zero = K.zero()
    assert zero**0 == K.one()
    with pytest.raises(ZeroDivisionError):
        zero**-1


# monic irreducibles over GF(3), the first of each degree in enumeration order
GF3_MODULI = {
    2: [1, 0, 1],
    3: [1, 0, 2, 1],
    4: [1, 0, 1, 1, 1],
    5: [1, 0, 0, 0, 2, 1],
    6: [1, 0, 0, 0, 1, 1, 1],
}
EXTENSION_POWER_FIELDS = {
    **{
        f"GF(3^{k})": (lambda m=modulus: ExtensionField(PrimeField(3), m))
        for k, modulus in GF3_MODULI.items()
    },
    "GF(9)[s], order 81": _gf81_tower,
    "GF(9)[s], order 729": _gf729_tower,
}


@pytest.mark.parametrize(
    "build", EXTENSION_POWER_FIELDS.values(), ids=EXTENSION_POWER_FIELDS.keys()
)
def test_extension_power_matches_repeated_multiplication(build):
    # powers in GF(q) run through univar.pow_mod on the modulus, in a tower
    # over the base field's own raw values
    K = build()
    q = K.order
    rng = random.Random(q)
    elements = [K.generator()] + [a for a in (K.rand(rng) for _ in range(2)) if a]
    for a in elements:
        for exponent in (0, 1, 2, 5, q - 1, q):
            for e in (exponent, -exponent):
                power = a**e
                assert power.field == K
                assert power == _repeated_product(a, e), e
        assert a ** (q - 1) == K.one() and a**q == a


# The square root is deterministic; these pin which of the two roots it
# returns (None for a non-square), so a change in how powers are computed
# cannot swap them unnoticed.
PINNED_PRIME_ROOTS = {
    10009: {2: 4419, 3: 3766, 7: None, 1234: 1872, 10008: 3303, 9109: 1000, 5783: 6944},
    65537: {2: 4080, 3: None, 1234: 17041, 65536: 256, 16945: 1000, 50618: 26137},
    2**31 - 1: {2: 65536, 3: None, 2**31 - 2: None, 10**6: 2147482647, 123456789: 535399271},
}
PINNED_EXTENSION_ROOTS = {
    (0, 1): None,
    (2, 3): None,
    (5, 16): (5, 2),
    (7, 0): (2626, 5252),
    (10006, 0): (8232, 6457),
    (14, 10003): (9292, 5615),
}


@pytest.mark.parametrize("p", PINNED_PRIME_ROOTS)
def test_prime_sqrt_returns_the_pinned_root(p):
    F = PrimeField(p)
    for a, root in PINNED_PRIME_ROOTS[p].items():
        found = F.sqrt(F.elem(a))
        assert (None if found is None else found.value) == root, a


def test_extension_sqrt_returns_the_pinned_root():
    K = _gf10007_squared()
    for a, root in PINNED_EXTENSION_ROOTS.items():
        found = K.sqrt(K.wrap(a))
        assert (None if found is None else found.value) == root, a


# (p, a, is a square, non-residue lookups): 5 and 3 are non-squares mod 10007
# and 65537; 4 mod 65537 has t = a^e = 4 != 1, so it takes a Tonelli-Shanks step
SQRT_POWER_CASES = [
    (10007, 4, True, 0),
    (10007, 5, False, 0),
    (65537, 3, False, 0),
    (65537, 4, True, 1),
]


@pytest.mark.parametrize("p, a, square, lookups", SQRT_POWER_CASES)
def test_sqrt_takes_one_power_of_its_argument(monkeypatch, p, a, square, lookups):
    F = PrimeField(p)
    bases, nonresidues = [], 0
    power, nonresidue = PrimeField._rpow, PrimeField._nonresidue

    def counting_power(self, base, exponent):
        bases.append(base)
        return power(self, base, exponent)

    def counting_nonresidue(self):
        nonlocal nonresidues
        nonresidues += 1
        return nonresidue(self)

    monkeypatch.setattr(PrimeField, "_rpow", counting_power)
    monkeypatch.setattr(PrimeField, "_nonresidue", counting_nonresidue)
    root = F.sqrt(F.elem(a))
    monkeypatch.undo()
    assert (root is not None) == square
    assert root is None or root * root == F.elem(a)
    assert bases.count(a) == 1
    assert nonresidues == lookups


def test_extension_sqrt_takes_its_power_through_the_frobenius(monkeypatch):
    # GF(10007^13), q = 3 mod 4: a square root is one power with exponent
    # (q - 3)/4, which has about 171 bits; read in base p it has 13 digits
    # of two values, so Horner's rule with the Frobenius rows takes a few
    # dozen extension products where square-and-multiply takes 256
    F = PrimeField(10007)
    modulus = [7126, 2244, 2430, 861, 1833, 6038, 2560, 3576, 5045, 4970, 9883, 6362, 4766, 1]
    K = ExtensionField(F, modulus)
    rng = random.Random(13)
    b = K.rand(rng)
    a = b * b
    products = 0
    mul = univar.mul

    def counting_mul(x, y, field):
        nonlocal products
        products += 1
        return mul(x, y, field)

    monkeypatch.setattr(univar, "mul", counting_mul)
    counts = []
    for value in (a, a + 1, a):
        products = 0
        root = K.sqrt(value)
        counts.append(products)
        assert root is None or root * root == value
    products = 0
    univar.pow_mod(list(a.value), (K.order - 3) // 4, modulus, F)
    square_and_multiply = products
    monkeypatch.undo()
    assert K.sqrt(a) in (b, -b) and K.sqrt(a + 1) is None
    # the first root also builds the rows, once per field
    assert square_and_multiply == 256
    assert counts[0] <= 80 and max(counts[1:]) <= 45


RAW_SQRT_FIELDS = {
    "GF(10007)": lambda: PrimeField(10007),
    "GF(10009)": lambda: PrimeField(10009),
    "GF(65537)": lambda: PrimeField(65537),
    "GF(9)[s], order 81": _gf81_tower,
    "GF(10007^2)": _gf10007_squared,
}


@pytest.mark.parametrize("build", RAW_SQRT_FIELDS.values(), ids=RAW_SQRT_FIELDS.keys())
def test_raw_sqrt_matches_sqrt(build):
    # 10007 is 3 mod 4 (no Tonelli-Shanks step), 10009 and 65537 are 1 mod 4
    # (2^3 and 2^16 divide p - 1); Euler's criterion decides each case
    K = build()
    rng = random.Random(f"raw sqrt:{K!r}")
    non_square, half = K._nonresidue(), (K.order - 1) // 2
    cases = [K.zero(), K.one(), non_square]
    for _ in range(40):
        x = K.rand(rng)
        cases += [x, x * x, non_square * x * x]
    seen = set()
    for a in cases:
        raw = K._rsqrt(a.value)
        boxed = K.sqrt(a)
        assert (None if boxed is None else boxed.value) == raw, a
        assert (raw is not None) == (not a or a**half == K.one()), a
        assert raw is None or K.wrap(raw) * K.wrap(raw) == a
        seen.add((bool(a), raw is not None))
    assert seen == {(False, True), (True, True), (True, False)}
