"""Univariate helpers: Euclid over any field, raw GF(p) kernel, factorization."""

import math
import random
from fractions import Fraction

import pytest

from exactgeom import binform, pencil24, univar, zpoly
from exactgeom.domains import QQ, ExtensionField, PrimeField
from exactgeom.errors import InterpolationError


def frac(*coeffs):
    return [Fraction(c) for c in coeffs]


def test_divmod_over_rationals():
    # (w^2 - 1) = (w + 1)(w - 1)
    q, r = univar.divmod_(frac(-1, 0, 1), frac(1, 1), QQ)
    assert q == frac(-1, 1) and r == []


def test_division_by_an_untrimmed_divisor_raises():
    # a divisor with a zero leading coefficient has no inverse to divide by,
    # over GF(p) as over an extension (t^2 + 1 is irreducible mod 7)
    F = PrimeField(7)
    K = ExtensionField(F, [1, 0, 1])
    for field in (F, K):
        a = [field._rfrom_int(c) for c in (1, 2, 3)]
        b = [field._rfrom_int(c) for c in (1, 0)]
        with pytest.raises(ZeroDivisionError):
            univar.rem(a, b, field)
        with pytest.raises(ZeroDivisionError):
            univar.rem(a, [], field)


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
    six = [1, 0, 0, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        univar.squarefree_part(six, F)


def test_pow_mod_matches_repeated_multiplication():
    # the GF(p) kernels and the generic path over GF(p^2), on raw values
    F = PrimeField(10007)
    K = ExtensionField(F, [1, 0, 1], name="i")
    for field, lift in ((F, F._rfrom_int), (K, K._rfrom_int)):
        f = [lift(c) for c in (3, 0, 1, 2)]
        base = [lift(7), lift(1), lift(2)]
        direct = [lift(1)]
        for _ in range(5):
            direct = univar.rem(univar.mul(direct, base, field), f, field)
        assert univar.pow_mod(base, 5, f, field) == direct


def _tower_over_gf9():
    # GF(9) = GF(3)[i]/(i^2 + 1), then s^2 = 1 + i, a non-square in GF(9)
    G = ExtensionField(PrimeField(3), [1, 0, 1], name="i")
    return ExtensionField(G, [-(G.generator() + 1), 0, 1], name="s")


@pytest.mark.parametrize(
    "build",
    [
        lambda: PrimeField(10007),
        lambda: ExtensionField(PrimeField(10007), [1, 0, 1], name="i"),
        _tower_over_gf9,
    ],
    ids=["GF(p)", "GF(p^2)", "tower"],
)
def test_pow_mod_with_frobenius_rows_matches_square_and_multiply(build):
    # the base-q digits with Horner's rule and the plain square-and-multiply
    # give the same reduced polynomial, for exponents below and above q
    field = build()
    q = field.order
    rng = random.Random(q)
    for degree in (2, 5):
        modulus = [field._rrand(rng) for _ in range(degree)] + [field._rfrom_int(1)]
        rows = univar.frobenius_rows(modulus, field)
        base = univar.trim([field._rrand(rng) for _ in range(degree + 2)], field)
        exponents = [0, 1, q - 1, q, q + 1, q**2, (q**degree - 1) // 2, rng.randrange(q**4)]
        for exponent in exponents:
            expected = univar.pow_mod(base, exponent, modulus, field)
            assert univar.pow_mod(base, exponent, modulus, field, rows) == expected, exponent


def test_zp_mul_kronecker_matches_schoolbook():
    # zp_mul packs at every size; the largest p gives the widest slots
    for p in (10007, 2**31 - 1):
        rng = random.Random(1)

        def rand(n):
            return [rng.randrange(p) for _ in range(n)] + [1]

        pairs = [(rand(n), rand(n)) for n in (1, 2, 3, 5, 6, 15, 16, 40, 144)]
        pairs += [(rand(m), rand(n)) for m, n in ((1, 40), (3, 144), (15, 16))]
        # zeros at both ends: a factor of x^3, and an untrimmed factor
        pairs += [([0, 0, 0] + rand(4), rand(9)), (rand(4) + [0, 0], rand(9))]
        pairs += [([p - 1] * 20, [p - 1] * 20)]
        for a, b in pairs:
            direct = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    direct[i + j] = (direct[i + j] + ai * bj) % p
            assert zpoly.zp_mul(a, b, p) == zpoly.zp_trim(direct)
            assert zpoly.zp_mul(b, a, p) == zpoly.zp_trim(direct)


def test_zp_divmod_and_gcd():
    p = 10007
    rng = random.Random(2)
    a = [rng.randrange(p) for _ in range(30)] + [1]
    b = [rng.randrange(p) for _ in range(11)] + [1]
    F = PrimeField(p)
    q, r = zpoly.zp_divmod(a, b, p)
    assert univar.sub(a, zpoly.zp_mul(q, b, p), F) == r
    g = univar.gcd(zpoly.zp_mul(a, b, p), b, F)
    assert g == univar.monic(b, F)


@pytest.mark.parametrize("p, n, words", [(10007, 66, 1), (2**31 - 1, 4, 1), (2**31 - 1, 5, 2)])
def test_packed_slots_round_trip_in_one_or_two_words(p, n, words):
    # a slot holds n products of two residues: one 64-bit word while
    # n p^2 < 2^64, else two
    assert zpoly._slot_words(n, p) == words
    rng = random.Random(n)
    cs = [rng.randrange(p) for _ in range(n - 1)] + [p - 1]
    assert zpoly._unpack(zpoly._pack(cs, words), n, words, p) == cs
    assert zpoly._unpack(zpoly._pack([0] * n, words), n, words, p) == []
    # the fullest slots: every coefficient p - 1, n products summed in the
    # middle slot of the square
    top = [p - 1] * n
    square = zpoly._unpack(zpoly._pack(top, words) ** 2, 2 * n - 1, words, p)
    direct = [sum((p - 1) ** 2 for i in range(n) if 0 <= k - i < n) % p for k in range(2 * n - 1)]
    assert square == direct == zpoly.zp_mul(top, top, p)


def _schoolbook_divmod(a, b, p):
    """Quotient and remainder over GF(p) by one subtraction per coefficient."""
    r = zpoly.zp_trim(list(a))
    q = [0] * max(0, len(r) - len(b) + 1)
    inverse = pow(b[-1], -1, p)
    while len(r) >= len(b):
        factor = r[-1] * inverse % p
        shift = len(r) - len(b)
        q[shift] = factor
        for j, c in enumerate(b):
            r[shift + j] = (r[shift + j] - factor * c) % p
        zpoly.zp_trim(r)
    return zpoly.zp_trim(q), r


@pytest.mark.parametrize("p", [7, 10007, 2**31 - 1])
def test_zp_divmod_matches_schoolbook_division(p):
    # the packed remainder takes one or two words a slot at 2^31 - 1,
    # depending on the number of steps
    rng = random.Random(p)
    for _ in range(80):
        a = [rng.randrange(p) for _ in range(rng.randrange(40))]
        b = [rng.randrange(p) for _ in range(rng.randrange(12))] + [rng.randrange(1, p)]
        assert zpoly.zp_divmod(a, b, p) == _schoolbook_divmod(a, b, p), (a, b)
    # the fullest slots, an untrimmed dividend, and constant divisors
    cases = [([p - 1] * 30, [p - 1] * 5), ([1, 2, 3, 0, 0], [1, 1]), ([], [3]), ([5, 6], [3])]
    cases += [([rng.randrange(p) for _ in range(25)], [rng.randrange(1, p)]) for _ in range(5)]
    for a, b in cases:
        assert zpoly.zp_divmod(a, b, p) == _schoolbook_divmod(a, b, p), (a, b)
        if len(b) == 1:
            q, r = zpoly.zp_divmod(a, b, p)
            assert r == [] and zpoly.zp_mul(q, b, p) == zpoly.zp_trim(list(a))


def test_zp_inv_mod():
    p = 10007
    m = [1, 0, 0, 1, 1]  # irreducibility not required for invertibility tests
    rng = random.Random(3)
    for _ in range(10):
        a = zpoly.zp_trim([rng.randrange(p) for _ in range(4)])
        if not a:
            continue
        try:
            inv = univar.inv_mod(a, m, PrimeField(p))
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
        assert univar.ff_is_irreducible(f, F)
        reassembled = zpoly.zp_mul(reassembled, f, p)
    assert reassembled == univar.monic(product, F)


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
    f = [K._rfrom_int(1), K._rfrom_int(0), K._rfrom_int(1)]
    factors = univar.ff_factor_squarefree(f, K, random.Random(5))
    assert [univar.deg(h) for h in factors] == [1, 1]
    roots = {(-K.wrap(h[0]) / K.wrap(h[1])).value for h in factors}
    assert roots == {i.value, (-i).value}


def test_ff_is_irreducible():
    F = PrimeField(10007)
    assert univar.ff_is_irreducible([1, 0, 1], F)  # x^2 + 1
    assert not univar.ff_is_irreducible([F.p - 1, 0, 1], F)  # x^2 - 1


def test_rabin_test_counts_the_irreducibles_of_gauss_formula():
    # there are (1/n) sum_{d | n} mu(d) q^(n/d) monic irreducibles of degree
    # n over GF(q): 18 and 116 of degrees 4 and 6 over GF(3), and 36 and 240
    # of degrees 2 and 3 over GF(9) = GF(3)[i]/(i^2 + 1)
    F = PrimeField(3)
    K = ExtensionField(F, [1, 0, 1], name="i")
    for field, n, expected in ((F, 4, 18), (F, 6, 116), (K, 2, 36), (K, 3, 240)):
        one = field._rfrom_int(1)
        count = 0
        for index in range(field.order**n):
            cs = []
            for _ in range(n):
                cs.append(field._rfrom_index(index % field.order))
                index //= field.order
            count += univar.ff_is_irreducible(cs + [one], field)
        assert count == expected, (field, n)


def _random_irreducible(field, degree, rng):
    # about one monic polynomial in `degree` is irreducible
    one = field._rfrom_int(1)
    for _ in range(50 * degree):
        f = [field._rrand(rng) for _ in range(degree)] + [one]
        if univar.ff_is_irreducible(f, field):
            return f
    raise AssertionError(f"no irreducible of degree {degree} found")


@pytest.mark.parametrize("p", [1009, 10007, 2**31 - 1])
def test_frobenius_matches_pow_mod(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for degree in (1, 2, 17, 90):
        # rows of a monic and of a non-monic modulus
        for lead in (1, rng.randrange(2, p)):
            f = [rng.randrange(p) for _ in range(degree)] + [lead]
            rows = univar.frobenius_rows(f, F)
            for _ in range(4):
                h = zpoly.zp_trim([rng.randrange(p) for _ in range(degree)])
                assert univar.frobenius(h, rows, F) == univar.pow_mod(h, p, f, F)
            top = zpoly.zp_trim([p - 1] * degree)
            assert univar.frobenius(top, rows, F) == univar.pow_mod(top, p, f, F)


def test_frobenius_over_gf_p2_matches_pow_mod():
    K = ExtensionField(PrimeField(10007), [1, 0, 1], name="i")
    rng = random.Random(10007)
    for degree in (1, 2, 5, 9):
        f = [K._rrand(rng) for _ in range(degree)] + [K._rrand(rng)]
        rows = univar.frobenius_rows(f, K)
        for _ in range(4):
            h = univar.trim([K._rrand(rng) for _ in range(degree)], K)
            assert univar.frobenius(h, rows, K) == univar.pow_mod(h, K.order, f, K)


def test_distinct_degree_splitting_takes_one_modular_power(monkeypatch):
    # irreducibles of pairwise different degrees: each distinct-degree group
    # is one factor, so the equal-degree step takes no power, and the
    # distinct-degree steps read the Frobenius rows built from one x^p mod f
    p = 10007
    F = PrimeField(p)
    rng = random.Random(20)
    parts = [_random_irreducible(F, d, rng) for d in (1, 2, 3, 5, 8)]
    product = [1]
    for part in parts:
        product = zpoly.zp_mul(product, part, p)
    powers = 0
    kernel = univar.pow_mod

    def counting(base, exponent, modulus, field):
        nonlocal powers
        powers += 1
        return kernel(base, exponent, modulus, field)

    monkeypatch.setattr(univar, "pow_mod", counting)
    factors = univar.split_squarefree(product, F, rng)
    monkeypatch.undo()
    assert powers == 1
    assert sorted(factors) == sorted(parts)


def test_factorization_at_a_31_bit_prime():
    # the packed Frobenius rows at p = 2^31 - 1 and degree 60 need slots of
    # (60 p^2).bit_length() + 1 = 69 bits; two factors of degree 19 make the
    # equal-degree step split a product
    p = 2**31 - 1
    F = PrimeField(p)
    rng = random.Random(31)
    parts = [_random_irreducible(F, d, rng) for d in (3, 7, 12, 19, 19)]
    assert parts[-1] != parts[-2]
    product = [1]
    for part in parts:
        product = zpoly.zp_mul(product, part, p)
    assert zpoly.zp_deg(product) == 60
    factors = zpoly.zp_factor_squarefree(zpoly.zp_mul(product, [5], p), p, rng)
    reassembled = [1]
    for f in factors:
        assert univar.ff_is_irreducible(f, F)
        reassembled = zpoly.zp_mul(reassembled, f, p)
    assert reassembled == product
    assert sorted(factors) == sorted(parts)


def test_zp_factorization_does_not_depend_on_the_rng():
    # the factors are unique and sorted, so the equal-degree draws do not
    # show in the output: the pencil count may factor in pieces
    p = 10007
    r = list(pencil24.raw_resultant(*pencil24.random_pencil(p, 1)))
    squarefree = zpoly.zp_squarefree_part(r, p)
    assert zpoly.zp_deg(squarefree) == 90
    lists = [zpoly.zp_factor_squarefree(squarefree, p, random.Random(seed)) for seed in (1, 2, 3)]
    assert lists[0] == lists[1] == lists[2]
    assert any(zpoly.zp_deg(a) == zpoly.zp_deg(b) for a, b in zip(lists[0], lists[0][1:]))


def test_extension_factorization_does_not_depend_on_the_rng():
    # four linear and two quadratic factors over GF(p^2): the equal-degree
    # step splits products of several factors, drawing from the rng
    F = PrimeField(10007)
    K = ExtensionField(F, [1, 0, 1], name="i")
    rng = random.Random(9)
    f = [K._rfrom_int(1)]
    for degree in (1,) * 4 + (2,) * 2:
        f = univar.mul(f, [K._rrand(rng) for _ in range(degree)] + [K._rfrom_int(1)], K)
    assert univar.squarefree_part(f, K) == f
    lists = [univar.ff_factor_squarefree(f, K, random.Random(seed)) for seed in (1, 2, 3)]
    assert lists[0] == lists[1] == lists[2]
    assert [univar.deg(h) for h in lists[0]].count(1) >= 4


def _random_squarefree(F, degree, rng):
    while True:
        f = [rng.randrange(F.p) for _ in range(degree)] + [rng.randrange(1, F.p)]
        if univar.deg(univar.gcd(f, univar.derivative(f, F), F)) == 0:
            return f


def test_factorization_over_gf_p2_refines_the_one_over_gf_p():
    # an irreducible of degree d over GF(p) splits over GF(p^2) into two
    # factors of degree d/2 when d is even and stays irreducible when d is
    # odd; over GF(p^2) the splitter runs the generic path, with no kernels
    F = PrimeField(10007)
    K = ExtensionField(F, [1, 0, 1], name="i")
    rng = random.Random(8)
    parities = set()
    for degree in (4, 5, 6, 7):
        f = _random_squarefree(F, degree, rng)
        over_f = zpoly.zp_factor_squarefree(f, F.p, rng)
        over_k = univar.ff_factor_squarefree([K._rfrom_int(c) for c in f], K, rng)
        product = [K._rfrom_int(1)]
        for h in over_k:
            assert univar.ff_is_irreducible(h, K)
            product = univar.mul(product, h, K)
        assert product == [K._rfrom_int(c) for c in univar.monic(f, F)]
        covered = 0
        for g in over_f:
            assert univar.ff_is_irreducible(g, F)
            lifted = [K._rfrom_int(c) for c in g]
            parts = [h for h in over_k if not univar.rem(lifted, h, K)]
            covered += len(parts)
            d = univar.deg(g)
            parities.add(d % 2)
            if d % 2:
                assert parts == [lifted]
                assert univar.ff_is_irreducible(lifted, K)
            else:
                assert [univar.deg(h) for h in parts] == [d // 2, d // 2]
                assert univar.mul(*parts, K) == lifted
                assert not univar.ff_is_irreducible(lifted, K)
        assert covered == len(over_k)
    assert parities == {0, 1}


def _degree_29_elements():
    """p = 10007, the modulus t^29 + t + 3 and seven elements of
    GF(p)[t]/(modulus), with 1 to 29 nonzero low coefficients."""
    p = 10007
    modulus = [3, 1] + [0] * 27 + [1]  # irreducible over GF(10007)
    K = ExtensionField(PrimeField(p), modulus)
    rng = random.Random(29)
    elements = [
        K.wrap(tuple(rng.randrange(1, p) for _ in range(k)) + (0,) * (29 - k))
        for k in (1, 3, 10, 15, 16, 28, 29)
    ]
    return p, modulus, elements


def test_extension_products_reach_zp_mul_trimmed(monkeypatch):
    # ExtensionField._rmul trims its padded tuples before the kernel: padded
    # inputs would pack more zero slots into zp_mul's integers.  Only
    # products are taken here, so every recorded call comes from _rmul (its
    # reduction, a zp_divmod, multiplies no polynomials).
    p, modulus, elements = _degree_29_elements()
    inputs = []
    kernel = univar.mul

    def recording(a, b, field):
        inputs.extend((a, b))
        return kernel(a, b, field)

    monkeypatch.setattr(univar, "mul", recording)
    products = [a * b for a in elements for b in elements]
    monkeypatch.undo()
    assert len(inputs) == 2 * len(products)
    assert all(cs and cs[-1] for cs in inputs)
    for (a, b), product in zip([(a, b) for a in elements for b in elements], products):
        expected = zpoly.zp_rem(zpoly.zp_mul(list(a.value), list(b.value), p), modulus, p)
        assert product.value == tuple(expected) + (0,) * (29 - len(expected))


def test_extension_products_take_one_division(monkeypatch):
    # _rmul reduces the trimmed product by one zp_divmod modulo the field's
    # modulus, and a field built unchecked computes nothing ahead of them
    p, modulus, elements = _degree_29_elements()
    calls = []
    kernels = {name: getattr(zpoly, name) for name in ("zp_mul", "zp_divmod")}

    def recording(name):
        def kernel(a, b, p):
            calls.append((name, list(a), list(b)))
            return kernels[name](a, b, p)

        return kernel

    for name in kernels:
        monkeypatch.setattr(zpoly, name, recording(name))
    ExtensionField(PrimeField(p), modulus, check=False)
    assert calls == []
    pairs = [(a, b) for a in elements for b in elements]
    products = [a * b for a, b in pairs]
    monkeypatch.undo()
    assert len(products) == 49
    divisions = [(a, b) for name, a, b in calls if name == "zp_divmod"]
    assert len(divisions) == 49
    for (a, b), (dividend, divisor) in zip(pairs, divisions):
        trimmed = (zpoly.zp_trim(list(x.value)) for x in (a, b))
        assert dividend == zpoly.zp_mul(*trimmed, p)
        assert divisor == modulus


def _schoolbook_rem(a, m, field, inv_lead):
    """a mod m by long division on the elements of ``field``, given the
    inverse of m's leading coefficient: the remainder's raw values, trimmed."""
    r = [field.wrap(c) for c in a]
    m = [field.wrap(c) for c in m]
    n = len(m) - 1
    for shift in range(len(r) - 1 - n, -1, -1):
        factor = r[shift + n] * inv_lead
        for j, c in enumerate(m):
            r[shift + j] = r[shift + j] - factor * c
    return univar.trim([c.value for c in r[:n]], field)


@pytest.mark.parametrize("p", [1009, 10007, 2**31 - 1])
def test_reducer_matches_rem_over_gf_p(p):
    # univar.rem, the packed zp_divmod over GF(p), against long division on
    # single residues: small and large degrees, monic and non-monic moduli,
    # and at 2^31 - 1 the two-word slots of the packed remainder
    F = PrimeField(p)
    rng = random.Random(p)
    for degree in (1, 2, 15, 16, 17, 29, 90):
        for lead in (1, rng.randrange(2, p)):
            m = [rng.randrange(p) for _ in range(degree)] + [lead]
            inv_lead = F.wrap(pow(lead, -1, p))
            for _ in range(3):
                x, y = (zpoly.zp_trim([rng.randrange(p) for _ in range(degree)]) for _ in "xy")
                a = univar.mul(x, y, F)
                assert univar.rem(a, m, F) == _schoolbook_rem(a, m, F, inv_lead)
            top = univar.mul([p - 1] * degree, [p - 1] * degree, F)
            assert univar.rem(top, m, F) == _schoolbook_rem(top, m, F, inv_lead)


def test_reducer_matches_rem_over_gf_p2():
    # the generic path: an extension field as the coefficient field
    K = ExtensionField(PrimeField(10007), [1, 0, 1], name="i")
    rng = random.Random(10007)
    for degree in (1, 2, 5, 17):
        for lead in (K._rfrom_int(1), K._rrand(rng)):
            m = [K._rrand(rng) for _ in range(degree)] + [lead]
            inv_lead = K.wrap(lead) ** -1
            for _ in range(3):
                x, y = (univar.trim([K._rrand(rng) for _ in range(degree)], K) for _ in "xy")
                a = univar.mul(x, y, K)
                assert univar.rem(a, m, K) == _schoolbook_rem(a, m, K, inv_lead)


def _sylvester_det(f, g):
    """det of the Sylvester matrix of f, g (ints, low degree first) at the
    formal degrees len - 1, f's rows first, by Bareiss over QQ."""
    m, n = len(f) - 1, len(g) - 1
    fv, gv = [Fraction(c) for c in reversed(f)], [Fraction(c) for c in reversed(g)]
    zero = Fraction(0)
    rows = [[zero] * i + fv + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gv + [zero] * (m - 1 - i) for i in range(m)]
    det = binform.det_constant(rows)
    assert det.denominator == 1
    return det.numerator


def _assert_matches_mod_p(f, g, p):
    """int_resultant on the ints themselves, and reduced mod p on the
    residues in [0, p), against the Sylvester determinant."""
    det = _sylvester_det(f, g)
    assert zpoly.int_resultant(f, g) == det
    residues = ([c % p for c in f], [c % p for c in g])
    assert zpoly.int_resultant(*residues) % p == det % p


def test_int_resultant_mod_p_matches_the_sylvester_determinant():
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
        (univar.sub(zpoly.zp_mul([0, 0, 1], quartic, p), [p - 5, p - 1], PrimeField(p)), quartic),
    ]
    for f, g in cases:
        _assert_matches_mod_p(f, g, p)
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
        _assert_matches_mod_p(f, g, p)
    assert _sylvester_det(*formal[-1]) == 0
    # a common root x = 4 mod p makes both sides vanish mod p
    f = zpoly.zp_mul([p - 4, 1], rand(6), p)
    g = zpoly.zp_mul([p - 4, 1], rand(3), p)
    assert zpoly.int_resultant(f, g) % p == 0 == _sylvester_det(f, g) % p
    _assert_matches_mod_p(f, g, p)
    # a zero polynomial of formal degree M against a constant c of formal
    # degree 0: M rows of c, so the determinant is c^M, not 0
    assert zpoly.int_resultant([0, 0], [5]) % 7 == 5 == zpoly.int_resultant([0, 0], [5])
    for f, g in [([0, 0, 0], [5]), ([5], [0, 0, 0]), ([0], [0, 0]), ([0], [0]), ([0, 0], [0])]:
        _assert_matches_mod_p(f, g, p)


def test_int_resultant_matches_the_sylvester_determinant():
    rng = random.Random(13)

    def rand(degree, density=1.0):
        return [rng.randrange(-40, 41) if rng.random() < density else 0 for _ in range(degree + 1)]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    cases = [
        # the remainder of x^8 + 1 by x^5 + 3 is -3x^3 + 1: a jump of two
        ([1, 0, 0, 0, 0, 0, 0, 0, 1], [3, 0, 0, 0, 0, 1]),
        ([2, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 5]),  # odd * odd; the remainder is constant
        ([0, 0, 0, 5], [2, 0, 0, 0, 0, 0, 0, 1]),  # swapped: the sign counts
        ([7], [1, 2, 3]),  # constant first argument: c^N
        ([1, 2, 3, 4], [-6]),  # constant second argument: c^M
        ([0, 1, 2, 0], [3, 0, 1, 0]),  # both leading coefficients vanish
    ]
    for _ in range(300):
        f, g = rand(rng.randrange(9)), rand(rng.randrange(9))
        cases.append((f, g))
        # sparse: the remainder sequence jumps by more than one degree
        cases.append((rand(rng.randrange(9), 0.3), rand(rng.randrange(9), 0.3)))
        # a common factor: the resultant is 0
        common = rand(rng.randrange(1, 4))
        if common[-1]:
            f, g = mul(f, common), mul(g, common)
            assert zpoly.int_resultant(f, g) == 0 == _sylvester_det(f, g)
        # one or both leading coefficients zero at the formal degree
        f, g = rand(rng.randrange(1, 9)), rand(rng.randrange(1, 9))
        cases += [(f + [0], g), (f, g + [0, 0]), (f + [0], g + [0])]
    for f, g in cases:
        assert zpoly.int_resultant(f, g) == _sylvester_det(f, g), (f, g)


def first_subresultant_minors(f, g):
    """[s10, s11] of the first subresultant of f and g (ints, low degree
    first) at the formal degrees M, N >= 2, f's rows first, by Bareiss over
    QQ: the M + N - 2 rows x^k f (k < N - 1), then x^k g (k < M - 1), on the
    columns of x^(M+N-2) .. x^2 and one of x^0, x^1."""
    m, n = len(f) - 1, len(g) - 1
    width = m + n - 1
    fv, gv = [Fraction(c) for c in reversed(f)], [Fraction(c) for c in reversed(g)]
    zero = Fraction(0)
    rows = [[zero] * i + fv + [zero] * (n - 2 - i) for i in range(n - 1)]
    rows += [[zero] * i + gv + [zero] * (m - 2 - i) for i in range(m - 1)]
    minors = []
    for column in (width - 1, width - 2):
        det = binform.det_constant([row[: width - 2] + [row[column]] for row in rows])
        assert det.denominator == 1
        minors.append(det.numerator)
    return minors


def test_first_subresultant_matches_the_sylvester_minors():
    rng = random.Random(17)

    def rand(degree, low=-30, high=31):
        return [rng.randrange(low, high) for _ in range(degree)] + [rng.randrange(1, high)]

    read = 0
    for _ in range(150):
        f, g = rand(rng.randrange(2, 13)), rand(rng.randrange(2, 13))
        resultant, s1 = zpoly.int_resultant(f, g, True)
        assert resultant == zpoly.int_resultant(f, g)
        if s1 is not None:
            read += 1
            assert s1 == first_subresultant_minors(f, g), (f, g)
    # dense random sequences are normal: S1 is read, in both orders of the
    # degrees and at equal degrees, where the sign (-1)^((M-1)(N-1)) counts
    assert read >= 140
    for m, n in [(9, 12), (12, 9), (4, 4), (5, 5), (2, 2), (2, 3)]:
        f, g = rand(m), rand(n)
        assert zpoly.int_resultant(f, g, True)[1] == first_subresultant_minors(f, g)
    # mod p: S1 of the residues in [0, p) reduces to S1 of f and g mod p
    p = 10007
    for _ in range(10):
        f, g = rand(9, -(10**6), 10**6), rand(12, -(10**6), 10**6)
        _, s1 = zpoly.int_resultant([c % p for c in f], [c % p for c in g], True)
        assert [c % p for c in s1] == [c % p for c in first_subresultant_minors(f, g)]


def test_first_subresultant_only_from_a_normal_sequence():
    f, g = [3, -1, 4, 1, 5], [2, 7, 1, 8]
    assert zpoly.int_resultant(f, g, True)[1] == first_subresultant_minors(f, g)
    cases = [
        # a vanishing formal leading coefficient, on either side
        (f + [0], g),
        (f, g + [0]),
        # the remainder of x^8 + 1 by x^5 + 3 is -3x^3 + 1: degree 4 is skipped
        ([1, 0, 0, 0, 0, 0, 0, 0, 1], [3, 0, 0, 0, 0, 1]),
        # x^3 + 1 and x^2 - 1 share x + 1: the sequence ends in 0
        ([1, 0, 0, 1], [-1, 0, 1]),
        # a constant or linear side: no divisor of degree 2
        (f, [5, 1]),
        ([5], g),
    ]
    for a, b in cases:
        resultant, s1 = zpoly.int_resultant(a, b, True)
        assert s1 is None and resultant == zpoly.int_resultant(a, b) == _sylvester_det(a, b)


@pytest.mark.parametrize("p", [7, 10007, 2**31 - 1])
def test_int_resultant_mod_p_is_the_integer_sequence_reduced(p):
    # the remainder sequence over GF(p) gives the resultant of the residues
    # over ZZ, reduced, and S1 wherever it is normal mod p; over ZZ it may
    # be normal where it is not mod p (at p = 7 often), never the reverse
    rng = random.Random(p)
    abnormal_mod_p = 0
    for _ in range(400):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 10))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 10))]
        # vanishing formal leading coefficients, on either side or both
        if rng.randrange(4) == 0:
            f[-1] = 0
        if rng.randrange(4) == 0:
            g[-1] = 0
        resultant, s1 = zpoly.int_resultant(f, g, True, p)
        expected, expected_s1 = zpoly.int_resultant(f, g, True)
        assert resultant == expected % p == zpoly.int_resultant(f, g, False, p), (f, g)
        if s1 is not None:
            assert s1 == [c % p for c in expected_s1], (f, g)
        elif expected_s1 is not None:
            abnormal_mod_p += 1
    assert abnormal_mod_p >= (20 if p == 7 else 0)


def test_s1_of_a_sequence_abnormal_mod_p_only_is_read_over_zz(monkeypatch):
    # x^3 and x^2 + 3x + 2 = (x + 1)(x + 2): S1 = 7x + 6 over ZZ, so mod 7
    # the remainder of x^3 is the constant 6 and the sequence skips degree 1
    f, g = [0, 0, 0, 1], [2, 3, 1]
    assert zpoly.int_resultant(f, g, True) == (8, [6, 7])
    assert first_subresultant_minors(f, g) == [6, 7]
    assert zpoly.int_resultant(f, g, True, 7) == (1, None)
    # sampled at its one point, S1 comes from the residues over ZZ, reduced
    calls = []
    original = zpoly.int_resultant

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(zpoly, "int_resultant", counting)
    fs, gs = [[c] for c in f], [[c] for c in g]
    sampled = zpoly.sampled_resultant(fs, gs, 7, first_subresultant=True)
    monkeypatch.undo()
    assert sampled == ([1], [[6], []])
    assert calls == [(f, g, True, 7), (f, g, True)]


@pytest.mark.parametrize("p", [1009, 10007, 2**31 - 1])
def test_pow_mod_over_gf_p_matches_square_and_multiply_with_zp_rem(p):
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
        assert univar.pow_mod(base, exponent, modulus, PrimeField(p)) == result


def test_zp_interpolate_round_trip():
    # points 0..N-1, and 145 points of 31-bit values
    for p, n in [(10007, 31), (2**31 - 1, 145)]:
        rng = random.Random(p + n)
        poly = [rng.randrange(p) for _ in range(n - 1)] + [1]
        values = [sum(c * i**k for k, c in enumerate(poly)) for i in range(n)]
        assert zpoly.interpolate(values, p) == poly
        assert zpoly.interpolate([v % p for v in values], p) == poly
        assert zpoly.interpolate([3] * 5, p) == [3]
        assert zpoly.interpolate([0] * 5, p) == []
        # exactly over ZZ, from the unreduced values of the integer polynomial
        assert zpoly.interpolate(values) == poly


def test_int_eval_is_horner_in_any_ring():
    assert zpoly.int_eval([], 5) == 0
    assert zpoly.int_eval([], Fraction(1, 3)) == 0
    rng = random.Random(37)
    for _ in range(30):
        cs = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(1, 20))]
        x = rng.randrange(-50, 51)
        assert zpoly.int_eval(cs, x) == sum(c * x**k for k, c in enumerate(cs))
        q = Fraction(rng.randrange(-50, 51), rng.randrange(1, 30))
        assert zpoly.int_eval(cs, q) == sum(c * q**k for k, c in enumerate(cs))
    # over GF(p), the value at t0 is the remainder mod t - t0
    p = 10007
    field = PrimeField(p)
    for _ in range(30):
        cs = [rng.randrange(p) for _ in range(rng.randrange(1, 20))]
        t0 = rng.randrange(p)
        assert zpoly.int_eval(cs, t0) % p == pencil24._at_root(cs, [-t0 % p, 1], field)


def test_int_interpolate_is_scaled_by_the_factorial():
    # (x^2 - x) / 2 takes the values 0, 0, 1 at x = 0, 1, 2; 2! times it is x^2 - x
    assert zpoly.int_interpolate([0, 0, 1]) == [0, -1, 1]


def test_zp_interpolate_needs_distinct_points():
    # more than p consecutive points repeat mod p
    with pytest.raises(InterpolationError, match="only 101 elements"):
        zpoly.interpolate([0] * 102, 101)
    assert zpoly.interpolate(list(range(101)), 101) == [0, 1]
    # over ZZ the points never repeat
    assert zpoly.interpolate(list(range(102))) == [0, 1]


def _per_point_resultant(fs, gs, points, p=None):
    """The reference for sampled_resultant: int_resultant at t = 0..points-1
    on coefficients evaluated term by term, then interpolate mod p, or
    int_interpolate divided by (points - 1)! over ZZ."""
    values = []
    for t in range(points):
        f, g = ([sum(c * t**k for k, c in enumerate(cs)) for cs in seq] for seq in (fs, gs))
        if p is not None:
            f, g = [c % p for c in f], [c % p for c in g]
        values.append(zpoly.int_resultant(f, g))
    if p is not None:
        return zpoly.interpolate(values, p)
    scale = math.factorial(points - 1)
    assert all(c % scale == 0 for c in zpoly.int_interpolate(values))
    return zpoly.zp_trim([c // scale for c in zpoly.int_interpolate(values)])


def _counting_points(monkeypatch):
    calls = []
    original = zpoly.int_resultant

    def counting(f, g, *rest):
        calls.append((f, g))
        return original(f, g, *rest)

    monkeypatch.setattr(zpoly, "int_resultant", counting)
    return calls


def test_sampled_resultant_matches_the_per_point_reference(monkeypatch):
    p = 10007
    rng = random.Random(41)
    for _ in range(40):
        m, n = rng.randrange(5), rng.randrange(5)
        dt_f, dt_g = rng.randrange(4), rng.randrange(4)
        for modulus, low, high in ((p, 0, p), (None, -9, 10)):
            fs = [[rng.randrange(low, high) for _ in range(dt_f + 1)] for _ in range(m + 1)]
            gs = [[rng.randrange(low, high) for _ in range(dt_g + 1)] for _ in range(n + 1)]
            bound = n * dt_f + m * dt_g
            calls = _counting_points(monkeypatch)
            result = zpoly.sampled_resultant(fs, gs, modulus)
            monkeypatch.undo()
            assert len(calls) == bound + 1
            # three more points than the bound: a bound too small would show
            assert result == _per_point_resultant(fs, gs, bound + 4, modulus), (fs, gs)


def test_sampled_first_subresultant_matches_the_sylvester_minors(monkeypatch):
    p = 10007
    rng = random.Random(43)
    read = 0
    for _ in range(20):
        m, n = rng.randrange(2, 6), rng.randrange(2, 6)
        dt_f, dt_g = rng.randrange(1, 4), rng.randrange(1, 4)
        for modulus, low, high in ((p, 0, p), (None, -9, 10)):
            fs = [[rng.randrange(low, high) for _ in range(dt_f + 1)] for _ in range(m + 1)]
            gs = [[rng.randrange(low, high) for _ in range(dt_g + 1)] for _ in range(n + 1)]
            bound = n * dt_f + m * dt_g
            calls = []
            original = zpoly.int_resultant

            def counting(*args):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(zpoly, "int_resultant", counting)
            resultant, s1 = zpoly.sampled_resultant(fs, gs, modulus, first_subresultant=True)
            monkeypatch.undo()
            assert len(calls) == bound + 1
            assert resultant == zpoly.sampled_resultant(fs, gs, modulus)
            if s1 is None:
                # some sample point has no S1
                assert None in [original(*args)[1] for args in calls]
                continue
            read += 1
            # three points past the samples: a bound too small would show
            for t in range(bound + 4):
                f, g = ([zpoly.int_eval(c, t) for c in cs] for cs in (fs, gs))
                expected = first_subresultant_minors(f, g)
                value = [zpoly.int_eval(c, t) for c in s1]
                if modulus is None:
                    assert value == expected
                else:
                    assert [v % p for v in value] == [e % p for e in expected]
    assert read >= 30
    # one abnormal sample point takes S1 away: the x^2 coefficient t (t - 1)
    # of f vanishes at t = 0 and 1; x^3 + t x + 1 and x^2 - 1 share the root
    # -1 at t = 0; at t = 0 the remainder of x^8 + t x^7 + 1 by x^5 + 3 skips
    # degree 4, with both leading coefficients nonzero
    cases = [
        ([[3, 1], [2, 0, 5], [0, -1, 1]], [[1, 4], [0, 1], [2, 1]]),
        ([[1], [0, 1], [0], [1]], [[-1], [0], [1]]),
        ([[1]] + [[0]] * 6 + [[0, 1], [1]], [[3], [0], [0], [0], [0], [1]]),
    ]
    for fs, gs in cases:
        resultant, s1 = zpoly.sampled_resultant(fs, gs, first_subresultant=True)
        assert s1 is None and resultant == zpoly.sampled_resultant(fs, gs)


def test_sampled_resultant_edge_cases(monkeypatch):
    p = 7
    # t x + 1 and t x + 2: the bound is 2 but the t^2 terms cancel, Res = t
    assert zpoly.sampled_resultant([[1], [0, 1]], [[2], [0, 1]]) == [0, 1]
    assert zpoly.sampled_resultant([[1], [0, 1]], [[2], [0, 1]], p) == [0, 1]
    # the x^2 coefficient t (t - 1) of f and the x coefficient t of g both
    # vanish at t = 0, where the first Sylvester column is zero
    fs, gs = [[3, 1], [2, 0, 5], [0, -1, 1]], [[1, 4], [0, 1]]
    for modulus in (None, 10007):
        result = zpoly.sampled_resultant(fs, gs, modulus)
        assert result == _per_point_resultant(fs, gs, 8, modulus)
        assert result and result[0] == 0
    # constant sequences: bound 0, so one point; Res(x + 3, 2 x + 5) = -1
    calls = _counting_points(monkeypatch)
    assert zpoly.sampled_resultant([[3], [1]], [[5], [2]]) == [-1]
    assert zpoly.sampled_resultant([[3], [1]], [[5], [2]], p) == [p - 1]
    monkeypatch.undo()
    assert len(calls) == 2
    # all-zero sequences give the zero polynomial
    for fs, gs in [([[], []], [[], [], []]), ([[0], [0]], [[0, 0], [0]]), ([[], [0, 0, 0]], [[]])]:
        assert zpoly.sampled_resultant(fs, gs) == [] == zpoly.sampled_resultant(fs, gs, p)
