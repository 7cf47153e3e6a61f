"""The discriminant/seminvariant pair and the perfect-square witnesses."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactgeom import quartic
from exactgeom.binform import BinaryForm, sylvester_resultant
from exactgeom.domains import QQ, ExtensionField, PrimeField
from exactgeom.multipoly import MultiPoly
from exactgeom.pencil24 import absolute_degree
from exactgeom.quartic import (
    BOUNDARY_NON_SQUARE,
    SPURIOUS_NON_SQUARE,
    QuarticCoeffs,
    _cleared,
    _match_square,
    _raw,
    _verdicts,
    closure_conditions_a_nonzero,
    closure_square_witness,
    disc_delta,
    fuzz_square_criterion,
    is_square_over_closure,
    perfect_square_witness,
    sem_d,
    square_coefficients,
)

F = PrimeField(10007)


def qq(*values):
    return QuarticCoeffs(*(Fraction(v) for v in values))


def test_disc_delta_values():
    # (u^2 + v^2)^2 is a square: the three surviving terms cancel (256 - 512 + 256)
    assert disc_delta(qq(1, 0, 2, 0, 1)) == 0
    # u^4 + v^4 has distinct roots; only the 256 A^3 E^3 term survives
    assert disc_delta(qq(1, 0, 0, 0, 1)) == 256
    # u^2 (u^2 - v^2) has a repeated root
    assert disc_delta(qq(1, 0, -1, 0, 0)) == 0


def test_sem_d_values():
    assert sem_d(qq(1, 0, 2, 0, 1)) == 0  # 64 - 64
    assert sem_d(qq(1, 0, -1, 0, 0)) == -16  # only -16 A^2 C^2 survives
    # the section fiber of the bitangent family, as polynomials in alpha
    (alpha,) = MultiPoly.gens(("alpha",))
    one = MultiPoly.constant(("alpha",), 1)
    value = sem_d(QuarticCoeffs(one, -2 * one, one - alpha, 2 * alpha, -alpha))
    assert value == -16 * alpha**2 - 32 * alpha


def test_witness_examples():
    # u^2 (u - v)^2 = (u^2 - u v)^2
    assert perfect_square_witness(qq(1, -2, 1, 0, 0), QQ) == (1, -1, 0)
    assert perfect_square_witness(qq(1, 0, 0, 0, 1), QQ) is None
    # v^2 (u^2 + v^2): two distinct roots away from the double one
    assert perfect_square_witness(qq(0, 0, 1, 0, 1), QQ) is None


def test_witness_requires_odd_characteristic():
    class Char2:
        char = 2

    with pytest.raises(ValueError):
        perfect_square_witness(qq(1, 0, 0, 0, 0), Char2())


def test_closure_witness_adjoins_square_root():
    # pick a non-square leading coefficient: (s u^2)^2 has A = s^2... instead
    # take A itself a non-square so sqrt(A) needs the quadratic extension
    a = next(F.elem(n) for n in range(2, 50) if F.sqrt(F.elem(n)) is None)
    coeffs = QuarticCoeffs(a, F.zero(), F.zero(), F.zero(), F.zero())
    witness = closure_square_witness(coeffs, F)
    assert witness is not None
    assert witness.field is not F
    assert witness.reproduces(coeffs)


def test_closure_witness_in_field():
    coeffs = QuarticCoeffs(*(F.elem(c) for c in (1, -2, 1, 0, 0)))
    witness = closure_square_witness(coeffs, F)
    assert witness is not None and witness.field is F
    assert witness.reproduces(coeffs)


def test_boundary_case_joint_vanishing_without_square():
    coeffs = qq(*BOUNDARY_NON_SQUARE)
    assert disc_delta(coeffs) == 0 and sem_d(coeffs) == 0
    assert not is_square_over_closure(coeffs, QQ)
    assert perfect_square_witness(coeffs, QQ) is None


def test_nonsquare_branch_with_nonzero_lead():
    # a point of the second component of the joint vanishing locus:
    # u^4 + 6u^2 + 16u + 9 = (u + 1)^2 (u^2 - 2u + 9) has only one double root
    coeffs = qq(*SPURIOUS_NON_SQUARE)
    assert disc_delta(coeffs) == 0 and sem_d(coeffs) == 0
    assert coeffs.A != 0
    assert not is_square_over_closure(coeffs, QQ)
    assert perfect_square_witness(coeffs, QQ) is None
    over_f = QuarticCoeffs(*(F.elem(int(c)) for c in SPURIOUS_NON_SQUARE))
    assert closure_square_witness(over_f, F) is None


def _pinned_field(name):
    if name == "GF(13)[z]/(z^2 - 2)":
        return ExtensionField(PrimeField(13), [-2 % 13, 0, 1], name="z")
    return PrimeField(int(name[3:-1]))


def _pinned_quartic(field, shape):
    def e(n):
        return field.wrap(field._rfrom_index(n))

    zero, nonresidue = field.zero(), field._nonresidue()

    def scaled(*q):
        return QuarticCoeffs(*(nonresidue * x for x in square_coefficients(*q)))

    return {
        "residue lead": lambda: square_coefficients(e(3), e(5), e(7)),
        "generic residue lead": lambda: square_coefficients(e(123), e(45), e(67)),
        "non-residue lead": lambda: scaled(e(1), e(2), e(5)),
        "generic non-residue lead": lambda: scaled(e(123), e(45), e(67)),
        "zero lead, residue C": lambda: square_coefficients(zero, e(4), e(6)),
        "zero lead, non-residue C": lambda: scaled(zero, e(1), e(3)),
        "only E, residue": lambda: QuarticCoeffs(zero, zero, zero, zero, e(9)),
        "only E, non-residue": lambda: QuarticCoeffs(zero, zero, zero, zero, nonresidue),
        "B without A": lambda: QuarticCoeffs(zero, e(1), e(2), e(3), e(4)),
        "spurious": lambda: QuarticCoeffs(*map(field.elem, SPURIOUS_NON_SQUARE)),
    }[shape]()


# (field, shape, (absolute degree of witness.field, repr of q0, q1, q2) or None);
# GF(10009) is 1 mod 4, so its square roots go through Tonelli-Shanks, and the
# pencil report prints witnesses with exactly these reprs
PINNED_WITNESSES = [
    ('GF(10007)', 'residue lead', (1, '3', '5', '7')),
    ('GF(10007)', 'generic residue lead', (1, '9884', '9962', '9940')),
    ('GF(10007)', 'non-residue lead', (2, '(s)', '(2*s)', '(5*s)')),
    ('GF(10007)', 'generic non-residue lead', (2, '(s)', '(8787*s)', '(3743*s)')),
    ('GF(10007)', 'zero lead, residue C', (1, '0', '4', '6')),
    ('GF(10007)', 'zero lead, non-residue C', (2, '0', '(s)', '(3*s)')),
    ('GF(10007)', 'only E, residue', (1, '0', '0', '3')),
    ('GF(10007)', 'only E, non-residue', (2, '0', '0', '(s)')),
    ('GF(10007)', 'B without A', None),
    ('GF(10007)', 'spurious', None),
    ('GF(10009)', 'residue lead', (1, '10006', '10004', '10002')),
    ('GF(10009)', 'generic residue lead', (1, '9886', '9964', '9942')),
    ('GF(10009)', 'non-residue lead', (2, '(s)', '(2*s)', '(5*s)')),
    ('GF(10009)', 'generic non-residue lead', (2, '(s)', '(9277*s)', '(3581*s)')),
    ('GF(10009)', 'zero lead, residue C', (1, '0', '10005', '10003')),
    ('GF(10009)', 'zero lead, non-residue C', (2, '0', '(s)', '(3*s)')),
    ('GF(10009)', 'only E, residue', (1, '0', '0', '10006')),
    ('GF(10009)', 'only E, non-residue', (2, '0', '0', '(s)')),
    ('GF(10009)', 'B without A', None),
    ('GF(10009)', 'spurious', None),
    ('GF(13)[z]/(z^2 - 2)', 'residue lead', (2, '3', '5', '7')),
    ('GF(13)[z]/(z^2 - 2)', 'generic residue lead', (2, '(9*z + 6)', '(3*z + 6)', '(5*z + 2)')),
    ('GF(13)[z]/(z^2 - 2)', 'non-residue lead', (4, '(s)', '(2*s)', '(5*s)')),
    ('GF(13)[z]/(z^2 - 2)', 'generic non-residue lead', (4, '(s)', '((4*z + 2)*s)', '((3*z)*s)')),
    ('GF(13)[z]/(z^2 - 2)', 'zero lead, residue C', (2, '0', '9', '7')),
    ('GF(13)[z]/(z^2 - 2)', 'zero lead, non-residue C', (4, '0', '(s)', '(3*s)')),
    ('GF(13)[z]/(z^2 - 2)', 'only E, residue', (2, '0', '0', '3')),
    ('GF(13)[z]/(z^2 - 2)', 'only E, non-residue', (4, '0', '0', '(s)')),
    ('GF(13)[z]/(z^2 - 2)', 'B without A', None),
    ('GF(13)[z]/(z^2 - 2)', 'spurious', None),
]


@pytest.mark.parametrize("field_name, shape, expected", PINNED_WITNESSES)
def test_closure_witness_pinned(field_name, shape, expected):
    field = _pinned_field(field_name)
    coeffs = _pinned_quartic(field, shape)
    witness = closure_square_witness(coeffs, field)
    if expected is None:
        assert witness is None
        return
    assert witness is not None and witness.reproduces(coeffs)
    assert (witness.field is field) == (expected[0] == absolute_degree(field))
    got = (absolute_degree(witness.field), repr(witness.q0), repr(witness.q1), repr(witness.q2))
    assert got == expected


def _gf81_tower():
    gf9 = ExtensionField(PrimeField(3), [1, 0, 1], name="i")
    return ExtensionField(gf9, [-(gf9.generator() + 1), 0, 1], name="s")


MATCH_FIELDS = {
    "GF(10007)": lambda: F,
    "GF(10007)[t]/(t^2 + t + 5)": lambda: ExtensionField(F, [5, 1, 1], name="t"),
    "GF(9)[s], order 81": _gf81_tower,
    "QQ": lambda: QQ,
}


@pytest.mark.parametrize("build", MATCH_FIELDS.values(), ids=MATCH_FIELDS.keys())
def test_match_square_writes_the_quartic_as_s_times_a_square(build):
    field = build()
    rng = random.Random(f"match:{field!r}")
    if field is QQ:
        zero = Fraction(0)

        def draw():
            return Fraction(rng.randrange(-30, 31), rng.randrange(1, 6))

    else:
        zero = field.zero()

        def draw():
            return field.rand(rng)

    branches = set()
    for n in range(60):
        # every third draw zeroes q0, every ninth q1 too: the branches of
        # A != 0, of A = B = 0 with C != 0, and of only E
        q = [draw(), draw(), draw()]
        if n % 3 == 0:
            q[0] = zero
        if n % 9 == 0:
            q[1] = zero
        quartic = square_coefficients(*q)
        found = _match_square(tuple(map(_raw, quartic)), field)
        assert found is not None, q
        s, *k = map(field.wrap, found)
        lead = next((i for i in (0, 2) if quartic[i]), 4)
        assert s == quartic[lead]
        assert tuple(s * x for x in square_coefficients(*k)) == quartic, q
        branches.add(lead)
    assert branches == {0, 2, 4}
    elem = field.elem if field is not QQ else Fraction
    for non_square in (BOUNDARY_NON_SQUARE, SPURIOUS_NON_SQUARE, (0, 1, 2, 3, 4)):
        assert _match_square(tuple(_raw(elem(c)) for c in non_square), field) is None


small_fracs = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@settings(max_examples=150)
@given(small_fracs, small_fracs, small_fracs)
def test_squares_vanish_rationals(q0, q1, q2):
    coeffs = square_coefficients(q0, q1, q2)
    assert disc_delta(coeffs) == 0
    assert sem_d(coeffs) == 0
    assert is_square_over_closure(coeffs, QQ) or not any(coeffs)


@settings(max_examples=150)
@given(st.integers(0, 10006), st.integers(0, 10006), st.integers(0, 10006))
def test_squares_vanish_prime_field(a, b, c):
    coeffs = square_coefficients(F.elem(a), F.elem(b), F.elem(c))
    assert not disc_delta(coeffs)
    assert not sem_d(coeffs)


def _shear(coeffs: QuarticCoeffs, lam: Fraction) -> QuarticCoeffs:
    # u -> u + lam v expanded by the binomial theorem
    A, B, C, D, E = coeffs
    return QuarticCoeffs(
        A,
        4 * lam * A + B,
        6 * lam**2 * A + 3 * lam * B + C,
        4 * lam**3 * A + 3 * lam**2 * B + 2 * lam * C + D,
        lam**4 * A + lam**3 * B + lam**2 * C + lam * D + E,
    )


def test_shear_covariance_smoke():
    rng = random.Random(23)
    for _ in range(30):
        q0, q1, q2 = (Fraction(rng.randrange(-9, 10)) for _ in range(3))
        lam = Fraction(rng.randrange(-5, 6))
        square = square_coefficients(q0, q1, q2)
        sheared = _shear(square, lam)
        # the sheared quartic is the square of the sheared quadratic
        assert sheared == square_coefficients(q0, 2 * lam * q0 + q1, lam**2 * q0 + lam * q1 + q2)
        assert disc_delta(sheared) == 0 and sem_d(sheared) == 0
        assert is_square_over_closure(sheared, QQ) or not any(square)


def _delta_via_resultant(coeffs: QuarticCoeffs) -> Fraction:
    """Independent route: Res(f, df/du) / A via the Sylvester determinant."""
    u, v = MultiPoly.gens(("u", "v"))
    A, B, C, D, E = coeffs
    f = A * u**4 + B * u**3 * v + C * u**2 * v**2 + D * u * v**3 + E * v**4
    res = sylvester_resultant(BinaryForm(f, ("u", "v")), BinaryForm(f.partial_derivative("u"), ("u", "v")))
    return res.constant_value() / A


def test_delta_matches_resultant_route():
    rng = random.Random(29)
    for _ in range(60):
        coeffs = qq(*(rng.randrange(-9, 10) for _ in range(5)))
        if not coeffs.A:
            continue
        assert disc_delta(coeffs) == _delta_via_resultant(coeffs)


def _normalized_square_table(K):
    """All squares of quadratics over GF(169), scaled so the first nonzero
    coefficient is 1.  A quartic over GF(13) is a square over the closure iff
    it is one over GF(169), because the square root of a quartic is unique up
    to sign and so has coefficients in a quadratic extension.

    Every quadratic is taken with its first nonzero coefficient 1, so its
    square already starts with 1 and needs no division."""
    one, zero = K.one(), K.zero()
    elements = list(K._element_iter())
    candidates = [(one, a, b) for a in elements for b in elements]
    candidates += [(zero, one, a) for a in elements]
    candidates.append((zero, zero, one))
    table = set()
    for q in candidates:
        sq = square_coefficients(*q)
        assert next(c for c in sq if c) == one
        table.add(tuple(c.value for c in sq))
    return table


def test_square_predicate_against_exhaustive_oracle():
    from exactgeom.domains import ExtensionField

    base = PrimeField(13)
    K = ExtensionField(base, [-2 % 13, 0, 1], name="z")  # 2 is a non-square mod 13
    table = _normalized_square_table(K)

    def oracle(coeffs):
        lifted = [K.from_base(c) for c in coeffs]
        first = next((c for c in lifted if c), None)
        if first is None:
            return True  # the zero quartic is 0^2
        return tuple((c / first).value for c in lifted) in table

    rng = random.Random(37)
    cases = [
        (0, 0, 1, 0, 1),  # boundary: joint vanishing, not a square
        (1, 0, 0, 0, 1),
        (1, -2, 1, 0, 0),
        (0, 0, 1, 2, 1),  # v^2 (u + v)^2
        (0, 0, 0, 0, 3),  # 3 v^4: square over the closure only
        (2, 0, 0, 0, 0),  # 2 u^4: likewise (2 is a non-square mod 13)
    ]
    cases += [tuple(rng.randrange(13) for _ in range(5)) for _ in range(40)]
    cases += [
        (1, rng.randrange(13), rng.randrange(13), 0, 0) for _ in range(10)
    ]  # more degenerate shapes
    for raw in cases:
        coeffs = QuarticCoeffs(*(base.elem(c) for c in raw))
        assert is_square_over_closure(coeffs, base) == oracle(coeffs), raw


def test_fuzz_square_criterion_smoke():
    report = fuzz_square_criterion(F, 400, random.Random("unit:gf"), 200)
    assert not report["equivalence_discrepancies"]
    assert not report["square_failures"]
    assert report["boundary_joint_vanishing_without_square"]
    report_q = fuzz_square_criterion(QQ, 120, random.Random("unit:qq"), 80)
    assert not report_q["equivalence_discrepancies"]
    assert not report_q["square_failures"]
    assert report_q["boundary_joint_vanishing_without_square"]


class _ScriptedRng:
    """An rng whose ``randrange`` returns the given values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, *bounds):
        value = next(self._values)
        assert value in range(*bounds)
        return value


def test_planted_discrepancy_is_collected():
    expected = [("1", "0", "6", "16", "9")]
    report = fuzz_square_criterion(F, 1, _ScriptedRng(SPURIOUS_NON_SQUARE), 0)
    assert report["equivalence_discrepancies"] == expected
    # over QQ each coefficient is drawn as a numerator, then a denominator
    draws = [v for c in SPURIOUS_NON_SQUARE for v in (c, 1)]
    report_q = fuzz_square_criterion(QQ, 1, _ScriptedRng(draws), 0)
    assert report_q["equivalence_discrepancies"] == expected


def test_planted_discrepancy_reports_the_drawn_fractions():
    # SPURIOUS_NON_SQUARE / 2, drawn as (numerator, denominator) pairs; the
    # verdicts run on the cleared ints (1, 0, 6, 16, 9), the report shows the draws
    draws = [1, 2, 0, 1, 3, 1, 8, 1, 9, 2]
    report = fuzz_square_criterion(QQ, 1, _ScriptedRng(draws), 0)
    assert report["equivalence_discrepancies"] == [("1/2", "0", "3", "8", "9/2")]


def test_planted_square_failure_reports_the_drawn_values(monkeypatch):
    # a witness search that always fails: each constructed square is reported
    # as the square of the drawn quadratic, and an all-zero draw as (1, 0, 0)
    monkeypatch.setattr(quartic, "perfect_square_witness", lambda c, field: None)
    expected_zero = ("1", "0", "0", "0", "0")
    draws = [3, 5, 7, 0, 0, 0]
    report = fuzz_square_criterion(F, 0, _ScriptedRng(draws), 2)
    assert report["square_failures"] == [("9", "30", "67", "70", "49"), expected_zero]
    # (1/2, 0, 3/4) and (0/3, 0/5, 0/1), as (numerator, denominator) draws
    draws = [1, 2, 0, 1, 3, 4, 0, 3, 0, 5, 0, 1]
    report_q = fuzz_square_criterion(QQ, 0, _ScriptedRng(draws), 2)
    assert report_q["square_failures"] == [("1/4", "0", "3/4", "0", "9/16"), expected_zero]


def _pairs(values):
    return [(v.numerator, v.denominator) for v in values]


def test_cleared_verdicts_match_rational_verdicts():
    rng = random.Random("verdicts:qq")

    def frac():
        return Fraction(rng.randrange(-60, 61), rng.randrange(1, 8))

    def nonzero_frac():
        return next(f for f in iter(frac, None) if f)

    cases = [qq(nonzero_frac(), *(frac() for _ in range(4))) for _ in range(300)]
    for special in (BOUNDARY_NON_SQUARE, SPURIOUS_NON_SQUARE):
        cases += [qq(*(nonzero_frac() * c for c in special)) for _ in range(20)]
    squares = [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))]
    squares += [(Fraction(0), Fraction(-5, 6), Fraction(2, 5)), (Fraction(0), Fraction(0), Fraction(3, 4))]
    squares += [tuple(frac() for _ in range(3)) for _ in range(40)]
    for q in squares:
        cases.append(square_coefficients(*q))
        # squares of the cleared quadratic: what the fuzz feeds the witness search
        cleared = QuarticCoeffs(*square_coefficients(*_cleared(_pairs(q))))
        witness = perfect_square_witness(cleared, QQ)
        assert witness is not None and square_coefficients(*witness) == cleared, q
    seen = set()
    for coeffs in cases:
        verdicts = _verdicts(coeffs, None)
        assert _verdicts(QuarticCoeffs(*_cleared(_pairs(coeffs))), None) == verdicts, coeffs
        seen.add(verdicts)
    assert seen == {(False, False), (True, True), (True, False)}


@pytest.mark.parametrize("p", [10007, 10009])  # 3 and 1 mod 4
def test_int_verdicts_match_field_element_verdicts(p):
    field = PrimeField(p)
    rng = random.Random(f"verdicts:{p}")

    def squared(q0, q1, q2):
        return tuple(v % p for v in square_coefficients(q0, q1, q2))

    cases = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(300)]
    cases += [squared(*(rng.randrange(p) for _ in range(3))) for _ in range(20)]
    cases += [squared(0, rng.randrange(p), rng.randrange(p)) for _ in range(20)]
    cases += [squared(0, 0, rng.randrange(p)) for _ in range(5)]
    cases += [BOUNDARY_NON_SQUARE, SPURIOUS_NON_SQUARE]
    seen = set()
    for raw in cases:
        elems = QuarticCoeffs(*map(field.elem, raw))
        oracle = (not disc_delta(elems) and not sem_d(elems), is_square_over_closure(elems, field))
        verdicts = _verdicts(QuarticCoeffs(*raw), p)
        assert verdicts == oracle, raw
        seen.add(verdicts)
    assert seen == {(False, False), (True, True), (True, False)}


class _RecordingRng:
    """A ``random.Random`` that digests its ``randrange`` calls in order."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = 0
        self.digest = hashlib.sha256()

    def randrange(self, *bounds):
        value = self.rng.randrange(*bounds)
        self.calls += 1
        self.digest.update(repr((bounds, value)).encode())
        return value


# (field, seed, random and square cases, randrange calls, digest of the
# (bounds, value) sequence, digest of the quartics handed to _verdicts, the
# rng's next random()), recorded when the fuzz still drew one Fraction per
# draw over QQ and reduced through a callable: the one-pass fuzz must draw
# the same quartics in the same order and leave the rng where that one did
PINNED_DRAW_PROTOCOL = [
    ("GF(10007)", "protocol:gf", 400)
    + (3200, "26771d3d0c7d8862", "6a98ec560c1d3161", 0.8010759994026556),
    ("QQ", "protocol:qq", 100)
    + (1600, "66cbb86fcfb4d17c", "e359a5c75d1e2e2f", 0.5198772014909322),
]


@pytest.mark.parametrize(
    "field_name, seed, count, calls, draws, quartics, after", PINNED_DRAW_PROTOCOL
)
def test_fuzz_draw_protocol_is_pinned(
    monkeypatch, field_name, seed, count, calls, draws, quartics, after
):
    field = QQ if field_name == "QQ" else PrimeField(int(field_name[3:-1]))
    seen = hashlib.sha256()
    verdicts = quartic._verdicts

    def recording(c, p):
        seen.update(repr(tuple(c)).encode())
        return verdicts(c, p)

    monkeypatch.setattr(quartic, "_verdicts", recording)
    rng = _RecordingRng(seed)
    report = fuzz_square_criterion(field, count, rng, count)
    assert not report["equivalence_discrepancies"] and not report["square_failures"]
    assert rng.calls == calls
    assert rng.digest.hexdigest()[:16] == draws
    assert seen.hexdigest()[:16] == quartics
    assert rng.rng.random() == after


def _disc_delta_terms(c):
    A, B, C, D, E = c
    return (
        256 * A**3 * E**3
        - 192 * A**2 * B * D * E**2
        - 128 * A**2 * C**2 * E**2
        + 144 * A**2 * C * D**2 * E
        - 27 * A**2 * D**4
        + 144 * A * B**2 * C * E**2
        - 6 * A * B**2 * D**2 * E
        - 80 * A * B * C**2 * D * E
        + 18 * A * B * C * D**3
        + 16 * A * C**4 * E
        - 4 * A * C**3 * D**2
        - 27 * B**4 * E**2
        + 18 * B**3 * C * D * E
        - 4 * B**3 * D**3
        - 4 * B**2 * C**3 * E
        + B**2 * C**2 * D**2
    )


def _sem_d_terms(c):
    A, B, C, D, E = c
    return 64 * A**3 * E - 16 * A**2 * C**2 + 16 * A * B**2 * C - 16 * A**2 * B * D - 3 * B**4


def _closure_conditions_terms(c):
    A, B, C, D, E = c
    h = 4 * A * C - B * B
    return B * h - 8 * A * A * D, h * h - 64 * A**3 * E


def _multipoly_draw(rng):
    x, y = MultiPoly.gens(("x", "y"))
    monomials = (x * x, x * y, y * y, x, y)
    return lambda: rng.randrange(-5, 6) + sum(rng.randrange(-5, 6) * m for m in monomials)


def _gf10007_squared_draw(rng):
    field = ExtensionField(F, [5, 1, 1], name="t")
    return lambda: field.rand(rng)


# (cases, draw factory) for every ring the quartic module promises: ints
# (small and of 100 bits), rationals, finite-field elements, polynomials
ORACLE_RINGS = {
    "ZZ, small": (200, lambda rng: lambda: rng.randrange(-10, 11)),
    "ZZ, 100 bits": (200, lambda rng: lambda: rng.randrange(-(2**100), 2**100)),
    "QQ": (100, lambda rng: lambda: Fraction(rng.randrange(-60, 61), rng.randrange(1, 8))),
    "GF(10007^2)": (40, _gf10007_squared_draw),
    "MultiPoly in x, y": (4, _multipoly_draw),
}


@pytest.mark.parametrize("cases, make_draw", ORACLE_RINGS.values(), ids=ORACLE_RINGS.keys())
def test_grouped_formulas_match_the_term_by_term_expansions(cases, make_draw):
    draw = make_draw(random.Random(f"oracle:{cases}"))
    for _ in range(cases):
        c = QuarticCoeffs(*(draw() for _ in range(5)))
        assert disc_delta(c) == _disc_delta_terms(c), c
        assert sem_d(c) == _sem_d_terms(c), c
        assert tuple(closure_conditions_a_nonzero(c)) == _closure_conditions_terms(c), c
