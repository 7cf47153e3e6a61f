"""Vertical-bitangent counting for pencils of (3,4)-curves over GF(p)."""

import itertools
import random
from fractions import Fraction

import pytest

from exactgeom import univar, zpoly
from exactgeom import pencil24 as pc
from exactgeom.binform import BinaryForm, sylvester_resultant
from exactgeom.domains import ExtensionField, PrimeField
from exactgeom.errors import InterpolationError
from exactgeom.multipoly import MultiPoly
from exactgeom.quartic import (
    QuarticCoeffs,
    closure_conditions_a_nonzero,
    closure_conditions_a_zero,
    closure_square_conditions,
    disc_delta,
    sem_d,
    square_coefficients,
)

P = 10007


def test_random_pencil_deterministic():
    a = pc.random_pencil(P, 1)
    b = pc.random_pencil(P, 1)
    assert a == b


def test_random_pencil_golden_values():
    # pinned at first run and frozen: the fixed RNG stream for (10007, 1)
    f0, f1 = pc.random_pencil(P, 1)
    assert f0.coeffs[0] == (3191, 9459, 1886, 139, 9784)
    assert f1.coeffs[0] == (7252, 3284, 8139, 6527, 402)


def test_random_pencil_rejects_small_prime():
    with pytest.raises(ValueError):
        pc.random_pencil(5, 1)
    with pytest.raises(ValueError):
        pc.random_pencil(997, 1)


def test_random_pencil_rejects_negative_seed():
    with pytest.raises(ValueError):
        pc.random_pencil(P, -1)


def test_curve_holds_ints_of_its_prime_field():
    f0, _ = pc.random_pencil(P, 1)
    assert pc.curve_from_ints(P, {(0, 0): -1, (3, 4): P + 2}).coeffs[::3] == (
        (P - 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 2),
    )
    for bad in (P, -1):
        with pytest.raises(ValueError, match="ints in \\[0, 10007\\)"):
            pc.Curve34(P, ((bad,) + f0.coeffs[0][1:],) + f0.coeffs[1:])
    with pytest.raises(ValueError, match="not prime"):
        pc.Curve34(10001, f0.coeffs)  # 73 * 137
    with pytest.raises(ValueError, match="2 < p < 2\\*\\*31"):
        pc.Curve34(2, f0.coeffs)
    with pytest.raises(ValueError, match="4 x 5"):
        pc.Curve34(P, f0.coeffs[:3])


def test_repeated_screen_failure_is_an_error(monkeypatch):
    bad = pc.curve_from_ints(P, {(1, 1): 1})  # zero leading coefficients
    monkeypatch.setattr(pc, "random_curve", lambda p, rng: bad)
    with pytest.raises(RuntimeError, match="100 consecutive"):
        pc.random_pencil(P, 1)


def test_condition_degrees_for_random_pencil():
    f0, f1 = pc.random_pencil(P, 1)
    # all 145 rows of the table lie on polynomials of t-degree <= 6 and <= 4
    delta_t, d_t = _table_conditions(f0, f1)
    assert len(delta_t) == 19 and any(delta_t)
    assert max(map(zpoly.zp_deg, delta_t)) <= 6
    assert len(d_t) == 13 and any(d_t)
    assert max(map(zpoly.zp_deg, d_t)) <= 4
    delta, d = _symbolic_conditions(f0, f1)[:2]
    assert delta.degree == 18
    assert _degree_in(delta.poly, "t") <= 6
    assert d.degree == 12
    assert _degree_in(d.poly, "t") <= 4


def test_family_pencil_reproduces_section_seminvariant():
    # the section [1:0] reads the x^12 coefficient of d(x, 1): -16t^2 - 32t
    _, d_t = _table_conditions(*pc.family_pencil(P))
    assert d_t[12] == [0, -32 % P, -16 % P]


def test_constant_pencil_has_constant_conditions():
    f0, _ = pc.random_pencil(P, 1)
    zero = pc.curve_from_ints(P, {})
    delta_t, d_t = _table_conditions(f0, zero)
    assert max(map(zpoly.zp_deg, delta_t + d_t)) <= 0


@pytest.mark.parametrize(
    "pencil", [pc.random_pencil, lambda p, _: pc.family_pencil(p)], ids=["random", "family"]
)
def test_infinity_member_conditions_are_the_top_t_coefficients(pencil):
    # Delta and d are homogeneous of degrees 6 and 4 in A..E, so the t^6 and
    # t^4 coefficients are the conditions of F1 alone
    f0, f1 = pencil(P, 1)
    delta_t, d_t = _table_conditions(f0, f1)
    delta_inf, d_inf, *_ = pc._member_forms(f1, pc.curve_from_ints(P, {}), 0)
    assert tuple(pc._padded(c, 6)[6] for c in delta_t) == delta_inf
    assert tuple(pc._padded(c, 4)[4] for c in d_t) == d_inf


def test_pencil_validation_makes_no_multipoly_substitution(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("MultiPoly.substitute on the pencil path")

    monkeypatch.setattr(MultiPoly, "substitute", forbidden)
    f0, f1 = pc.random_pencil(P, 1)
    assert pc.pencil_intersection_count(f0, f1, seed=1).validated_count == 24


def test_proportional_pencil_rejected():
    f0, _ = pc.random_pencil(P, 1)
    with pytest.raises(ValueError):
        pc.pencil_intersection_count(f0, f0)
    doubled = pc.Curve34(P, tuple(tuple(2 * c % P for c in row) for row in f0.coeffs))
    with pytest.raises(ValueError):
        pc.pencil_intersection_count(f0, doubled)


def test_family_pencil_validates_the_marked_member():
    f0, f1 = pc.family_pencil(P)
    report = pc.pencil_intersection_count(f0, f1)
    # t = 0 is a root of the eliminant and the member has its bitangent at [1:0]
    t_factor = next(rep for rep in report.factors if rep.modulus == (0, 1))
    assert t_factor.validated
    assert "[1:0]" in t_factor.detail
    # the second spanning curve has every fiber a square over the closure,
    # exercising the degenerate both-conditions-vanish path
    assert report.infinity_validated


@pytest.mark.parametrize(
    "p, seed",
    # 10007 and 2^31 - 1 are 3 mod 4; 1009, 10009 and 65537 are 1 mod 4
    [(10007, 3), (1009, 1), (10009, 1), (65537, 1), (2**31 - 1, 1)],
)
def test_validated_count_is_24_for_a_random_pencil(p, seed):
    f0, f1 = pc.random_pencil(p, seed)
    report = pc.pencil_intersection_count(f0, f1, seed=seed)
    assert report.validated_count == 24
    assert report.raw_degree == 144
    assert report.squarefree_degree == 90
    assert report.extraneous_count == sum(1 for f in report.factors if not f.validated)
    # every validated factor carries a verified witness
    for rep in report.factors:
        if rep.validated:
            assert rep.witness is not None
            assert rep.root_field_degree is not None


def test_validation_takes_no_gcd_of_delta_and_d(monkeypatch):
    # a square fiber has Delta = d = 0, so validation runs Euclid only on the
    # closure-square conditions (degrees 9, 12, 3 and 6) and on A, never on
    # Delta (degree 18) and d
    degrees, inside = [], False
    gcd, validate = univar.gcd, pc.validate_member

    def recording_gcd(a, b, field):
        if inside:
            degrees.append(max(univar.deg(a), univar.deg(b)))
        return gcd(a, b, field)

    def flagged_validate(*args):
        nonlocal inside
        inside = True
        try:
            return validate(*args)
        finally:
            inside = False

    monkeypatch.setattr(univar, "gcd", recording_gcd)
    monkeypatch.setattr(pc, "validate_member", flagged_validate)
    report = pc.pencil_intersection_count(*pc.random_pencil(P, 1), seed=1)
    monkeypatch.undo()
    assert report.validated_count == 24
    assert degrees and max(degrees) <= 12


@pytest.mark.parametrize(
    "pencil, degenerate_at_infinity",
    [(lambda: pc.random_pencil(P, 1), False), (lambda: pc.family_pencil(P), True)],
    ids=["random", "family"],
)
def test_validation_reads_delta_and_d_only_to_flag_a_degenerate_member(
    monkeypatch, pencil, degenerate_at_infinity
):
    # a factor of Rc costs at most one reduction of each of the 54
    # coefficients of A..E and the closure-square conditions and of the two
    # of S1, and Delta and d are read only up to a first nonzero coefficient:
    # one more reduction on a member that is not degenerate, not all 32
    # coefficients of Delta and d.  A validated member stops at 54 + 1, as
    # without S1.  A factor settled off Rc reads Delta and d only, up to
    # their first coefficient that is nonzero mod m
    f0, f1 = pencil()
    forms = pc._forms_in_t(f0, f1)
    coefficients = sum(len(cs) for cs, _ in forms[2:])
    reductions, members = {}, []
    at_root, validate = pc._at_root, pc.validate_member

    def counting_at_root(c, m, field):
        reductions[tuple(m)] = reductions.get(tuple(m), 0) + 1
        return at_root(c, m, field)

    def recording_validate(abcde, conditions, degenerate, field, rng, s1=None):
        before = sum(reductions.values())
        outcome = validate(abcde, conditions, degenerate, field, rng, s1)
        members.append((degenerate, sum(reductions.values()) - before))
        return outcome

    monkeypatch.setattr(pc, "_at_root", counting_at_root)
    monkeypatch.setattr(pc, "validate_member", recording_validate)
    report = pc.pencil_intersection_count(f0, f1, seed=1)
    monkeypatch.undo()
    assert coefficients == 54 and report.settled_count > 0
    assert set(reductions) == {rep.modulus for rep in report.factors}
    delta_and_d = [c for cs, _ in forms[:2] for c in cs]
    rc, s1 = pc.condition_resultant(f0, f1)
    for rep in report.factors:
        m = list(rep.modulus)
        if zpoly.zp_rem(list(rc), m, P):
            first = next(i for i, c in enumerate(delta_and_d) if zpoly.zp_rem(c, m, P))
            assert reductions[rep.modulus] == first + 1
        else:
            assert reductions[rep.modulus] <= coefficients + len(s1 or ()) + 1
            if rep.validated:
                assert reductions[rep.modulus] <= coefficients + 1
    # every member but the last is not degenerate; t = infinity reads the top
    # t-coefficients, with no reduction
    assert members[-1] == (degenerate_at_infinity, 0)
    assert not any(degenerate for degenerate, _ in members[:-1])


# --- factors settled by Rc, and roots read off S1 -------------------------------

# the eight pencils of the stripped reports and the family at three primes
ORACLE_PENCILS = [
    pytest.param(lambda p=p, s=s: pc.random_pencil(p, s), id=f"random-{p}-{s}")
    for p, s in [(p, s) for p in (10007, 31991) for s in (1, 2, 3)] + [(65537, 1), (2**31 - 1, 1)]
] + [pytest.param(lambda p=p: pc.family_pencil(p), id=f"family-{p}") for p in (10007, 31991, 1009)]


def _member_at(f0, f1, m):
    """The member at a root of the factor m of R: the arguments A..E, the
    four closure-square conditions, the degenerate flag and the field of
    validate_member, read from the forms in t, and the raw values of S1 there
    (None when the pencil has no S1)."""
    p = f0.p
    field = PrimeField(p) if len(m) == 2 else ExtensionField(PrimeField(p), m, check=False)
    values = [[pc._at_root(c, m, field) for c in cs] for cs, _ in pc._forms_in_t(f0, f1)]
    degenerate = all(field._ris_zero(v) for vs in values[:2] for v in vs)
    _, s1 = pc.condition_resultant(f0, f1)
    s1_values = None if s1 is None else tuple(pc._at_root(c, m, field) for c in s1)
    return (values[6:], values[2:6], degenerate, field), s1_values


def _outcome(rep):
    """The (ok, info) pair of validate_member that a factor report holds."""
    info = {k: v for k, v in rep.summary().items() if k not in ("factor", "degree", "validated")}
    return rep.validated, info


@pytest.mark.parametrize("pencil", ORACLE_PENCILS)
def test_settled_and_subresultant_factors_match_the_full_validation(pencil):
    # a factor off Rc is settled without validation, and a factor of Rc whose
    # root comes from S1 skips the gcds: validate_member on the first, and
    # its gcd path (no S1) on the second, give the reported outcome
    f0, f1 = pencil()
    report = pc.pencil_intersection_count(f0, f1, seed=1)
    rc, s1 = pc.condition_resultant(f0, f1)
    ends = {f"perfect-square fiber at {label}" for label in ("[1:0]", "[0:1]")}
    settled = rooted = 0
    for rep in report.factors:
        m = list(rep.modulus)
        args, s1_values = _member_at(f0, f1, m)
        if zpoly.zp_rem(list(rc), m, f0.p):
            settled += 1
            assert rep.detail == pc.NO_SQUARE_FIBER
            assert pc.validate_member(*args, random.Random(0)) == _outcome(rep)
        elif s1_values is not None and rep.detail not in ends:
            abcde, conditions, _, field = args
            a, c1, c2 = ([field.wrap(c) for c in cs] for cs in (abcde[0], *conditions[:2]))
            x0 = pc._subresultant_root(s1_values, a, c1, c2, field)
            if x0 is not None:
                rooted += 1
                assert rep.detail == f"perfect-square fiber at [{x0!r}:1]"
                assert pc.validate_member(*args, random.Random(0)) == _outcome(rep)
    assert report.settled_count == settled > 0
    # the validated factors of a random pencil away from the ends read their
    # root off S1; the family pencil has no S1
    assert (rooted > 0) == (s1 is not None)


@pytest.mark.parametrize(
    "pencil", [lambda: pc.random_pencil(P, 1), lambda: pc.family_pencil(P)], ids=["random", "family"]
)
def test_validation_runs_only_on_the_factors_of_rc_and_at_infinity(monkeypatch, pencil):
    f0, f1 = pencil()
    calls, gcd_roots = [], []
    validate, witness_at_gcd_root = pc.validate_member, pc._witness_at_gcd_root

    def recording_validate(abcde, conditions, degenerate, field, rng, s1=None):
        calls.append(abcde)
        return validate(abcde, conditions, degenerate, field, rng, s1)

    def recording_witness(*args):
        gcd_roots.append(args)
        return witness_at_gcd_root(*args)

    monkeypatch.setattr(pc, "validate_member", recording_validate)
    monkeypatch.setattr(pc, "_witness_at_gcd_root", recording_witness)
    report = pc.pencil_intersection_count(f0, f1, seed=1)
    monkeypatch.undo()
    rc, s1 = pc.condition_resultant(f0, f1)
    of_rc = [rep for rep in report.factors if not zpoly.zp_rem(list(rc), list(rep.modulus), P)]
    assert report.settled_count == report.factor_count - len(of_rc) > 0
    # A..E of each factor of Rc in turn, then of F1 = the member at infinity
    assert calls[:-1] == [_member_at(f0, f1, list(rep.modulus))[0][0] for rep in of_rc]
    assert calls[-1] == [[cs[1] for cs in cubic] for cubic, _ in pc._forms_in_t(f0, f1)[6:]]
    # the random pencil validates every finite root from S1, with no gcd
    # root; the family pencil has no S1 and finds them by gcds
    assert (len(gcd_roots) == 0) == (s1 is not None)


def test_a_degenerate_member_is_validated_even_off_rc(monkeypatch):
    # every fiber of the family's F1 is a square, so with the spanning members
    # swapped the member t = 0 is degenerate.  With Rc doctored to a nonzero
    # constant every factor lies off Rc, and only that member is validated
    f1, f0 = pc.family_pencil(P)
    monkeypatch.setattr(pc, "condition_resultant", lambda f0, f1: ((1,), None))
    report = pc.pencil_intersection_count(f0, f1)
    monkeypatch.undo()
    assert [rep.modulus for rep in report.factors if rep.validated] == [(0, 1)]
    assert report.settled_count == report.factor_count - 1


def test_condition_resultant_takes_one_integer_resultant_per_point(monkeypatch):
    # Rc = Res_x(c1, c2) at the formal degrees 9 and 12 of t-degrees 3 and 4:
    # 12 * 3 + 9 * 4 + 1 = 73 points, each giving Rc and S1 at once
    f0, f1 = pc.random_pencil(P, 1)
    calls = []
    original = zpoly.int_resultant

    def counting_resultant(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(zpoly, "int_resultant", counting_resultant)
    rc, s1 = pc.condition_resultant(f0, f1)
    monkeypatch.undo()
    assert len(calls) == 73
    assert all(len(f) == 10 and len(g) == 13 and rest == [True, P] for f, g, *rest in calls)
    assert len(rc) == 73 and [len(c) for c in s1] == [66, 66]


def test_condition_resultant_reads_s1_over_zz_where_the_sequence_mod_p_is_abnormal(monkeypatch):
    # at one of the 73 points of this pencil the remainder sequence of c1
    # and c2 over GF(p) is not normal, though that of the residues over ZZ
    # is: that point reads S1 over ZZ, so the pencil keeps its S1
    f0, f1 = pc.random_pencil(P, 31)
    calls = []
    original = zpoly.int_resultant

    def counting_resultant(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(zpoly, "int_resultant", counting_resultant)
    rc, s1 = pc.condition_resultant(f0, f1)
    monkeypatch.undo()
    over_zz = [args for args in calls if len(args) == 3]
    assert len(calls) == 74 and len(over_zz) == 1
    assert original(*over_zz[0], P)[1] is None and original(*over_zz[0])[1] is not None
    assert s1 is not None and [len(c) for c in s1] == [66, 66]
    (c1, _), (c2, _) = pc._forms_in_t(f0, f1)[2:4]
    for t in range(73):
        member = [[zpoly.int_eval(c, t) % P for c in cs] for cs in (c1, c2)]
        _, expected = original(*member, True)
        assert [zpoly.int_eval(c, t) % P for c in s1] == [c % P for c in expected], t


@pytest.mark.parametrize("t", [0, 1, 40, 72, 73, 500])
def test_pencil_first_subresultant_is_that_of_each_member(t):
    # s10 and s11 of t-degree 65, read from the 73 points, at sample points and
    # past them, against S1 of the member's c1 and c2 mod p, which
    # int_resultant reads and test_univar checks against the Sylvester minors
    f0, f1 = pc.random_pencil(P, 1)
    (c1, _), (c2, _) = pc._forms_in_t(f0, f1)[2:4]
    _, s1 = pc.condition_resultant(f0, f1)
    member = [[zpoly.int_eval(c, t) % P for c in cs] for cs in (c1, c2)]
    _, expected = zpoly.int_resultant(*member, True)
    assert [zpoly.int_eval(c, t) % P for c in s1] == [c % P for c in expected]


def _with_a_square_end_at_0(f0, f1):
    """The pencil with row 0 of F0 = (1, -2, 1, 0, 0): the [1:0] fiber of the
    member t = 0 is u^2 (u - v)^2, where c1 and c2 vanish, leading
    coefficients included."""
    return pc.Curve34(P, ((1, P - 2, 1, 0, 0),) + f0.coeffs[1:]), f1


@pytest.mark.parametrize(
    "pencil",
    [lambda: pc.family_pencil(P), lambda: _with_a_square_end_at_0(*pc.random_pencil(P, 1))],
    ids=["family", "square_end_at_0"],
)
def test_a_pencil_with_an_abnormal_sample_point_gets_no_s1(pencil):
    # the member t = 0 of both pencils has a square fiber at [1:0], where c1
    # and c2 vanish, leading coefficients included; the count still
    # validates each factor of Rc, by gcds
    f0, f1 = pencil()
    rc, s1 = pc.condition_resultant(f0, f1)
    assert s1 is None and rc
    (c1, _), (c2, _) = pc._forms_in_t(f0, f1)[2:4]
    at_0 = [[c[0] if c else 0 for c in cs] for cs in (c1, c2)]
    assert zpoly.int_resultant(*at_0, True)[1] is None
    assert pc.pencil_intersection_count(f0, f1).validated_count >= 9


def test_a_pencil_is_sampled_once(monkeypatch):
    # the eliminant screen of random_pencil, raw_resultant and the count all
    # read one cached table of forms, sampled at the members t = 0..6
    member_forms, members = pc._member_forms, []

    def recording_member_forms(f0, f1, t):
        members.append(t)
        return member_forms(f0, f1, t)

    monkeypatch.setattr(pc, "_member_forms", recording_member_forms)
    pc._forms_in_t.cache_clear()
    pc.raw_resultant.cache_clear()
    f0, f1 = pc.random_pencil(P, 1)
    assert pc.pencil_intersection_count(f0, f1, seed=1).validated_count == 24
    monkeypatch.undo()
    assert members == list(range(7))


def _brute_force_square_fibers(f0, f1, t):
    """The fibers [x:1], x in GF(p), and [1:0] of the member F0 + t F1 that are
    perfect squares over the closure, read straight from the curve coefficients."""
    p = f0.p
    rows = [[(a + t * b) % p for a, b in zip(r0, r1)] for r0, r1 in zip(f0.coeffs, f1.coeffs)]
    hits = []
    for x, y, label in [(x, 1, f"[{x}:1]") for x in range(p)] + [(1, 0, "[1:0]")]:
        # c[i][j] multiplies x^(3-i) y^i in the fiber coefficient number j
        fiber = QuarticCoeffs(
            *(sum(c[i] * x ** (3 - i) * y**i for i in range(4)) % p for c in zip(*rows))
        )
        if not any(value % p for value in closure_square_conditions(fiber)):
            hits.append(label)
    return hits


def test_validated_roots_against_a_brute_force_fiber_scan():
    # every fiber of the members at the roots of the four linear factors of R
    # and at 50 members off R: exactly the validated linear factors carry a
    # square fiber, and it sits at the root their witness names
    p = 1009
    f0, f1 = pc.random_pencil(p, 5)
    report = pc.pencil_intersection_count(f0, f1, seed=5)
    linear = {-rep.modulus[0] % p: rep for rep in report.factors if rep.degree == 1}
    assert sum(rep.validated for rep in linear.values()) == 3 and len(linear) == 4
    rng = random.Random("off the eliminant")
    r = pc.raw_resultant(f0, f1)
    off = set()
    while len(off) < 50:
        t = rng.randrange(p)
        if zpoly.int_eval(list(r), t) % p:
            off.add(t)
    for t in sorted(linear) + sorted(off):
        hits = _brute_force_square_fibers(f0, f1, t)
        if t in linear and linear[t].validated:
            assert linear[t].detail.removeprefix("perfect-square fiber at ") in hits
        else:
            assert hits == []


def test_count_invariant_under_swap():
    f0, f1 = pc.random_pencil(P, 3)
    forward = pc.pencil_intersection_count(f0, f1, seed=3)
    backward = pc.pencil_intersection_count(f1, f0, seed=3)
    # neither spanning member lies on the hypersurface, so finite roots match
    assert not forward.infinity_validated and not backward.infinity_validated
    assert forward.validated_count == backward.validated_count


def test_count_invariant_under_parameter_scaling():
    f0, f1 = pc.random_pencil(P, 3)
    scaled = pc.Curve34(P, tuple(tuple(7 * c % P for c in row) for row in f1.coeffs))
    base = pc.pencil_intersection_count(f0, f1, seed=3)
    rescaled = pc.pencil_intersection_count(f0, scaled, seed=3)
    assert base.validated_count == rescaled.validated_count
    assert base.raw_degree == rescaled.raw_degree


def test_eliminant_is_reduction_of_the_rational_one():
    # the structured family pencil is the rational family read mod p, and the
    # Sylvester entries are integers, so the GF(p) eliminant must be the
    # coefficientwise reduction of the exact rational eliminant
    from exactgeom import transversality as tv

    rational = tv.resultant_R().polynomial
    assert all(isinstance(c, int) for c in rational)
    for p in (10007, 31991, 1009):
        r = list(pc.raw_resultant(*pc.family_pencil(p)))
        assert r == zpoly.zp_trim([c % p for c in rational])
        assert zpoly.zp_deg(r) == 45


def _small_int_pencil(seed):
    """A pencil over ZZ with coefficients in [-9, 9]."""
    rng = random.Random(f"integer-pencil:{seed}")
    return tuple(
        pc.Curve34(None, tuple(tuple(rng.randint(-9, 9) for _ in range(5)) for _ in range(4)))
        for _ in range(2)
    )


@pytest.mark.parametrize("p, seed", [(10007, 1), (31991, 2), (1009, 3)])
def test_integer_table_reduces_to_the_table_of_the_reduced_pencil(p, seed):
    # every entry of the table over ZZ is an integer polynomial in t, and the
    # table mod p samples the same forms, so it is the reduction of the former
    pencil = _small_int_pencil(seed)
    reduced = [pc.Curve34(p, tuple(tuple(c % p for c in row) for row in f.coeffs)) for f in pencil]

    def trimmed(table):
        return [([zpoly.zp_trim([c % p for c in cs]) for cs in form], n) for form, n in table]

    assert trimmed(pc._forms_in_t(*pencil)) == trimmed(pc._forms_in_t(*reduced))
    r = pc.raw_resultant(*pencil)
    assert r and zpoly.zp_trim([c % p for c in r]) == list(pc.raw_resultant(*reduced))


def test_factor_report_summary_shape():
    f0, f1 = pc.family_pencil(P)
    report = pc.pencil_intersection_count(f0, f1)
    summary = report.summary()
    assert summary["prime"] == P
    assert {"factor", "degree", "validated", "detail"} <= set(summary["factors"][0])
    assert summary["validated_count"] == report.validated_count


def _at_y1(form, degree, field):
    """An integer (x, y, t)-form over QQ as its coefficient list in x at
    y = 1, padded to its degree, of raw values of ``field``: each coefficient,
    a polynomial in t, is reduced mod p, and over K = GF(p)[t]/(m) also mod m.
    Reduction is a ring map, so this is the form built over ``field``."""
    cs = _t_polynomials(BinaryForm(form, ("x", "y")), degree, field.char)
    if isinstance(field, ExtensionField):
        return [field._padded(zpoly.zp_rem(c, list(field.modulus), field.char)) for c in cs]
    assert all(len(c) <= 1 for c in cs)
    return [c[0] if c else 0 for c in cs]


def _vanishes(form, degree, field):
    return all(map(field._ris_zero, _at_y1(form, degree, field)))


def _validate(forms, field):
    """validate_member on the member whose fiber cubics A..E are the
    (x, y, t)-forms ``forms`` read over ``field``, with every other form
    derived from them over QQ.  The member is degenerate where d and Delta
    vanish over ``field``; Delta, the costly expansion, is built only when d
    vanishes identically."""
    quartic = QuarticCoeffs(*forms)
    conditions = [*closure_conditions_a_nonzero(quartic), *closure_conditions_a_zero(quartic)]
    degenerate = _vanishes(sem_d(quartic), 12, field) and _vanishes(disc_delta(quartic), 18, field)
    return pc.validate_member(
        [_at_y1(form, 3, field) for form in forms],
        [_at_y1(s, n, field) for s, n in zip(conditions, (9, 12, 3, 6))],
        degenerate,
        field,
        random.Random("member"),
    )


def _member_with_root_in_an_extension(field, a_vanishes_at_0=False):
    """validate_member on A..E_j = (x^2 + y^2)(x P_j + y P'_j) + S(x, y) [Q^2]_j
    over ``field``, with P, P' and Q drawn from random.Random(0) by the draws
    of field.rand: integer polynomials in t, one coefficient in [0, p) per
    coordinate, low degree first."""
    rng = random.Random(0)
    x, y, t = MultiPoly.gens(("x", "y", "t"))
    s = x**3 + 3 * x * y**2 + 5 * y**3

    def rand():
        return sum(rng.randrange(field.char) * t**k for k in range(pc.absolute_degree(field)))

    p1 = [rand() for _ in range(5)]
    p2 = [rand() for _ in range(5)]
    q_squared = square_coefficients(*(rand() for _ in range(3)))
    if a_vanishes_at_0:
        p2[0] = -5 * q_squared[0]
    forms = [(x * x + y * y) * (p1[j] * x + p2[j] * y) + s * q_squared[j] for j in range(5)]
    assert field._ris_zero(_at_y1(forms[0], 3, field)[0]) == a_vanishes_at_0
    return _validate(forms, field)


@pytest.mark.parametrize("a_vanishes_at_0", [False, True], ids=["generic", "a_vanishes_at_0"])
def test_validate_member_builds_the_root_in_an_extension(a_vanishes_at_0):
    # the roots of x^2 + y^2 lie in GF(p^2) only (-1 is a non-residue mod
    # 10007), the fiber quartic there is S(w, 1) Q^2, and S(w, 1) needs a
    # square root in GF(p^4).  With A(0, 1) = 0 the result is the same:
    # validation takes the closure-square conditions as polynomials in x,
    # not as samples that must avoid the roots of A.
    ok, info = _member_with_root_in_an_extension(PrimeField(P), a_vanishes_at_0)
    # pinned values: a changed witness must be announced like a golden change
    assert ok
    assert info == {
        "detail": "perfect-square fiber at [(w1):1]",
        "root_field_degree": 4,
        "witness": "((s))*u^2 + ((3558*s))*u*v + ((9788*s))*v^2",
        "distinct_double_roots": True,
    }


def test_validate_member_over_an_extension_builds_the_root_above_it():
    # a member over K = GF(p)[t]/(t^3 + t + 1): the gcd x^2 + 1 stays
    # irreducible over K (odd degree), so its root is adjoined over K itself,
    # whose raw values are tuples, and the square root of S(w, 1) lies in a
    # further quadratic extension, of absolute degree 12
    K = ExtensionField(PrimeField(P), [1, 1, 0, 1], name="t")
    ok, info = _member_with_root_in_an_extension(K)
    assert ok
    assert info == {
        "detail": "perfect-square fiber at [(w3):1]",
        "root_field_degree": 12,
        "witness": "((s))*u^2 + (((9256*t^2 + 1389*t + 5886)*s))*u*v"
        " + (((8474*t^2 + 7348*t + 2579)*s))*v^2",
        "distinct_double_roots": True,
    }


def _random_quadratics(rng):
    """Five (x, y)-quadratic forms, coefficients drawn in [0, P)."""
    x, y, _ = MultiPoly.gens(("x", "y", "t"))
    return [sum(rng.randrange(P) * x**i * y ** (2 - i) for i in range(3)) for _ in range(5)]


def _square_fiber_at_2_with_a_and_b_vanishing():
    # A..E_j = (x - 2y) P_j + S(x, y) [(c u + e v)^2]_j: A and B vanish at
    # [2:1], where the fiber S(2, 1) v^2 (c u + e v)^2 is a square
    rng = random.Random(1)
    x, y, _ = MultiPoly.gens(("x", "y", "t"))
    s = x**3 + 3 * x * y**2 + 5 * y**3
    p_forms = _random_quadratics(rng)
    q_squared = square_coefficients(0, rng.randrange(P), rng.randrange(P))
    return [(x - 2 * y) * p_forms[j] + s * q_squared[j] for j in range(5)]


def _square_fiber_at_0():
    # A..E_j = x P_j + y^3 [Q^2]_j: the fiber at [0:1] is Q^2
    rng = random.Random(2)
    x, y, _ = MultiPoly.gens(("x", "y", "t"))
    p_forms = _random_quadratics(rng)
    q_squared = square_coefficients(*(rng.randrange(P) for _ in range(3)))
    return [x * p_forms[j] + y**3 * q_squared[j] for j in range(5)]


@pytest.mark.parametrize(
    "forms, expected",
    [
        # the A = 0 branch: B and D^2 - 4CE share the root 2 with A
        (
            _square_fiber_at_2_with_a_and_b_vanishing,
            {
                "detail": "perfect-square fiber at [2:1]",
                "root_field_degree": 1,
                "witness": "(0)*u^2 + (6427)*u*v + (5852)*v^2",
                "distinct_double_roots": True,
            },
        ),
        # the end [0:1]: the constant coefficients of Delta and d both vanish
        (
            _square_fiber_at_0,
            {
                "detail": "perfect-square fiber at [0:1]",
                "root_field_degree": 1,
                "witness": "(1667)*u^2 + (3912)*u*v + (1092)*v^2",
                "distinct_double_roots": True,
            },
        ),
    ],
    ids=["a_zero_branch", "zero_end"],
)
def test_validate_member_finds_the_square_fiber(forms, expected):
    # pinned values: a changed witness must be announced like a golden change
    assert _validate(forms(), PrimeField(P)) == (True, expected)


@pytest.mark.parametrize(
    "multiples, expected",
    [
        # c ((u - v)(u - 2v))^2: every fiber is a square, and c(1, 0) = 5 is a
        # non-residue mod 10007, so the witness at [1:0] needs sqrt(5)
        (
            (1, -6, 13, -12, 4),
            (
                True,
                {
                    "detail": "perfect-square fiber at [1:0]",
                    "root_field_degree": 2,
                    "witness": "((s))*u^2 + ((10004*s))*u*v + ((2*s))*v^2",
                    "distinct_double_roots": True,
                },
            ),
        ),
        # c v^2 (u^2 + v^2): A = B = 0 everywhere, and no fiber with c != 0 is a square
        ((0, 0, 1, 0, 1), (False, {"detail": "both condition forms vanish identically"})),
    ],
    ids=["square", "boundary_non_square"],
)
def test_validate_member_where_both_conditions_vanish_identically(multiples, expected):
    # A..E = c (x, y) times fixed constants, so Delta and d vanish identically;
    # c(1, 0), c(0, 1) and c(1, 1) are nonzero, the fibers the degenerate branch probes
    x, y, _ = MultiPoly.gens(("x", "y", "t"))
    c = 5 * x**3 + x * x * y + 3 * y**3
    forms = [c * k for k in multiples]
    assert disc_delta(QuarticCoeffs(*forms)) == 0
    assert _validate(forms, PrimeField(P)) == expected


# --- the eliminant from integer evaluations ------------------------------------


def _degree_in(poly, name):
    """The degree of a nonzero MultiPoly in one of its variables."""
    index = poly.variables.index(name)
    return max(ex[index] for ex in poly.terms)


def _symbolic_conditions(f0, f1):
    """Delta, d and the closure-square conditions for A != 0 and for A = 0,
    built symbolically in (x, y, t) over QQ from A..E of F0 + t F1, with the
    coefficients of F0 and F1 read as the ints in [0, p), as MultiPoly forms:
    independently of the integer evaluations behind raw_resultant and the
    validation.  Every form has integer coefficients."""
    x, y, t = MultiPoly.gens(("x", "y", "t"))
    # c[i][j] multiplies x^(3-i) y^i in the fiber coefficient number j
    quartic = QuarticCoeffs(
        *(
            sum(
                (a + t * b) * x ** (3 - i) * y**i
                for i, (a, b) in enumerate(zip(c0, c1))
            )
            for c0, c1 in zip(zip(*f0.coeffs), zip(*f1.coeffs))
        )
    )
    forms = [
        disc_delta(quartic),
        sem_d(quartic),
        *closure_conditions_a_nonzero(quartic),
        *closure_conditions_a_zero(quartic),
    ]
    return [BinaryForm(form, ("x", "y")) for form in forms]


def _eliminant_members(f0, f1):
    """Delta(x, 1) and d(x, 1) of each member t = 0..144, from the
    per-member evaluator."""
    return [tuple(itertools.islice(pc._member_forms(f0, f1, t), 2)) for t in range(145)]


def _table_conditions(f0, f1):
    """The x^i coefficients of Delta(x, 1) and d(x, 1) as t-polynomials,
    interpolated through the 145 members of :func:`_eliminant_members`."""
    table = _eliminant_members(f0, f1)
    return tuple(
        [zpoly.interpolate(column, f0.p) for column in zip(*(row[k] for row in table))]
        for k in range(2)
    )


def _t_polynomials(form, degree, p):
    """The x^i y^(degree - i) coefficients of an (x, y, t)-form over QQ with
    integer coefficients, as t-polynomials mod p."""
    out = [[] for _ in range(degree + 1)]
    for (i, j, e), c in form.poly.terms.items():
        assert i + j == degree and c.denominator == 1
        cs = out[i]
        cs.extend([0] * (e + 1 - len(cs)))
        cs[e] = c.numerator % p
    return [zpoly.zp_trim(cs) for cs in out]


def _reduced_at(form, t, p):
    """An integer (x, y, t)-form over QQ at t, its coefficients reduced mod p."""
    at_t = form.poly.specialize({"t": t})
    terms = {ex: Fraction(c.numerator % p) for ex, c in at_t.terms.items()}
    return BinaryForm(MultiPoly(at_t.variables, terms), form.pair)


def _specialized_resultants(delta, d, p):
    """Res(Delta, d) mod p at t = 0..144: the QQ Sylvester resultant of the
    forms at t, reduced mod p.  R(t) has degree <= 6 * 12 + 4 * 18 = 144, so
    these 145 values determine it."""
    return [
        sylvester_resultant(_reduced_at(delta, t, p), _reduced_at(d, t, p)).constant_value() % p
        for t in range(145)
    ]


def _values_at_sample_points(cs, p):
    """A t-polynomial mod p (low degree first, degree <= 144) at t = 0..144."""
    assert len(cs) <= 145
    return [sum(c * pow(t, e, p) for e, c in enumerate(cs)) % p for t in range(145)]


@pytest.mark.parametrize("p, seed", [(10007, 1), (31991, 2), (65537, 1)])
def test_raw_resultant_matches_the_symbolic_sylvester_resultant(p, seed):
    f0, f1 = pc.random_pencil(p, seed)
    delta, d = _symbolic_conditions(f0, f1)[:2]
    assert _table_conditions(f0, f1) == (_t_polynomials(delta, 18, p), _t_polynomials(d, 12, p))
    assert _values_at_sample_points(pc.raw_resultant(f0, f1), p) == _specialized_resultants(
        delta, d, p
    )


def _with_a_vanishing_at_0(f0, f1):
    """The pencil with c[3][0] = 0 in F0, so that A(0, 1) = 0 on the member t = 0."""
    return pc.Curve34(f0.p, f0.coeffs[:3] + ((0,) + f0.coeffs[3][1:],)), f1


@pytest.mark.parametrize("a_vanishes_at_0", [False, True], ids=["generic", "a_vanishes_at_0"])
def test_member_forms_in_t_match_the_symbolic_ones(a_vanishes_at_0):
    # the six forms that validation reads, interpolated from the members
    # t = 0..6; where A(0, 1) = 0 the A != 0 conditions are still read at x = 0
    f0, f1 = pc.random_pencil(P, 1)
    if a_vanishes_at_0:
        f0, f1 = _with_a_vanishing_at_0(f0, f1)
    forms = pc._forms_in_t(f0, f1)[:6]
    symbolic = _symbolic_conditions(f0, f1)
    assert [n for _, n in forms] == [6, 4, 3, 4, 1, 2]
    for (cs, n), form, degree in zip(forms, symbolic, (18, 12, 9, 12, 3, 6)):
        assert form.degree == degree and _degree_in(form.poly, "t") <= n
        assert cs == tuple(map(tuple, _t_polynomials(form, degree, P)))


@pytest.mark.parametrize(
    "pencil",
    [
        lambda: pc.random_pencil(P, 1),
        lambda: pc.family_pencil(P),
        lambda: _with_a_vanishing_at_0(*pc.random_pencil(P, 1)),
    ],
    ids=["random", "family", "a_vanishes_at_0"],
)
def test_eliminant_members_read_from_the_forms_in_t(pencil):
    # raw_resultant reads Delta and d of the members t = 0..144 from the
    # t-polynomials interpolated at t = 0..6, by Horner mod p; the per-member
    # evaluator is the oracle at every one of the 145 points
    f0, f1 = pencil()
    forms = pc._forms_in_t(f0, f1)[:2]
    for t, expected in enumerate(_eliminant_members(f0, f1)):
        read = tuple(tuple(zpoly.int_eval(c, t) % P for c in cs) for cs, _ in forms)
        assert read == expected


def test_symbolic_family_resultant_is_reduction_of_the_rational_one():
    # the family pencil's Delta and d, specialized member by member, against
    # R(alpha) of the transversality check reduced mod p
    from exactgeom import transversality as tv

    delta, d = _symbolic_conditions(*pc.family_pencil(P))[:2]
    expected = [c % P for c in tv.resultant_R().polynomial]
    assert _values_at_sample_points(expected, P) == _specialized_resultants(delta, d, P)


def test_raw_resultant_where_both_leading_coefficients_vanish():
    # row 0 of F0 is (1, -2, 1, 0, 0): the [1:0] fiber of the t = 0 member is
    # u^2 (u - v)^2, so the x^18 coefficient of Delta and the x^12 coefficient
    # of d both vanish there, the first Sylvester column is zero and R(0) = 0
    rng = random.Random("leading-collapse")
    f0, f1 = pc.random_curve(P, rng), pc.random_curve(P, rng)
    f0 = pc.Curve34(P, (tuple(c % P for c in (1, -2, 1, 0, 0)),) + f0.coeffs[1:])
    delta0, d0, *_ = pc._member_forms(f0, f1, 0)
    assert delta0[-1] == 0 == d0[-1]
    r = pc.raw_resultant(f0, f1)
    assert r[0] == 0
    delta, d = _symbolic_conditions(f0, f1)[:2]
    assert _table_conditions(f0, f1) == (_t_polynomials(delta, 18, P), _t_polynomials(d, 12, P))
    assert _values_at_sample_points(r, P) == _specialized_resultants(delta, d, P)


def test_raw_resultant_takes_one_integer_resultant_per_point(monkeypatch):
    f0, f1 = pc.random_pencil(P, 1)
    calls = []
    original_resultant = zpoly.int_resultant

    def counting_resultant(a, b, *rest):
        calls.append((a, b))
        return original_resultant(a, b, *rest)

    monkeypatch.setattr(zpoly, "int_resultant", counting_resultant)
    r = pc.raw_resultant.__wrapped__(f0, f1)  # past the cache
    monkeypatch.undo()
    # one resultant of the residues of Delta(x, 1) and d(x, 1) at the formal
    # degrees 18 and 12 at each sample point, reduced mod p
    assert len(calls) == pc.ELIMINANT_POINTS == 145
    assert all(len(a) == 19 and len(b) == 13 for a, b in calls)
    assert all(0 <= c < P for a, b in calls for c in a + b)
    assert r == pc.raw_resultant(f0, f1)


def test_family_eliminant_takes_the_points_its_t_degrees_need(monkeypatch):
    # Delta and d of the family pencil have t-degrees 4 and 2, so R(alpha)
    # mod p is sampled at 12 * 4 + 18 * 2 + 1 = 85 points, not 145
    f0, f1 = pc.family_pencil(P)
    (delta, _), (d, _) = pc._forms_in_t(f0, f1)[:2]
    assert (max(map(len, delta)), max(map(len, d))) == (5, 3)
    calls = []
    original_resultant = zpoly.int_resultant

    def counting_resultant(a, b, *rest):
        calls.append((a, b))
        return original_resultant(a, b, *rest)

    monkeypatch.setattr(zpoly, "int_resultant", counting_resultant)
    r = pc.raw_resultant.__wrapped__(f0, f1)  # past the cache
    monkeypatch.undo()
    assert len(calls) == 85
    values = [
        zpoly.int_resultant(*([zpoly.int_eval(c, t) % P for c in cs] for cs in (delta, d)))
        for t in range(pc.ELIMINANT_POINTS)
    ]
    assert list(r) == zpoly.interpolate(values, P)
    assert len(r) == 46


@pytest.mark.parametrize("p", [101, 139])
def test_pencil_count_needs_145_sample_points(p):
    # R(t) is interpolated at t = 0..144, which are not distinct mod p < 145
    rng = random.Random(p)
    f0, f1 = pc.random_curve(p, rng), pc.random_curve(p, rng)
    with pytest.raises(InterpolationError):
        pc.pencil_intersection_count(f0, f1)


def test_members_over_different_fields_are_rejected():
    f0, _ = pc.random_pencil(P, 1)
    other = pc.random_curve(31991, random.Random(1))
    with pytest.raises(ValueError, match="different fields"):
        pc.raw_resultant(f0, other)
    with pytest.raises(ValueError, match="different fields"):
        pc._forms_in_t(f0, other)
    with pytest.raises(ValueError, match="GF\\(p\\)"):
        pc.pencil_intersection_count(f0, other)
