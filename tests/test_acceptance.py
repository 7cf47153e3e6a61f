"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion is a separate test; a PASS/FAIL line per criterion is printed
so a ``pytest -s`` run doubles as a human-readable acceptance protocol.  All
comparisons are exact; the runtime ceilings are generous sanity bounds.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from exactgeom import lines, pencil24, symprod, transversality
from exactgeom.binform import BinaryForm, sylvester_resultant
from exactgeom.domains import QQ, PrimeField
from exactgeom.multipoly import MultiPoly
from exactgeom.quartic import (
    QuarticCoeffs,
    disc_delta,
    fuzz_square_criterion,
    is_square_over_closure,
    sem_d,
)

PRIMES = (10007, 31991)
SEEDS = (1, 2, 3)


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= limit_s else "FAIL (over time budget)"
    print(f"criterion {number}: {status} - {description} ({elapsed:.2f}s)")
    assert elapsed <= limit_s, f"criterion {number} exceeded {limit_s}s"


def test_criterion_1_intersection_number():
    with criterion(1, "symmetric-product intersection number is exactly 240", 1.0):
        product, value = symprod.product_and_eval()
        assert value == Fraction(240)
        assert dict(product.coeffs) == {
            (2, 2): Fraction(104),
            (0, 4): Fraction(2),
            (1, 3): Fraction(-24),
            (3, 1): Fraction(-128),
        }


def test_criterion_2_section_condition():
    with criterion(2, "section seminvariant equals -16a^2 - 32a with linear term -32", 1.0):
        section = transversality.section_reducedness()
        (alpha,) = MultiPoly.gens(("alpha",))
        assert section.polynomial == -16 * alpha**2 - 32 * alpha
        assert section.linear_coefficient == -32
        assert section.constant_term == 0


def test_criterion_3_resultant_transversality():
    with criterion(3, "eliminant R(a) nonzero with R(0) = 0 and finite vanishing order", 600.0):
        diag = transversality.resultant_R()
        assert not diag.identically_zero
        assert diag.value_at_zero == 0
        assert 1 <= diag.order_at_zero <= diag.degree
        print(
            f"  finding: deg R = {diag.degree}, ord_0 R = {diag.order_at_zero}"
        )


def test_criterion_4_smoothness_certificate():
    with criterion(4, "marked member certified smooth; singular controls rejected", 300.0):
        assert transversality.p0_smoothness_certificate().status == "smooth"
        control1 = transversality.smoothness_certificate(transversality.control_nonreduced())
        control2 = transversality.smoothness_certificate(
            transversality.control_reducible_singular()
        )
        assert control1.status == "fail"
        assert control2.status == "fail"


def test_criterion_5_pencil_counts():
    for p in PRIMES:
        for seed in SEEDS:
            with criterion(5, f"validated bitangent count is 24 at (p={p}, seed={seed})", 300.0):
                f0, f1 = pencil24.random_pencil(p, seed)
                report = pencil24.pencil_intersection_count(f0, f1, seed=seed)
                assert report.validated_count == 24


def test_criterion_6_line_configuration():
    with criterion(6, "group orders 51840/1920, orbits 1+10+16, SRG(27,10,1,5), matching", 30.0):
        summary = lines.verification_summary()
        assert summary["weyl_order"] == 51840
        assert summary["stabilizer_order"] == 1920
        assert summary["orbit_sizes"] == [1, 10, 16]
        assert summary["orbits_match_incidence"]
        assert summary["srg"] == [27, 10, 1, 5]
        assert summary["tritangent_pair_count"] == 5
        # each line's ten neighbours really split into five disjoint coplanar pairs
        for marked in lines.LABELS:
            pairs = lines.tritangent_pairs(marked)
            assert len(pairs) == 5
            covered = sorted(x for pair in pairs for x in pair)
            assert covered == sorted(lines.incidence_graph()[marked])


def test_criterion_7_quartic_fuzz():
    with criterion(
        7, "square witness <-> joint vanishing on 10^4 GF(10007) + 10^3 QQ quartics", 60.0
    ):
        field_report = fuzz_square_criterion(
            PrimeField(10007), 10000, random.Random("acceptance:gf"), 10000
        )
        assert field_report["equivalence_discrepancies"] == []
        assert field_report["square_failures"] == []
        assert field_report["boundary_joint_vanishing_without_square"]
        rational_report = fuzz_square_criterion(QQ, 1000, random.Random("acceptance:qq"), 1000)
        assert rational_report["equivalence_discrepancies"] == []
        assert rational_report["square_failures"] == []
        assert rational_report["boundary_joint_vanishing_without_square"]
        # the documented boundary counterexample of the unrestricted converse
        boundary = QuarticCoeffs(*map(Fraction, (0, 0, 1, 0, 1)))
        assert disc_delta(boundary) == 0 and sem_d(boundary) == 0
        assert not is_square_over_closure(boundary, QQ)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "independent oracles: line box search, monomial rule, resultant route", 120.0):
        # 27 lines from the bounded integer box search
        solutions = set(lines.exhaustive_box_solutions())
        assert len(solutions) == 27
        assert solutions == set(lines.LINE_CLASSES.values())
        # closed-form monomial values against an independent falling factorial
        for g in range(1, 7):
            for d in range(1, 5):
                for j in range(d + 1):
                    expected = 1
                    for k in range(j):
                        expected *= g - k
                    assert symprod.monomial_value(g, d, d - j, j) == expected
        # the discriminant against the Sylvester-resultant route on 10^3 quartics
        rng = random.Random("acceptance:delta")
        u, v = MultiPoly.gens(("u", "v"))
        checked = 0
        while checked < 1000:
            coeffs = QuarticCoeffs(*(Fraction(rng.randrange(-9, 10)) for _ in range(5)))
            if not coeffs.A:
                continue
            A, B, C, D, E = coeffs
            f = A * u**4 + B * u**3 * v + C * u**2 * v**2 + D * u * v**3 + E * v**4
            res = sylvester_resultant(
                BinaryForm(f, ("u", "v")), BinaryForm(f.partial_derivative("u"), ("u", "v"))
            ).constant_value()
            assert disc_delta(coeffs) == res / A
            checked += 1
