"""Fact gate: the paper's claims, written out by hand from PAPER.md.

Every report the benchmark receives is compared with these constants, never
with values produced by the code under test.  Witness strings (square roots
in extension fields) are not compared: a different quadratic non-residue may
flip the sign of a Tonelli-Shanks root without changing any claim.
"""

from __future__ import annotations

PENCIL_VALIDATED = 24
PENCIL_RAW_DEGREE = 144
ELIMINANT_DEGREE = 45
ELIMINANT_ORDER_AT_ZERO = 2
SECTION_POLYNOMIAL = "-16*alpha^2 - 32*alpha"
SMOOTHNESS_STATUSES = {"member": "smooth", "control_nonreduced": "fail", "control_reducible": "fail"}
WEYL_ORDER = 51840
STABILIZER_ORDER = 1920
ORBIT_SIZES = [1, 10, 16]
SRG = [27, 10, 1, 5]
LINE_COUNT = 27
INTERSECTION_VALUE = "240"


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_report(document: dict, expected_checks: list[str]) -> list[str]:
    """Mismatches between one CLI JSON report and the paper's facts."""
    problems: list[str] = []
    checks = {entry["check"]: entry for entry in document.get("checks", [])}
    _expect(problems, "checks run", sorted(checks), sorted(expected_checks))
    for name, entry in checks.items():
        _expect(problems, f"{name} status", entry.get("status"), "pass")
        w = entry.get("witness", {})
        if name.startswith("pencil-count-"):
            _expect(problems, f"{name} validated_count", w.get("validated_count"), PENCIL_VALIDATED)
            _expect(problems, f"{name} raw_degree", w.get("raw_degree"), PENCIL_RAW_DEGREE)
        elif name == "family-eliminant":
            _expect(problems, "deg R", w.get("degree"), ELIMINANT_DEGREE)
            _expect(problems, "ord_0 R", w.get("order_at_zero"), ELIMINANT_ORDER_AT_ZERO)
            _expect(problems, "R identically zero", w.get("identically_zero"), False)
        elif name == "section-seminvariant":
            _expect(problems, "section polynomial", w.get("polynomial"), SECTION_POLYNOMIAL)
        elif name == "smoothness-certificate":
            for key, status in SMOOTHNESS_STATUSES.items():
                _expect(problems, f"{key} status", w.get(key, {}).get("status"), status)
        elif name == "line-configuration":
            _expect(problems, "line count", w.get("line_count"), LINE_COUNT)
            _expect(problems, "Weyl order", w.get("weyl_order"), WEYL_ORDER)
            _expect(problems, "stabilizer order", w.get("stabilizer_order"), STABILIZER_ORDER)
            _expect(problems, "orbit sizes", w.get("orbit_sizes"), ORBIT_SIZES)
            _expect(problems, "SRG parameters", w.get("srg"), SRG)
        elif name == "symmetric-product-240":
            _expect(problems, "intersection value", w.get("value"), INTERSECTION_VALUE)
        elif name == "quartic-square-fuzz":
            for domain in ("prime_field", "rationals"):
                part = w.get(domain, {})
                _expect(problems, f"{domain} discrepancies", part.get("equivalence_discrepancies"), [])
                _expect(problems, f"{domain} square failures", part.get("square_failures"), [])
                _expect(
                    problems,
                    f"{domain} boundary flag",
                    part.get("boundary_joint_vanishing_without_square"),
                    True,
                )
    _expect(problems, "overall", document.get("overall"), "pass")
    return problems

