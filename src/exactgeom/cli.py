"""Command-line entry point binding all verifications into reproducible runs.

Subcommands::

    exactgeom verify-intersection     the 240 on the symmetric product
    exactgeom verify-lines            27 lines, group orders, orbits, SRG
    exactgeom verify-transversality   eliminant, section, smoothness
    exactgeom verify-pencil24         vertical-bitangent counts per (prime, seed)
    exactgeom verify-quartic-fuzz     randomized square-criterion equivalence
    exactgeom all                     everything above

Each subcommand takes the options its checks read (``SUBCOMMAND_OPTIONS``),
and ``--out`` and ``--quiet``; any other option is a usage error.  A human
summary is printed to stdout; ``--out PATH`` additionally writes the JSON
report, whose config lists every setting, defaults included.  Exit codes:
0 all checks pass, 1 a check failed, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import lines, pencil24, symprod, transversality
from .domains import QQ, PrimeField, is_prime
from .errors import VerificationError
from .quartic import fuzz_square_criterion
from .report import FAIL, PASS, CheckResult, Report

DEFAULT_PRIMES = (10007, 31991)
DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_FUZZ = 10000


@dataclass
class RunConfig:
    command: str
    primes: tuple[int, ...] = DEFAULT_PRIMES
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    trials: Optional[int] = None
    out: Optional[str] = None
    fuzz_count: int = DEFAULT_FUZZ
    quiet: bool = False
    dot: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "primes": list(self.primes),
            "seeds": list(self.seeds),
            "trials": self.trials,
            "fuzz_count": self.fuzz_count,
        }


def _run_check(check: str, claim: str, body) -> CheckResult:
    """Time ``body() -> (witness, ok)``; a VerificationError fails the check
    with the message as its witness instead of aborting the run."""
    start = time.monotonic()
    try:
        witness, ok = body()
    except VerificationError as exc:
        witness, ok = {"error": str(exc)}, False
    return CheckResult(check, claim, PASS if ok else FAIL, witness, time.monotonic() - start)


def check_intersection(config: RunConfig) -> list[CheckResult]:
    claim = (
        "on the fourth symmetric product of a genus-5 curve, the pencil-locus class "
        "(theta^2 - 2x theta)/2 times the doubling-locus class 4(32x^2 + theta^2 - 10x theta) "
        "expands to 104x^2theta^2 + 2theta^4 - 24xtheta^3 - 128x^3theta and integrates to 240"
    )
    def body():
        product, value = symprod.product_and_eval()
        monomials = {
            f"x^{4 - j}theta^{j}": symprod.monomial_value(5, 4, 4 - j, j) for j in range(5)
        }
        return {
            "expansion": product.to_text(),
            "value": str(value),
            "monomial_values": monomials,
        }, value == 240
    return [_run_check("symmetric-product-240", claim, body)]


def check_lines(config: RunConfig) -> list[CheckResult]:
    claim = (
        "27 line classes; symmetry group of order 51840; line stabilizer of order 1920 "
        "with orbit sizes 1/10/16 matching the incidence partition; incidence graph "
        "strongly regular (27,10,1,5); five coplanar pairs per line forming a perfect "
        "matching on its ten neighbours"
    )
    def body():
        summary = lines.verification_summary()
        ok = (
            summary["line_count"] == 27
            and summary["box_search_count"] == 27
            and summary["weyl_order"] == 51840
            and summary["stabilizer_order"] == 1920
            and summary["stabilizer_type"] == "D5"
            and summary["orbit_sizes"] == [1, 10, 16]
            and summary["orbits_match_incidence"]
            and summary["weyl_transitive"]
            and summary["generators_preserve_pairing"]
            and summary["srg"] == [27, 10, 1, 5]
            and summary["tritangent_pair_count"] == 5
        )
        if config.dot:
            with open(config.dot, "w", encoding="utf-8") as handle:
                handle.write(lines.incidence_dot() + "\n")
            summary["dot_written_to"] = config.dot
        return summary, ok
    return [_run_check("line-configuration", claim, body)]


def check_transversality(config: RunConfig) -> list[CheckResult]:
    claim_r = (
        "the eliminant R(alpha) of the discriminant/seminvariant conditions of the "
        "bitangent family is nonzero, vanishes at alpha = 0, and its degree and order "
        "of vanishing are finite computed values"
    )
    def body_r():
        diag = transversality.resultant_R()
        witness = diag.summary()
        witness["spot_check_alpha_5"] = transversality.resultant_spot_check(5)
        # alpha = 5 is a sample node of R's grid, so R(5) agrees there even
        # with too few samples; -7 is a node of no grid
        witness["spot_check_alpha_minus_7"] = transversality.resultant_spot_check(-7)
        ok = (
            not diag.identically_zero
            and diag.value_at_zero == 0
            and diag.order_at_zero >= 1
            and witness["spot_check_alpha_5"]
            and witness["spot_check_alpha_minus_7"]
        )
        return witness, ok

    claim_s = (
        "the seminvariant along the marked section equals -16 alpha^2 - 32 alpha "
        "exactly, with nonzero linear term"
    )
    def body_s():
        section = transversality.section_reducedness()
        return {
            "polynomial": section.polynomial.to_text(),
            "linear_coefficient": str(section.linear_coefficient),
            "constant_term": str(section.constant_term),
        }, section.reduced and section.linear_coefficient == -32 and section.constant_term == 0

    claim_m = (
        "the alpha = 0 member is certified smooth; the two singular control inputs "
        "(a non-reduced (2,2)-divisor and a reducible (3,4)-form with a double point) "
        "are rejected"
    )
    def body_m():
        cert = transversality.p0_smoothness_certificate()
        control1 = transversality.smoothness_certificate(transversality.control_nonreduced())
        control2 = transversality.smoothness_certificate(
            transversality.control_reducible_singular()
        )
        witness = {
            "member": cert.summary(),
            "control_nonreduced": control1.summary(),
            "control_reducible": control2.summary(),
        }
        ok = cert.status == "smooth" and control1.status == "fail" and control2.status == "fail"
        return witness, ok

    return [
        _run_check("family-eliminant", claim_r, body_r),
        _run_check("section-seminvariant", claim_s, body_s),
        _run_check("smoothness-certificate", claim_m, body_m),
    ]


def check_pencil24(config: RunConfig) -> list[CheckResult]:
    combos = [(p, s) for p in config.primes for s in config.seeds]
    if config.trials is not None:
        combos = combos[: config.trials]
    out = []
    for p, seed in combos:
        claim = (
            f"a random pencil of (3,4)-curves over GF({p}) (seed {seed}) meets the "
            "vertical-bitangent hypersurface in exactly 24 validated points"
        )
        def body(p=p, seed=seed):
            f0, f1 = pencil24.random_pencil(p, seed)
            report = pencil24.pencil_intersection_count(f0, f1, seed=seed)
            return report.summary(), report.validated_count == 24
        out.append(_run_check(f"pencil-count-p{p}-s{seed}", claim, body))
    return out


def check_quartic_fuzz(config: RunConfig) -> list[CheckResult]:
    claim = (
        "for random quartics with nonzero leading coefficient, joint vanishing of the "
        "discriminant and seminvariant is equivalent to being a perfect square over the "
        "closure; constructed squares always satisfy both sides; the boundary case "
        "(0,0,1,0,1) vanishes jointly without being a square"
    )
    def body():
        field_report = fuzz_square_criterion(
            PrimeField(10007), config.fuzz_count, random.Random("fuzz:gf"), config.fuzz_count
        )
        rational_report = fuzz_square_criterion(
            QQ, max(config.fuzz_count // 10, 1), random.Random("fuzz:qq")
        )
        ok = all(
            not rep["equivalence_discrepancies"]
            and not rep["square_failures"]
            and rep["boundary_joint_vanishing_without_square"]
            for rep in (field_report, rational_report)
        )
        return {"prime_field": field_report, "rationals": rational_report}, ok
    return [_run_check("quartic-square-fuzz", claim, body)]


CHECK_RUNNERS = {
    "verify-intersection": (check_intersection,),
    "verify-lines": (check_lines,),
    "verify-transversality": (check_transversality,),
    "verify-pencil24": (check_pencil24,),
    "verify-quartic-fuzz": (check_quartic_fuzz,),
    "all": (
        check_intersection,
        check_lines,
        check_quartic_fuzz,
        check_transversality,
        check_pencil24,
    ),
}


def run(config: RunConfig) -> Report:
    report = Report(config=config.to_dict())
    for runner in CHECK_RUNNERS[config.command]:
        report.checks.extend(runner(config))
    return report


def _validated_prime(text: str) -> int:
    value = int(text)
    # bound first: PrimeField needs p < 2**31, and is_prime is exact only below 3215031751
    if not pencil24.MIN_PRIME < value < 2**31 or not is_prime(value):
        raise argparse.ArgumentTypeError(
            f"{value} is not a prime with {pencil24.MIN_PRIME} < p < 2^31"
        )
    return value


def _validated_seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds must be non-negative")
    return value


def _output_path(text: str) -> str:
    # checked before any check runs, so a bad path costs no work
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _validated_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("counts must be positive")
    return value


OPTIONS = {
    "--prime": dict(
        action="append", type=_validated_prime, dest="primes", metavar="P",
        help=f"prime modulus for pencil trials, repeatable (default {list(DEFAULT_PRIMES)})",
    ),
    "--seed": dict(
        action="append", type=_validated_seed, dest="seeds", metavar="N",
        help=f"pencil seed, repeatable (default {list(DEFAULT_SEEDS)})",
    ),
    "--trials": dict(type=_validated_count, help="cap the number of (prime, seed) trials"),
    "--fuzz-count": dict(
        type=_validated_count,
        help=f"number of random quartics over the prime field (default {DEFAULT_FUZZ})",
    ),
    "--dot": dict(type=_output_path, help="write the incidence graph in DOT format"),
    "--out": dict(type=_output_path, help="write the JSON report to this path"),
    "--quiet": dict(action="store_true", help="suppress the summary table"),
}

# the options each subcommand takes: those its checks read, then --out and --quiet
SUBCOMMAND_OPTIONS = {
    "verify-intersection": (),
    "verify-lines": ("--dot",),
    "verify-transversality": (),
    "verify-pencil24": ("--prime", "--seed", "--trials"),
    "verify-quartic-fuzz": ("--fuzz-count",),
    "all": ("--prime", "--seed", "--trials", "--fuzz-count", "--dot"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactgeom",
        description="Exact-arithmetic verification toolkit (see README for the checks).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in SUBCOMMAND_OPTIONS.items():
        # an option that is not given sets nothing, so RunConfig keeps its default
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for option in options + ("--out", "--quiet"):
            cmd.add_argument(option, **OPTIONS[option])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    settings = dict(vars(args))
    for key in ("primes", "seeds"):
        if key in settings:
            # a repeated value would run the same pencil twice
            settings[key] = tuple(dict.fromkeys(settings[key]))
    return RunConfig(**settings)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        report = run(config)
        if not config.quiet:
            width = max(len(c.check) for c in report.checks)
            for entry in report.checks:
                print(f"{entry.check:<{width}}  {entry.status:<12} {entry.wall_time_s:8.2f}s")
            print(f"overall: {report.overall}")
        if config.out:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
    except Exception as exc:  # internal error contract: diagnostic + exit 3
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0 if report.overall == PASS else 1


if __name__ == "__main__":
    sys.exit(main())
