"""Command-line entry point binding all verifications into reproducible runs.

Subcommands::

    exactgeom verify-intersection     the 240 on the symmetric product
    exactgeom verify-lines            27 lines, group orders, orbits, SRG
    exactgeom verify-transversality   eliminant, section, smoothness
    exactgeom verify-pencil24         vertical-bitangent counts per (prime, seed)
    exactgeom verify-quartic-fuzz     randomized square-criterion equivalence
    exactgeom all                     everything above

A human summary is printed to stdout; ``--out PATH`` additionally writes the
JSON report.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage
error, 3 internal error.
"""

from __future__ import annotations

import argparse
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


def _timed(func):
    start = time.monotonic()
    result = func()
    return result, time.monotonic() - start


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
    try:
        (witness, ok), elapsed = _timed(body)
    except VerificationError as exc:
        return [CheckResult("symmetric-product-240", claim, FAIL, {"error": str(exc)})]
    return [
        CheckResult(
            "symmetric-product-240", claim, PASS if ok else FAIL, witness, elapsed
        )
    ]


def check_lines(config: RunConfig) -> list[CheckResult]:
    claim = (
        "27 line classes; symmetry group of order 51840; line stabilizer of order 1920 "
        "with orbit sizes 1/10/16 matching the incidence partition; incidence graph "
        "strongly regular (27,10,1,5); five coplanar pairs per line forming a perfect "
        "matching on its ten neighbours"
    )
    summary, elapsed = _timed(lines.verification_summary)
    ok = (
        summary["line_count"] == 27
        and summary["box_search_count"] == 27
        and summary["weyl_order"] == 51840
        and summary["stabilizer_order"] == 1920
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
    return [CheckResult("line-configuration", claim, PASS if ok else FAIL, summary, elapsed)]


def check_transversality(config: RunConfig) -> list[CheckResult]:
    out = []

    claim_r = (
        "the eliminant R(alpha) of the discriminant/seminvariant conditions of the "
        "bitangent family is nonzero, vanishes at alpha = 0, and its degree and order "
        "of vanishing are finite computed values"
    )
    def body_r():
        diag = transversality.resultant_R()
        witness = diag.summary()
        witness["spot_check_alpha_5"] = transversality.resultant_spot_check(5)
        ok = (
            not diag.identically_zero
            and diag.value_at_zero == 0
            and diag.order_at_zero >= 1
            and witness["spot_check_alpha_5"]
        )
        return witness, ok
    (witness, ok), elapsed = _timed(body_r)
    out.append(CheckResult("family-eliminant", claim_r, PASS if ok else FAIL, witness, elapsed))

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
    try:
        (witness, ok), elapsed = _timed(body_s)
    except VerificationError as exc:
        out.append(CheckResult("section-seminvariant", claim_s, FAIL, {"error": str(exc)}))
    else:
        out.append(
            CheckResult("section-seminvariant", claim_s, PASS if ok else FAIL, witness, elapsed)
        )

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
    (witness, ok), elapsed = _timed(body_m)
    out.append(
        CheckResult("smoothness-certificate", claim_m, PASS if ok else FAIL, witness, elapsed)
    )
    return out


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
            report = pencil24.pencil_intersection_count(f0, f1, p, seed=seed)
            return report.summary(), report.validated_count == 24
        (witness, ok), elapsed = _timed(body)
        out.append(
            CheckResult(
                f"pencil-count-p{p}-s{seed}", claim, PASS if ok else FAIL, witness, elapsed
            )
        )
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
    (witness, ok), elapsed = _timed(body)
    return [CheckResult("quartic-square-fuzz", claim, PASS if ok else FAIL, witness, elapsed)]


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
    if value <= 1000 or not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not a prime > 1000")
    return value


def _validated_seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds must be non-negative")
    return value


def _validated_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("counts must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactgeom",
        description="Exact-arithmetic verification toolkit (see README for the checks).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in CHECK_RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument(
            "--prime",
            action="append",
            type=_validated_prime,
            dest="primes",
            metavar="P",
            help=f"prime modulus for pencil trials, repeatable (default {list(DEFAULT_PRIMES)})",
        )
        cmd.add_argument(
            "--seed",
            action="append",
            type=_validated_seed,
            dest="seeds",
            metavar="N",
            help=f"pencil seed, repeatable (default {list(DEFAULT_SEEDS)})",
        )
        cmd.add_argument(
            "--trials", type=_validated_count, help="cap the number of (prime, seed) trials"
        )
        cmd.add_argument("--out", help="write the JSON report to this path")
        cmd.add_argument(
            "--fuzz-count",
            type=_validated_count,
            default=DEFAULT_FUZZ,
            help="number of random quartics over the prime field (default %(default)s)",
        )
        cmd.add_argument("--quiet", action="store_true", help="suppress the summary table")
        if name in ("verify-lines", "all"):
            cmd.add_argument("--dot", help="write the incidence graph in DOT format")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        primes=tuple(args.primes) if args.primes else DEFAULT_PRIMES,
        seeds=tuple(args.seeds) if args.seeds else DEFAULT_SEEDS,
        trials=args.trials,
        out=args.out,
        fuzz_count=args.fuzz_count,
        quiet=args.quiet,
        dot=getattr(args, "dot", None),
    )


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
