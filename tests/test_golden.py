"""Golden reports: CLI runs must reproduce committed files.

``data/golden_all_p10007_s3.json`` is the stripped report (wall times removed
by :func:`exactgeom.report.strip_timings`) of::

    exactgeom all --prime 10007 --seed 3 --trials 1 --fuzz-count 1000

That pencil is the cheapest default-prime one whose validation builds tower
extensions (extensions of extensions), so the file pins tower arithmetic,
factor order and every witness string, not only the headline counts.

``data/golden_pencil24_p31991_s1.json`` is the stripped report of::

    exactgeom verify-pencil24 --prime 31991 --seed 1

whose validated factors live in GF(p^9) and GF(p^15), so it pins member
validation in large extensions.

``data/golden_family_pencil_p<P>.json``, for P in {10007, 31991}, is the
JSON of ``pencil_intersection_count(*family_pencil(P)).summary()``.  The
transversality family is a pencil whose factor t is validated at the
end [1:0] and whose t = infinity member has every fiber a square (Delta and
d vanish identically), so these files pin the end probes and the degenerate
member, which no CLI report reaches.

Refactors must leave these files untouched.  Only a change that announces a
witness change (for example a different quadratic non-residue, which flips
Tonelli-Shanks root signs) may regenerate them, and must say so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from exactgeom import cli
from exactgeom.pencil24 import family_pencil, pencil_intersection_count
from exactgeom.report import strip_timings

DATA = Path(__file__).parent / "data"
ARGV = ["all", "--prime", "10007", "--seed", "3", "--trials", "1", "--fuzz-count", "1000"]


def _stripped_report(tmp_path, argv) -> str:
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--quiet", "--out", str(out)]) == 0
    stripped = strip_timings(json.loads(out.read_text(encoding="utf-8")))
    return json.dumps(stripped, indent=2, ensure_ascii=False) + "\n"


def test_all_report_matches_golden(tmp_path):
    golden = DATA / "golden_all_p10007_s3.json"
    assert _stripped_report(tmp_path, ARGV) == golden.read_text(encoding="utf-8")


def test_pencil24_report_matches_golden(tmp_path):
    golden = DATA / "golden_pencil24_p31991_s1.json"
    argv = ["verify-pencil24", "--prime", "31991", "--seed", "1"]
    assert _stripped_report(tmp_path, argv) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("p", [10007, 31991])
def test_family_pencil_count_matches_golden(p):
    golden = DATA / f"golden_family_pencil_p{p}.json"
    summary = pencil_intersection_count(*family_pencil(p)).summary()
    text = json.dumps(summary, indent=2, ensure_ascii=False) + "\n"
    assert text == golden.read_text(encoding="utf-8")
