"""Golden report: a full ``exactgeom all`` run must reproduce a committed file.

``data/golden_all_p10007_s3.json`` is the stripped report (wall times removed
by :func:`exactgeom.report.strip_timings`) of::

    exactgeom all --prime 10007 --seed 3 --trials 1 --fuzz-count 1000

That pencil is the cheapest default-prime one whose validation builds tower
extensions (extensions of extensions), so the file pins tower arithmetic,
factor order and every witness string, not only the headline counts.

Refactors must leave this file untouched.  Only a change that announces a
witness change (for example a different quadratic non-residue, which flips
Tonelli-Shanks root signs) may regenerate it, and must say so in CHANGES.md.
"""

import json
from pathlib import Path

from exactgeom import cli
from exactgeom.report import strip_timings

GOLDEN = Path(__file__).parent / "data" / "golden_all_p10007_s3.json"
ARGV = ["all", "--prime", "10007", "--seed", "3", "--trials", "1", "--fuzz-count", "1000"]


def test_all_report_matches_golden(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*ARGV, "--quiet", "--out", str(out)]) == 0
    stripped = strip_timings(json.loads(out.read_text(encoding="utf-8")))
    text = json.dumps(stripped, indent=2, ensure_ascii=False) + "\n"
    assert text == GOLDEN.read_text(encoding="utf-8")
