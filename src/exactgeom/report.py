"""Machine-readable verification reports.

A report is a JSON document with a fixed key order: toolkit metadata, the
effective configuration, one entry per executed check (id, claim, status,
witness payload, wall time), and the overall verdict.  Wall times are the
only nondeterministic fields; golden comparisons strip them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__

PASS = "pass"
FAIL = "fail"


@dataclass
class CheckResult:
    check: str
    claim: str
    status: str
    witness: dict
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "claim": self.claim,
            "status": self.status,
            "witness": self.witness,
            "wall_time_s": round(self.wall_time_s, 3),
        }


@dataclass
class Report:
    config: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return PASS if all(c.status == PASS for c in self.checks) else FAIL

    def to_dict(self) -> dict:
        return {
            "toolkit": "exactgeom",
            "version": __version__,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"


def strip_timings(document: dict) -> dict:
    """A copy of a report dict with wall-time fields removed (for golden diffs)."""
    out = dict(document)
    out["checks"] = [
        {k: v for k, v in entry.items() if k != "wall_time_s"} for entry in document["checks"]
    ]
    return out
