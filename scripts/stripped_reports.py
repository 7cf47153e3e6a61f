#!/usr/bin/env python3
"""Write the stripped report of every command that two checkouts compare.

Each command runs as ``python3 -m exactgeom.cli <args> --quiet --out F``
from the ``src`` of the checkout this script sits in.  Its report, with the
wall times removed by ``report.strip_timings``, is written as JSON with
sorted keys to OUTDIR/<name>.json.  Two checkouts give the same output
exactly when ``diff -r`` of their two OUTDIRs prints nothing.  Usage:

    python3 scripts/stripped_reports.py OUTDIR
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ("verify-transversality", ["verify-transversality"]),
    ("verify-lines", ["verify-lines"]),
    ("verify-intersection", ["verify-intersection"]),
    ("verify-quartic-fuzz", ["verify-quartic-fuzz"]),
    ("verify-quartic-fuzz-2000", ["verify-quartic-fuzz", "--fuzz-count", "2000"]),
    # the one subcommand that takes every option; --trials caps two pencils to one
    (
        "all",
        ["all", "--prime", "10007", "--prime", "31991", "--seed", "3", "--trials", "1"]
        + ["--fuzz-count", "1000"],
    ),
] + [
    (f"verify-pencil24-p{p}-s{s}", ["verify-pencil24", "--prime", str(p), "--seed", str(s)])
    # the default primes are 3 mod 4; 65537 (1 mod 4) takes square roots by
    # Tonelli-Shanks, and 2^31 - 1 interpolates 31-bit values
    for p, s in [(p, s) for p in (10007, 31991) for s in (1, 2, 3)] + [(65537, 1), (2**31 - 1, 1)]
]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    from exactgeom.report import strip_timings

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            report = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, "-m", "exactgeom.cli", *argv, "--quiet", "--out", str(report)]
            code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
            print(f"{name}: exit {code}")
            status = status or code
            if not report.exists():
                status = status or 1
                continue
            stripped = strip_timings(json.loads(report.read_text()))
            text = json.dumps(stripped, indent=2, sort_keys=True) + "\n"
            (outdir / f"{name}.json").write_text(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
