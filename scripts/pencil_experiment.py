#!/usr/bin/env python3
"""Tabulate vertical-bitangent counts for many random pencils.

For each (prime, seed) the validated count should be 24; the raw and
squarefree eliminant degrees, the number of rejected factors and how many
of them were settled without validation (coprime to the condition resultant
Rc) vary with the pencil and are interesting to eyeball.  The time column is
the wall time of drawing and counting one pencil.  Usage:

    python scripts/pencil_experiment.py [prime] [n_seeds]
"""

import sys
import time
from pathlib import Path

# the checkout's own sources come first, ahead of any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from exactgeom import pencil24  # noqa: E402


def main() -> int:
    prime = int(sys.argv[1]) if len(sys.argv) > 1 else 10007
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    print(f"prime {prime}, seeds 1..{n_seeds}")
    print(
        f"{'seed':>4} {'count':>5} {'raw':>4} {'sqfree':>6} {'factors':>7} "
        f"{'rejected':>8} {'settled':>7} {'inf':>5} {'time':>8}"
    )
    deviations = 0
    for seed in range(1, n_seeds + 1):
        start = time.monotonic()
        f0, f1 = pencil24.random_pencil(prime, seed)
        report = pencil24.pencil_intersection_count(f0, f1, seed=seed)
        elapsed = time.monotonic() - start
        print(
            f"{seed:>4} {report.validated_count:>5} {report.raw_degree:>4} "
            f"{report.squarefree_degree:>6} {report.factor_count:>7} "
            f"{report.extraneous_count:>8} {report.settled_count:>7} "
            f"{str(report.infinity_validated):>5} {elapsed:>7.3f}s"
        )
        if report.validated_count != 24:
            deviations += 1
            print(f"  deviation at seed {seed}: {report.summary()}")
    print("all counts equal 24" if not deviations else f"{deviations} deviation(s) found")
    return 0 if deviations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
