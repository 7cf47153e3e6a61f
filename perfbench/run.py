"""Benchmark for the exactgeom CLI: fresh-process timings and a layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pencil --seed 1 --seconds 20 --trace 0

Each iteration spawns ``python3 -m exactgeom.cli`` as a user would, one
process at a time (a closed loop with one client), so the functools caches
are paid on every iteration.  Iterations repeat until ``--seconds`` have
been measured.  Every report goes through the fact gate (``facts.py``) and
is compared, with wall times stripped, to the first report this checkout
produced for the same source tree.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one traced
pass per command (``spans.py``, in process) and prints the per-layer
metrics instead.  The last line of stdout is one JSON object; a summary
table goes to stderr.  The exit code is 0 only when every fact held.
See NOTES.md for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import facts
import spans

# Each workload is a list of (CLI argv, check ids the report must contain).
# The inputs are fixed: the pencil cost depends ten-fold on which pencil is
# drawn (NOTES.md), so a seed-drawn pencil would swamp any regression bound.
WORKLOADS: dict[str, list[tuple[list[str], list[str]]]] = {
    "pencil": [
        (["verify-pencil24", "--seed", "1"], ["pencil-count-p10007-s1", "pencil-count-p31991-s1"]),
    ],
    "eliminant": [
        (
            ["verify-transversality"],
            ["family-eliminant", "section-seminvariant", "smoothness-certificate"],
        ),
    ],
    "battery": [
        (["verify-quartic-fuzz"], ["quartic-square-fuzz"]),
        (["verify-lines"], ["line-configuration"]),
        (["verify-intersection"], ["symmetric-product-240"]),
    ],
}

END_TO_END_UNITS = {
    "verdict_s": "s",
    "cpu_s": "s",
    "slowest_check_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span names reported as <name>.calls, <name>.total_s and <name>.self_s.
TIMED_SPANS = (
    "domains.sqrt_ext",
    "domains.sqrt_prime",
    "binform.sylvester_resultant",
    "binform.det_constant",
    "multipoly.substitute",
    "pencil24.random_pencil",
    "pencil24.raw_resultant",
    "pencil24.validate_member",
    "zpoly.zp_squarefree_part",
    "zpoly.zp_factor_squarefree",
    "univar.gcd",
    "univar.ff_factor_squarefree",
    "quartic.closure_square_witness",
    "transversality.resultant_R",
    "transversality.smoothness_certificate",
    "quartic.fuzz_square_criterion",
    "lines.enumerate_closure",
    "symprod.product_and_eval",
)
COUNTED_SPANS = ("binform.det_polynomial_matrix", "quartic.disc_delta")
CHECK_SPANS = tuple(f"cli.{attr}" for module, attr in spans.LAYER_FUNCTIONS if module == "cli")

PER_LAYER_UNITS: dict[str, str] = {}
for _name in TIMED_SPANS:
    PER_LAYER_UNITS.update({f"{_name}.calls": "count", f"{_name}.total_s": "s", f"{_name}.self_s": "s"})
PER_LAYER_UNITS.update({f"{_name}.calls": "count" for _name in COUNTED_SPANS})
PER_LAYER_UNITS.update({f"{_name}.total_s": "s" for _name in CHECK_SPANS})
PER_LAYER_UNITS.update(
    {
        "domains.sqrt_ext.validate_member_self_s": "s",
        "domains.extensions_built": "count",
        "domains.max_ext_degree": "degree",
        "pencil24.raw_degree": "degree",
        "pencil24.squarefree_degree": "degree",
        "pencil24.validated_share": "ratio",
        "pencil24.extraneous_factors": "count",
        "pencil24.pencil_draws": "count",
        "trace.overhead": "ratio",
        "trace.coverage": "ratio",
    }
)

SETUP_REPEATS = 15
RUN_DEADLINE_S = 170.0


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    start: float  # time.monotonic() at spawn


def spawn(argv: list[str], env: dict, timeout: float) -> Child:
    """Run ``python3 argv`` to completion; resources are this child's alone.

    ``os.wait4`` gives the child's own rusage (``RUSAGE_CHILDREN`` would
    carry the peak RSS of earlier children over).  The child's stdout goes
    to stderr so that the last stdout line stays the result.
    """
    start = time.monotonic()
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, *argv],
        env,
        file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)],
    )
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    return Child(
        exit_code=os.waitstatus_to_exitcode(status),
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        start=start,
    )


def workload_commands(name: str, seed: int) -> list[tuple[list[str], list[str]]]:
    """The CLI invocations of one workload run.  The same for every seed."""
    del seed  # see the comment on WORKLOADS
    return WORKLOADS[name]


@dataclass
class Bench:
    workload: str
    commands: list[tuple[list[str], list[str]]]
    env: dict
    work: str
    reference_path: str
    deadline: float
    problems: list[str] = field(default_factory=list)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def gate(self, label: str, children: list[Child], report_paths: list[str]) -> bool:
        """Fact gate plus within-commit report identity for one iteration."""
        from exactgeom.report import strip_timings  # src/ joins sys.path in main()

        before = len(self.problems)
        for (argv, _), child in zip(self.commands, children):
            if child.exit_code != 0:
                self.problems.append(f"{label} {argv[0]}: exit code {child.exit_code}")
        stripped = []
        for (argv, checks), path in zip(self.commands, report_paths):
            try:
                with open(path, encoding="utf-8") as handle:
                    document = json.load(handle)
            except (OSError, ValueError) as exc:
                self.problems.append(f"{label} {argv[0]}: no report ({exc})")
                continue
            self.problems.extend(f"{label} {argv[0]}: {p}" for p in facts.check_report(document, checks))
            stripped.append(strip_timings(document))
        if len(self.problems) == before:
            if os.path.exists(self.reference_path):
                with open(self.reference_path, encoding="utf-8") as handle:
                    if json.load(handle) != stripped:
                        self.problems.append(f"{label}: stripped report differs from the first run")
            else:
                with open(self.reference_path, "w", encoding="utf-8") as handle:
                    json.dump(stripped, handle)
        return len(self.problems) == before

    def run_commands(self, label: str, traced: bool) -> tuple[list[Child], list[str], bool]:
        """Spawn every command of the workload once, one after another.

        A traced command runs under ``spans.py`` and leaves its spans in
        ``<label>-spans-<i>.json`` next to its report.
        """
        children, paths = [], []
        for i, (argv, _) in enumerate(self.commands):
            out = os.path.join(self.work, f"{label}-{i}.json")
            if traced:
                runner = [spans.__file__, os.path.join(self.work, f"{label}-spans-{i}.json")]
            else:
                runner = ["-m", "exactgeom.cli"]
            paths.append(out)
            children.append(spawn([*runner, *argv, "--quiet", "--out", out], self.env, self.remaining()))
        return children, paths, self.gate(label, children, paths)


def slowest_check(paths: list[str]) -> float:
    walls = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            walls.extend(entry["wall_time_s"] for entry in json.load(handle)["checks"])
    return max(walls)


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    package = Path(src, "exactgeom")
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def layer_metrics(bench: Bench, untraced_verdict: float) -> tuple[dict, bool]:
    """One traced pass of every command; per-layer metrics from its spans."""
    children, paths, ok = bench.run_commands("traced", traced=True)
    if not ok:
        return {}, False
    span_docs = []
    for i in range(len(children)):
        with open(os.path.join(bench.work, f"traced-spans-{i}.json"), encoding="utf-8") as handle:
            span_docs.append(json.load(handle))

    all_spans: list[list] = []
    traced_verdict = main_time = 0.0
    for child, doc in zip(children, span_docs):
        all_spans.extend(_offset(spans.load_spans(doc), len(all_spans)))
        traced_verdict += doc["main_end"] - child.start
        main_time += doc["main_end"] - doc["import_end"]
    totals = spans.aggregate(all_spans)

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for name in TIMED_SPANS:
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{key}"] = span(name, key)
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = span(name, "calls")
    for name in CHECK_SPANS:
        metrics[f"{name}.total_s"] = span(name, "total_s")
    metrics["domains.sqrt_ext.validate_member_self_s"] = spans.self_time_under(
        all_spans, "domains.sqrt_ext", "pencil24.validate_member"
    )
    counters = [doc["counters"] for doc in span_docs]
    metrics["domains.extensions_built"] = sum(c.get("domains.extensions_built", 0) for c in counters)
    metrics["domains.max_ext_degree"] = max(c.get("domains.max_ext_degree", 0) for c in counters)
    metrics.update(_pencil_counts(paths))
    metrics["pencil24.pencil_draws"] = span("pencil24.random_curve", "calls") / 2
    metrics["trace.overhead"] = traced_verdict / untraced_verdict
    metrics["trace.coverage"] = sum(span(n, "total_s") for n in CHECK_SPANS) / main_time
    _print_hot_spots(totals)
    return metrics, ok


def _offset(span_list: list[list], shift: int) -> list[list]:
    return [[n, s, e, p + shift if p >= 0 else -1] for n, s, e, p in span_list]


def _pencil_counts(report_paths: list[str]) -> dict[str, float]:
    """Deterministic counters from the pencil checks of the reports (0 elsewhere)."""
    pencils = []
    for path in report_paths:
        with open(path, encoding="utf-8") as handle:
            pencils.extend(
                entry["witness"]
                for entry in json.load(handle)["checks"]
                if entry["check"].startswith("pencil-count-")
            )
    squarefree = sum(w["squarefree_degree"] for w in pencils)
    return {
        "pencil24.raw_degree": sum(w["raw_degree"] for w in pencils),
        "pencil24.squarefree_degree": squarefree,
        "pencil24.validated_share": (
            sum(w["validated_count"] for w in pencils) / squarefree if squarefree else 0.0
        ),
        "pencil24.extraneous_factors": sum(w["extraneous_count"] for w in pencils),
    }


def _print_hot_spots(totals: dict) -> None:
    print("largest self times in the traced pass:", file=sys.stderr)
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_s"])[:8]
    for name, entry in ranked:
        print(
            f"  {name:<40} self {entry['self_s']:9.3f} s  calls {entry['calls']:>8}",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "exactgeom", "cli.py")):
        print(f"no exactgeom sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    state = os.path.join(root, ".perfbench_work")
    os.makedirs(state, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as work:
        bench = Bench(
            workload=args.workload,
            commands=workload_commands(args.workload, args.seed),
            env=env,
            work=work,
            reference_path=os.path.join(
                state, f"reference-{args.workload}-{source_digest(src)}.json"
            ),
            deadline=time.monotonic() + RUN_DEADLINE_S,
        )
        return measure(bench, args.seconds, bool(args.trace))


def measure(bench: Bench, seconds: float, trace: bool) -> int:
    setup = [spawn(["-c", "import exactgeom.cli"], bench.env, bench.remaining()) for _ in range(SETUP_REPEATS)]
    if any(c.exit_code for c in setup):
        bench.problems.append("import exactgeom.cli failed")
    attempted = failed = 0
    iterations = []
    started, last = time.monotonic(), 0.0
    # stop early rather than let a slow commit overrun the run deadline
    while attempted == 0 or (time.monotonic() - started < seconds and bench.remaining() > 3 * last):
        children, paths, ok = bench.run_commands(f"iteration-{attempted}", traced=False)
        attempted += 1
        if not ok:
            failed += 1
            break
        last = sum(c.wall_s for c in children)
        iterations.append(
            {
                "verdict_s": last,
                "cpu_s": sum(c.cpu_s for c in children),
                "slowest_check_s": slowest_check(paths),
                "peak_rss_mb": max(c.rss_mb for c in children),
            }
        )

    metrics: dict[str, float] = {}
    if iterations:
        for key in ("verdict_s", "cpu_s", "slowest_check_s", "peak_rss_mb"):
            metrics[key] = statistics.median([it[key] for it in iterations])
        metrics["setup_s"] = statistics.median([c.wall_s for c in setup])
    units = END_TO_END_UNITS
    if trace and iterations:
        attempted += 1
        metrics, ok = layer_metrics(bench, metrics["verdict_s"])
        failed += not ok
        units = PER_LAYER_UNITS

    correct = not bench.problems and set(metrics) == set(units)
    for problem in bench.problems:
        print(f"FACT GATE: {problem}", file=sys.stderr)
    print(
        f"workload {bench.workload}: {attempted} attempted, {failed} failed "
        f"(failed_share {failed / attempted:.3f})",
        file=sys.stderr,
    )
    for name, value in metrics.items():
        print(f"  {name:<48} {value:14.6f} {units[name]}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
