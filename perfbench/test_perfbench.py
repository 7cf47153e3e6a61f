"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
from pathlib import Path

import facts
import run
import spans

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_nested_tree():
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]
    totals = spans.aggregate(tree)
    assert totals["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert totals["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert spans.self_time_under(tree, "c", "a") == 1.0
    assert spans.self_time_under(tree, "a", "b") == 0.0


def test_recursion_counts_total_once():
    tree = [["r", 0.0, 10.0, -1], ["r", 2.0, 6.0, 0], ["r", 3.0, 4.0, 1]]
    assert spans.aggregate(tree)["r"] == {"calls": 3, "total_s": 10.0, "self_s": 10.0}


def test_recorder_links_parents():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: [inner(), inner()], "outer")
    outer()
    assert recorder.spans == [
        ["outer", 0.0, 5.0, -1],
        ["inner", 1.0, 2.0, 0],
        ["inner", 3.0, 4.0, 0],
    ]


def _good_reports() -> dict[str, dict]:
    def report(checks):
        return {"checks": checks, "overall": "pass"}

    def check(name, witness):
        return {"check": name, "status": "pass", "witness": witness, "wall_time_s": 1.0}

    pencil = {"validated_count": 24, "raw_degree": 144}
    return {
        "pencil": report([check("pencil-count-p10007-s1", pencil)]),
        "eliminant": report(
            [
                check("family-eliminant", {"degree": 45, "order_at_zero": 2, "identically_zero": False}),
                check("section-seminvariant", {"polynomial": "-16*alpha^2 - 32*alpha"}),
                check(
                    "smoothness-certificate",
                    {
                        "member": {"status": "smooth"},
                        "control_nonreduced": {"status": "fail"},
                        "control_reducible": {"status": "fail"},
                    },
                ),
            ]
        ),
    }


def _names(document: dict) -> list[str]:
    return [entry["check"] for entry in document["checks"]]


def test_fact_gate_accepts_the_paper_facts():
    for document in _good_reports().values():
        assert facts.check_report(document, _names(document)) == []


def test_fact_gate_rejects_doctored_reports():
    good = _good_reports()
    pencil = copy.deepcopy(good["pencil"])
    pencil["checks"][0]["witness"]["validated_count"] = 23
    problems = facts.check_report(pencil, _names(pencil))
    assert any("validated_count" in p and "23" in p for p in problems)

    eliminant = copy.deepcopy(good["eliminant"])
    eliminant["checks"][0]["witness"]["degree"] = 44
    problems = facts.check_report(eliminant, _names(eliminant))
    assert any("deg R" in p and "44" in p for p in problems)

    missing = copy.deepcopy(good["eliminant"])
    del missing["checks"][1]
    assert facts.check_report(missing, _names(good["eliminant"]))


def test_names_match_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_inputs_are_deterministic_and_within_the_default_grid():
    sys.path.insert(0, str(ROOT / "src"))
    from exactgeom import cli

    for workload in run.WORKLOADS:
        first = run.workload_commands(workload, 1)
        assert all(run.workload_commands(workload, seed) == first for seed in range(50))
    (argv, _), = run.workload_commands("pencil", 1)
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    grid = [(p, s) for p in config.primes for s in config.seeds]
    default_grid = [(p, s) for p in cli.DEFAULT_PRIMES for s in cli.DEFAULT_SEEDS]
    assert grid == [(p, cli.DEFAULT_SEEDS[0]) for p in cli.DEFAULT_PRIMES]
    assert set(grid) <= set(default_grid)


def test_traced_cli_records_nested_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out, report = tmp_path / "spans.json", tmp_path / "report.json"
    tracer = str(ROOT / "perfbench" / "spans.py")
    argv = [tracer, str(out), "verify-intersection", "--quiet", "--out", str(report)]
    child = run.spawn(argv, env, timeout=60)
    assert child.exit_code == 0
    recorded = spans.load_spans(json.loads(out.read_text()))
    names = [s[0] for s in recorded]
    assert names == ["cli.check_intersection", "symprod.product_and_eval"]
    assert recorded[1][3] == 0
    assert facts.check_report(json.loads(report.read_text()), ["symmetric-product-240"]) == []


def test_rusage_is_per_child():
    env = dict(os.environ)
    big = run.spawn(["-c", "x = bytearray(100 * 2**20); x[::4096] = b'1' * len(x[::4096])"], env, 60)
    small = run.spawn(["-c", "pass"], env, 60)
    assert big.exit_code == small.exit_code == 0
    assert big.rss_mb > 100 > small.rss_mb
