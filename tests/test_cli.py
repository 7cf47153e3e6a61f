"""The command-line interface: subcommands, report format, exit codes."""

import json
import subprocess
import sys

import pytest

from exactgeom import cli
from exactgeom.report import strip_timings


def run_main(argv):
    return cli.main(argv)


def test_verify_intersection(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_main(["verify-intersection", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "symmetric-product-240" in captured and "pass" in captured
    document = json.loads(out.read_text())
    assert document["overall"] == "pass"
    (entry,) = document["checks"]
    assert entry["check"] == "symmetric-product-240"
    assert entry["witness"]["value"] == "240"
    assert entry["witness"]["expansion"].count("theta") >= 4


def test_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_main(["verify-intersection", "--quiet", "--out", str(out1)]) == 0
    assert run_main(["verify-intersection", "--quiet", "--out", str(out2)]) == 0
    d1 = strip_timings(json.loads(out1.read_text()))
    d2 = strip_timings(json.loads(out2.read_text()))
    assert d1 == d2


def test_verify_lines_with_dot(tmp_path):
    out = tmp_path / "lines.json"
    dot = tmp_path / "lines.dot"
    assert run_main(["verify-lines", "--quiet", "--out", str(out), "--dot", str(dot)]) == 0
    assert "a1 -- c12;" in dot.read_text()
    document = json.loads(out.read_text())
    assert document["checks"][0]["witness"]["weyl_order"] == 51840


def test_verify_quartic_fuzz_small():
    assert run_main(["verify-quartic-fuzz", "--quiet", "--fuzz-count", "200"]) == 0


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_main(["verify-pencil24", "--prime", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_main(["verify-pencil24", "--seed", "-3"])
    assert exc.value.code == 2
    for bad in (
        ["verify-pencil24", "--trials", "0", "--quiet"],
        ["verify-pencil24", "--trials", "-1"],
        ["verify-pencil24", "--trials", "two"],
        ["verify-quartic-fuzz", "--fuzz-count", "-5"],
        ["verify-quartic-fuzz", "--fuzz-count", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(bad)
        assert exc.value.code == 2


def test_check_failure_exits_1(monkeypatch):
    def broken(config):
        from exactgeom.report import FAIL, CheckResult

        return [CheckResult("stub", "always fails", FAIL, {})]

    monkeypatch.setitem(cli.CHECK_RUNNERS, "verify-intersection", (broken,))
    assert run_main(["verify-intersection", "--quiet"]) == 1


def test_internal_error_exits_3(monkeypatch):
    def exploding(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.CHECK_RUNNERS, "verify-intersection", (exploding,))
    assert run_main(["verify-intersection", "--quiet"]) == 3


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "exactgeom.cli", "verify-intersection", "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_pencil_subcommand_single_trial(tmp_path):
    out = tmp_path / "pencil.json"
    code = run_main(
        [
            "verify-pencil24",
            "--quiet",
            "--prime",
            "10007",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    document = json.loads(out.read_text())
    (entry,) = document["checks"]
    assert entry["witness"]["validated_count"] == 24
    assert entry["status"] == "pass"
