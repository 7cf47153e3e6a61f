"""The command-line interface: subcommands, report format, exit codes."""

import argparse
import json
import subprocess
import sys

import pytest

from exactgeom import cli, lines, pencil24, transversality, zpoly
from exactgeom.errors import VerificationError
from exactgeom.report import PASS, CheckResult, strip_timings


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
        # 2^31 + 11 is prime but too large for PrimeField; 3215031751 is
        # composite, and the first number the Miller-Rabin bases misjudge
        ["verify-pencil24", "--prime", "2147483659"],
        ["verify-pencil24", "--prime", "3215031751"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(bad)
        assert exc.value.code == 2


def test_output_path_in_a_missing_directory_exits_2_before_any_check(monkeypatch, tmp_path):
    def forbidden(config):
        raise AssertionError("a check ran before the output path was rejected")

    for command in ("verify-intersection", "verify-lines"):
        monkeypatch.setitem(cli.CHECK_RUNNERS, command, (forbidden,))
    missing = tmp_path / "missing"
    for argv in (
        ["verify-intersection", "--out", str(missing / "r.json")],
        ["verify-lines", "--dot", str(missing / "lines.dot")],
        # an existing directory cannot be written as a file
        ["verify-intersection", "--out", str(tmp_path)],
        ["verify-lines", "--dot", str(tmp_path), "--quiet"],
        # an empty path names no file at all
        ["verify-intersection", "--out", ""],
        ["verify-lines", "--dot", "", "--quiet"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2


def _subparsers():
    actions = cli.build_parser()._actions
    (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_subcommand_takes_the_options_its_checks_read():
    common = {"-h", "--help", "--out", "--quiet"}
    pencil = {"--prime", "--seed", "--trials"}
    expected = {
        "verify-intersection": common,
        "verify-lines": common | {"--dot"},
        "verify-transversality": common,
        "verify-pencil24": common | pencil,
        "verify-quartic-fuzz": common | {"--fuzz-count"},
        "all": common | pencil | {"--fuzz-count", "--dot"},
    }
    taken = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in _subparsers().items()
    }
    assert taken == expected


def test_an_option_the_subcommand_does_not_read_exits_2_before_any_check(monkeypatch):
    def forbidden(config):
        raise AssertionError("a check ran with an option it does not read")

    for command in cli.CHECK_RUNNERS:
        monkeypatch.setitem(cli.CHECK_RUNNERS, command, (forbidden,))
    for argv in (
        ["verify-lines", "--prime", "10007"],
        ["verify-intersection", "--trials", "1"],
        ["verify-transversality", "--fuzz-count", "5"],
        ["verify-quartic-fuzz", "--seed", "1"],
        ["verify-pencil24", "--fuzz-count", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "command", ["verify-intersection", "verify-lines", "verify-transversality"]
)
def test_a_subcommand_without_settings_reports_the_default_config(monkeypatch, tmp_path, command):
    def stub(config):
        return [CheckResult("stub", "always passes", PASS, {})]

    monkeypatch.setitem(cli.CHECK_RUNNERS, command, (stub,))
    out = tmp_path / "report.json"
    assert run_main([command, "--quiet", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {
        "command": command,
        "primes": [10007, 31991],
        "seeds": [1, 2, 3],
        "trials": None,
        "fuzz_count": 10000,
    }


def test_largest_admissible_prime_is_accepted():
    assert cli._validated_prime("2147483647") == 2**31 - 1


def test_check_failure_exits_1(monkeypatch):
    def broken(config):
        from exactgeom.report import FAIL, CheckResult

        return [CheckResult("stub", "always fails", FAIL, {})]

    monkeypatch.setitem(cli.CHECK_RUNNERS, "verify-intersection", (broken,))
    assert run_main(["verify-intersection", "--quiet"]) == 1


@pytest.mark.parametrize(
    "command, module, name",
    [
        ("verify-lines", lines, "verification_summary"),
        ("verify-pencil24", pencil24, "pencil_intersection_count"),
    ],
)
def test_verification_error_fails_the_check(monkeypatch, tmp_path, command, module, name):
    def failing(*args, **kwargs):
        raise VerificationError("square witness failed to reproduce the fiber quartic")

    monkeypatch.setattr(module, name, failing)
    out = tmp_path / "report.json"
    argv = [command, "--quiet", "--out", str(out)]
    if command == "verify-pencil24":
        argv += ["--prime", "10007", "--seed", "3"]
    assert run_main(argv) == 1
    document = json.loads(out.read_text())
    assert document["overall"] == "fail"
    (entry,) = document["checks"]
    assert entry["status"] == "fail"
    assert entry["witness"] == {"error": "square witness failed to reproduce the fiber quartic"}


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


def test_repeated_prime_and_seed_run_one_pencil(tmp_path):
    out = tmp_path / "pencil.json"
    argv = ["verify-pencil24", "--quiet", "--prime", "10007", "--prime", "10007"]
    argv += ["--seed", "1", "--seed", "1", "--out", str(out)]
    assert run_main(argv) == 0
    document = json.loads(out.read_text())
    (entry,) = document["checks"]
    assert entry["check"] == "pencil-count-p10007-s1"
    assert document["config"]["primes"] == [10007]
    assert document["config"]["seeds"] == [1]
    # duplicates go in order, before --trials caps the combinations
    args = cli.build_parser().parse_args(
        ["verify-pencil24", "--prime", "31991", "--prime", "10007", "--prime", "31991"]
        + ["--seed", "2", "--seed", "2", "--seed", "1", "--trials", "3"]
    )
    config = cli.config_from_args(args)
    assert (config.primes, config.seeds, config.trials) == ((31991, 10007), (2, 1), 3)


def _interpolated_from_43_points(original):
    """A mutant sampled_resultant that interpolates from t = 0..42 only,
    whatever the degree bound; each value is the original resultant at one
    point, as constant sequences."""

    def sampled(fs, gs, p=None, first_subresultant=False):
        values = []
        for t in range(43):
            point = ([[zpoly.int_eval(c, t)] for c in cs] for cs in (fs, gs))
            values.append((original(*point, p) or [0])[0])
        return zpoly.interpolate(values, p)

    return sampled


def _clear_eliminant_caches():
    transversality.resultant_R.cache_clear()
    pencil24.raw_resultant.cache_clear()


def test_family_eliminant_fails_when_r_is_interpolated_from_too_few_points(monkeypatch):
    # R(alpha) has degree 45; from 43 points it comes out wrong, but it
    # still vanishes at 0 and agrees at alpha = 5, a node of its grid; the
    # spot check at -7, a node of no grid, catches it
    _clear_eliminant_caches()
    mutant = _interpolated_from_43_points(zpoly.sampled_resultant)
    monkeypatch.setattr(zpoly, "sampled_resultant", mutant)
    try:
        results = cli.check_transversality(cli.RunConfig(command="verify-transversality"))
    finally:
        monkeypatch.undo()
        _clear_eliminant_caches()
    entry = next(result for result in results if result.check == "family-eliminant")
    witness = entry.witness
    assert witness["degree"] < 45 and witness["order_at_zero"] >= 1
    assert witness["spot_check_alpha_5"] and not witness["spot_check_alpha_minus_7"]
    assert entry.status != PASS
