"""Source conventions that no runtime test would notice."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "exactgeom"


def test_source_lines_fit_in_100_columns():
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long_lines, long_lines
