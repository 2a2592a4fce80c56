"""Every shipped config under every subcommand, against recorded reports.

golden_reports.json holds, for each of the 5 shipped configs under each
of the 7 subcommands, what `oscillint <subcommand> --config <file> --out
report.txt` gave: its exit code, its stderr line and the JSON report it
wrote (null when it stopped with an error). A run must give the same
exit code and stderr line, and a report whose non-float values and list
lengths are the same and whose floats agree within 1e-9 relative or
1e-13 absolute: some recorded floats are rounding of an exact 0 or of
-SIGN_SLACK, whose last digits move with the order of float operations.

Run this file as a script to record golden_reports.json from the current
code:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from oscillint.cli import SUBCOMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
CONFIGS = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))
REL_TOL = 1e-9
ABS_TOL = 1e-13


def record_run(config: str, subcommand: str) -> dict:
    """Exit code, stderr and JSON report of one command-line run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.txt"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([subcommand, "--config", str(ROOT / "configs" / f"{config}.json"),
                         "--out", str(out)])
        json_path = out.with_suffix(".json")
        report = json.loads(json_path.read_text()) if json_path.exists() else None
    return {"exit": code, "stderr": stderr.getvalue(), "report": report}


def assert_matches(got, want, where: str = "report") -> None:
    """Equal apart from floats, which agree within REL_TOL relative or
    ABS_TOL absolute."""
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= max(REL_TOL * max(abs(got), abs(want)), ABS_TOL), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_run_matches_golden_report(golden, config, subcommand):
    want = golden[f"{config} {subcommand}"]
    got = record_run(config, subcommand)
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert_matches(got["report"], want["report"])


def test_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(f"{c} {s}" for c in CONFIGS for s in SUBCOMMANDS)


if __name__ == "__main__":
    runs = {f"{c} {s}": record_run(c, s) for c in CONFIGS for s in SUBCOMMANDS}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(runs)} runs in {GOLDEN}", file=sys.stderr)
