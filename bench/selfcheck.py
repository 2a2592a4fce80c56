"""Known-answer pass over the shipped configs/.

Runs every applicable subcommand on every shipped config through
`cli.main` and compares the exit code with the one the library documents.
The pass runs in a child interpreter, so it leaves no trace in the
measuring process's peak memory.  It takes about 10 s, so its verdict is
stored under `.bench_out/`, keyed by a hash of the library sources, the
configs and this file; a run on unchanged sources reuses it.

    python3 bench/selfcheck.py    # prints the mismatches as a JSON list
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

EXPECTED = [
    ("forced_harmonic", "analyze", 10),
    ("forced_harmonic", "oracle", 10),
    ("forced_harmonic", "wong", 10),
    ("bursty_coupling", "analyze", 10),
    ("bursty_coupling", "oracle", 10),
    ("decaying_forcing", "analyze", 20),
    ("decaying_forcing", "oracle", 20),
    ("decaying_forcing", "wong", 30),
    ("harmonic_riccati", "riccati", 0),
    ("riccati_comparison", "compare", 0),
]


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    files = sorted((root / "src" / "oscillint").glob("*.py"))
    files += sorted((root / "configs").glob("*.json"))
    files.append(Path(__file__))
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_pass(root: Path) -> list:
    """Mismatches as readable lines; empty when every exit code matches."""
    sys.path.insert(0, str(root / "src"))
    from oscillint import cli
    mismatches = []
    for name, subcommand, expected in EXPECTED:
        path = root / "configs" / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([subcommand, "--config", str(path)])
        if code != expected:
            mismatches.append(f"{subcommand} {name}: exit {code}, "
                              f"expected {expected}")
    return mismatches


def known_answers(root: Path, out_dir: Path) -> list:
    """Run the pass, or reuse its stored result for identical sources."""
    record = out_dir / f"selfcheck-{_digest(root)}.json"
    if record.is_file():
        return json.loads(record.read_text(encoding="utf-8"))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        return [f"known-answer pass crashed: {done.stderr.strip()[-500:]}"]
    mismatches = json.loads(done.stdout)
    out_dir.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(mismatches), encoding="utf-8")
    return mismatches


if __name__ == "__main__":
    print(json.dumps(run_pass(ROOT)))
