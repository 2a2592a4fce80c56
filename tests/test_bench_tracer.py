"""The benchmark tracer (bench/tracer.py) against the library it wraps.

A traced run must report exactly what an untraced one reports, the
tracer must see the oracle and the step loop's solves, and count no
step-loop solve where none is made, and uninstalling it must put every
wrapped function back. A traced function that is renamed or whose
signature changes fails here, not first in a benchmark run.
"""

import sys
from pathlib import Path

from oscillint import cli, numerics, oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracer  # noqa: E402


def traced_run(subcommand: str, name: str):
    """The report of one run untraced and traced, and the tracer's counts."""
    config = cli.load_config(ROOT / "configs" / f"{name}.json")
    untraced = cli.run(subcommand, config).render_json()
    original = numerics.integrate_ode
    original_oracle = oracle.simulate_ensemble
    spans = tracer.Tracer()
    spans.install()
    try:
        assert numerics.integrate_ode is not original
        traced = cli.run(subcommand, config).render_json()
    finally:
        spans.uninstall()
    assert numerics.integrate_ode is original
    assert oracle.simulate_ensemble is original_oracle
    return untraced, traced, spans.counts


def test_traced_analyze_reports_as_untraced():
    # the oracle, the window descents and the horizon crossings all read the
    # linear system's Chebyshev series: analyze makes no step-loop solve
    for name in ("forced_harmonic", "decaying_forcing"):
        untraced, traced, counts = traced_run("analyze", name)
        assert traced == untraced, name
        assert counts["oracle.simulate_ensemble.calls"] > 0, name
        assert counts["criteria.angle_solves"] == 0, name
        assert counts["numerics.ode_events.calls"] == 0, name
        assert counts["numerics.ode_plain.calls"] == 0, name
    # the Riccati solve is stepped, so the tracer must see the step loop
    untraced, traced, counts = traced_run("riccati", "harmonic_riccati")
    assert traced == untraced
    assert counts["numerics.ode_plain.calls"] > 0
