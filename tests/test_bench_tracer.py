"""The benchmark tracer (bench/tracer.py) against the library it wraps.

A traced run must report exactly what an untraced one reports, the
tracer must see the oracle and the step loop's angle event solves, and
count no step-loop solve where none is made, and uninstalling it must put
every wrapped function back. A traced function that is renamed or whose signature changes fails
here, not first in a benchmark run.
"""

import sys
from pathlib import Path

from oscillint import cli, numerics, oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracer  # noqa: E402


def test_traced_analyze_reports_as_untraced():
    # neither the oracle nor the window descents solve an ODE by steps:
    # forced_harmonic makes no step-loop solve at all, and decaying_forcing's
    # horizon test makes angle event solves on the float loop
    original = numerics.integrate_ode
    original_oracle = oracle.simulate_ensemble
    for name in ("forced_harmonic", "decaying_forcing"):
        config = cli.load_config(ROOT / "configs" / f"{name}.json")
        untraced = cli.run("analyze", config).render_json()
        spans = tracer.Tracer()
        spans.install()
        try:
            assert numerics.integrate_ode is not original
            traced = cli.run("analyze", config).render_json()
        finally:
            spans.uninstall()
        assert traced == untraced, name
        assert spans.counts["oracle.simulate_ensemble.calls"] > 0, name
        if name == "forced_harmonic":
            assert spans.counts["criteria.angle_solves"] == 0, name
            assert spans.counts["numerics.ode_plain.calls"] == 0, name
        else:
            assert spans.counts["criteria.angle_solves"] > 0, name
            assert spans.counts["numerics.ode_events.calls"] > 0, name
        assert numerics.integrate_ode is original
        assert oracle.simulate_ensemble is original_oracle
