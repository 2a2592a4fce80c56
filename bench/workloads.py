"""Seeded problem families with known answers, and the three workloads.

Every family draws its parameters from a numpy Generator seeded by the
workload seed and the block index, so the same seed always yields the same
problems.  The library only ever sees the generated config dicts (for
`cli.config_from_dict` + `cli.run`) or the generated expression strings
(for the README quick-start calls).  Each problem carries its expected
answer next to it:

* ``forced``   a=1, b=0, c=k^2, d=A sin(w t + ph), off resonance.
  Expected class: oscillatory.  Closed form of every solution:
  phi = C1 cos kt + C2 sin kt + A/(k^2 - w^2) sin(w t + ph).
* ``decaying`` a=1, b=0, c=-k^2, d=-A exp(-mu t), escape_magnitude 1e15.
  Expected class: non_oscillatory (a sum of three exponentials has at most
  two zeros).  Closed form: phi = C1 e^{kt} + C2 e^{-kt} + P e^{-mu t},
  P = -A/(mu^2 - k^2).
* ``bursty``   systems shaped like configs/bursty_coupling.json with a
  lambda grid holding nonzero values.  Expected class: oscillatory (the
  forcing sin t keeps every solution crossing zero; there is no closed form,
  the oracle referees it).
* ``riccati``  unforced harmonic systems q=1, r=-k^2 with start value y0.
  The quadratic solution is y = k tan(atan(y0/k) - k t); it blows down at
  (pi/2 + atan(y0/k))/k.  Horizons lie on either side of that time.
* ``compare``  scalar pairs with f1 = f2 > 0, g1 = g2 and h2 >= h1, so the
  certificate bracket is nonnegative and the comparison principle holds:
  expected certificate holds and validation passes.

A block holds a fixed sequence of families, and each family's cost-driving
parameters are stratified across consecutive blocks, so runs on different
seeds see nearly the same mix of costs and of expected answers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oscillint
from oscillint import cli

TWO_PI = 2.0 * math.pi

# A member's recorded last zero must be a zero of the closed form: the
# closed form's value there, divided by its slope, is the time error.
ZERO_TIME_TOL = 1e-5
# Riccati escape time against (pi/2 + atan(y0/k))/k, as acceptance
# criterion 3 of the test suite uses.
ESCAPE_TIME_TOL = 1e-4
# Riccati end value, when there is no blow-up, against the closed form.
FINAL_VALUE_RTOL = 1e-6

BURSTY_LAMBDAS = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]

# The order of families inside one block.  Family costs differ by up to
# 100x, so the shares are set to put the median and the 75th percentile of
# per-problem latency inside a family's cluster rather than on the gap
# between two clusters, where run-to-run noise would move them most.
BLOCKS = {
    "referee": ("forced_hi", "decaying", "bursty", "decaying", "forced_lo",
                "forced_lo"),
    "certify": ("forced_hi", "decaying", "bursty", "decaying", "forced_lo",
                "forced_lo"),
    "riccati_compare": ("riccati_escape", "compare", "riccati_bounded",
                        "compare"),
}


@dataclass
class Problem:
    pid: int
    family: str
    expected: str
    params: dict
    config: dict
    texts: dict = field(default_factory=dict)


def _lit(x: float) -> str:
    return repr(float(x))


STRATA = 8


def _strat(rng, slot: int, lo: float, hi: float) -> float:
    """A draw from [lo, hi) confined to stratum `slot` mod STRATA.

    Families pass the block index (or a permutation of it) as `slot`, so
    every STRATA consecutive blocks cover each stratum of a cost-driving
    parameter once, whatever the seed.
    """
    u = (slot % STRATA + rng.uniform()) / STRATA
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# families


def _forced(rng, j: int, lo_ratio: bool) -> dict:
    w = _strat(rng, j + 2, 0.8, 1.2)
    ratio = (_strat(rng, j, 0.6, 0.8) if lo_ratio
             else _strat(rng, j, 1.35, 1.75))
    k = ratio * w
    amp = rng.uniform(0.5, 1.5)
    ph = _strat(rng, 3 * j + 1, 0.0, TWO_PI)
    horizon = 2.5 * TWO_PI / w
    texts = {"a": "1", "b": "0", "c": _lit(k * k),
             "d": f"{_lit(amp)} * sin({_lit(w)} * t + {_lit(ph)})"}
    return {"expected": oscillint.OSCILLATORY,
            "params": {"k": k, "w": w, "amp": amp, "ph": ph},
            "texts": texts,
            "config": {"equation": texts, "horizon": horizon}}


def _decaying(rng, j: int) -> dict:
    k = _strat(rng, j, 0.6, 1.4)
    mu = rng.uniform(0.5, 2.0)
    while abs(mu - k) < 0.2:
        mu = rng.uniform(0.5, 2.0)
    amp = rng.uniform(0.5, 2.0)
    horizon = _strat(rng, 3 * j + 1, 10.0, 16.0)
    texts = {"a": "1", "b": "0", "c": "-" + _lit(k * k),
             "d": f"-{_lit(amp)} * exp(-{_lit(mu)} * t)"}
    return {"expected": oscillint.NON_OSCILLATORY,
            "params": {"k": k, "mu": mu, "amp": amp},
            "texts": texts,
            "config": {"equation": texts, "horizon": horizon,
                       "tolerances": {"escape_magnitude": 1e15}}}


def _bursty(rng, j: int) -> dict:
    height = _strat(rng, j, 40.0, 160.0)
    power = int(_strat(rng, 3 * j + 1, 8.0, 17.0))
    a = rng.uniform(0.3, 0.7)
    b = rng.uniform(0.4, 0.8)
    texts = {"p": "0",
             "q": f"0.05 + {_lit(height)} * ((1 - cos(2 * t)) / 2)^{power}",
             "r": "-1", "s": "0",
             "f": f"{_lit(a)} * cos(t) + {_lit(b)} * exp(-t)",
             "g": "sin(t)"}
    return {"expected": oscillint.OSCILLATORY,
            "params": {"height": height, "power": power, "a": a, "b": b},
            "texts": texts,
            "config": {"system": texts, "horizon": 3.0 * math.pi,
                       "lambda": {"values": list(BURSTY_LAMBDAS)}}}


def riccati_escape_time(k: float, y0: float) -> float:
    return (0.5 * math.pi + math.atan(y0 / k)) / k


def _riccati(rng, j: int, escapes: bool) -> dict:
    k = _strat(rng, j, 0.5, 2.0)
    y0 = _strat(rng, 3 * j + 1, -2.0, 2.0)
    blowup = riccati_escape_time(k, y0)
    share = (_strat(rng, j + 2, 1.1, 1.6) if escapes
             else _strat(rng, j + 2, 0.5, 0.9))
    return {"expected": "blow_up" if escapes else "bounded",
            "params": {"k": k, "y0": y0, "blowup": blowup},
            "config": {"system": {"q": "1", "r": "-" + _lit(k * k)},
                       "horizon": share * blowup,
                       "riccati": {"y0": y0}}}


def _compare(rng, j: int) -> dict:
    c1, c2 = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
    c3, c4, c5 = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5), rng.uniform(0.1, 1.0)
    w1, w2, w3, w4 = rng.uniform(1.0, 5.0, 4)
    length = _strat(rng, j, 0.5, 1.5)
    f = f"{_lit(c1)} * (1 + 0.5 * sin({_lit(w1)} * t))"
    g = f"{_lit(c2)} * cos({_lit(w2)} * t)"
    h1 = f"{_lit(c3)} + {_lit(c4)} * sin({_lit(w3)} * t)"
    h2 = f"{h1} + {_lit(c5)} * (1 + cos({_lit(w4)} * t))"
    return {"expected": "certified",
            "params": {"length": length},
            "config": {"system": {"q": "1", "r": "-1"},
                       "horizon": length,
                       "compare": {"problem1": {"f": f, "g": g, "h": h1},
                                   "problem2": {"f": f, "g": g, "h": h2},
                                   "span": [0.0, length],
                                   "y2_start": rng.uniform(-0.5, 0.5)}}}


_FAMILIES = {
    "forced_hi": lambda rng, j: _forced(rng, j, lo_ratio=False),
    "forced_lo": lambda rng, j: _forced(rng, j, lo_ratio=True),
    "decaying": _decaying,
    "bursty": _bursty,
    "riccati_escape": lambda rng, j: _riccati(rng, j, escapes=True),
    "riccati_bounded": lambda rng, j: _riccati(rng, j, escapes=False),
    "compare": _compare,
}


def block(workload: str, seed: int, index: int) -> list:
    """Problems of one block; block `index` of a seed never changes."""
    rng = np.random.default_rng([seed, index])
    order = BLOCKS[workload]
    out = []
    for pos, family in enumerate(order):
        # a family appearing twice in a block takes different strata
        slot = index + order[:pos].count(family) * (STRATA // 2)
        spec = _FAMILIES[family](rng, slot)
        out.append(Problem(pid=index * len(order) + pos, family=family,
                           expected=spec["expected"], params=spec["params"],
                           config=spec["config"], texts=spec.get("texts", {})))
    return out


def problems(workload: str, seed: int):
    index = 0
    while True:
        yield from block(workload, seed, index)
        index += 1


# ---------------------------------------------------------------------------
# running one problem (the timed part)


def _subcommand(problem: Problem) -> str:
    if problem.family.startswith("riccati"):
        return "riccati"
    if problem.family == "compare":
        return "compare"
    return "analyze"


def prepare(workload: str, problem: Problem):
    """Parse and validate the inputs; everything before the first solve."""
    if workload != "certify":
        return cli.config_from_dict(problem.config)
    horizon = (0.0, float(problem.config["horizon"]))
    tol = oscillint.Tolerances(**problem.config.get("tolerances", {}))
    probe = oscillint.Grid.uniform(horizon[0], horizon[1], 513)
    parsed = {k: oscillint.parse_text(v) for k, v in problem.texts.items()}
    if "equation" in problem.config:
        eq = oscillint.SecondOrderSpec(parsed["a"], parsed["b"], parsed["c"],
                                       parsed["d"])
        eq.validate_on(probe)
        return eq, oscillint.reduce_equation(eq), horizon, tol
    spec = oscillint.SystemSpec(parsed["p"], parsed["q"], parsed["r"],
                                parsed["s"], parsed["f"], parsed["g"])
    spec.validate_on(probe)
    return None, spec, horizon, tol


def solve(workload: str, problem: Problem, prepared):
    """The library work a user waits for; returns what the checks read."""
    if workload != "certify":
        return cli.run(_subcommand(problem), prepared).render_json()
    eq, spec, horizon, tol = prepared
    outcomes = {}
    non = oscillint.check_nonoscillation(spec, horizon, tol=tol)
    outcomes["check_nonoscillation"] = non.outcome
    if not non.decisive():
        lams = problem.config.get("lambda", {}).get("values")
        osc = oscillint.check_oscillation(spec, horizon, lambda_grid=lams,
                                          tol=tol)
        outcomes["check_oscillation"] = osc.outcome
    if eq is not None:
        outcomes["check_undamped_equation"] = \
            oscillint.check_undamped_equation(eq, horizon).outcome
    return outcomes


# ---------------------------------------------------------------------------
# checking one result against the known answer (untimed)


def _closed_form(problem: Problem, phi0: float, psi0: float):
    """phi and phi' of the member starting at (phi0, psi0 = phi'(0))."""
    p = problem.params
    k = p["k"]
    if problem.family.startswith("forced"):
        w, ph = p["w"], p["ph"]
        amp = p["amp"] / (k * k - w * w)
        c1 = phi0 - amp * math.sin(ph)
        c2 = (psi0 - amp * w * math.cos(ph)) / k

        def phi(t):
            return (c1 * math.cos(k * t) + c2 * math.sin(k * t)
                    + amp * math.sin(w * t + ph))

        def rate(t):
            return (k * (c2 * math.cos(k * t) - c1 * math.sin(k * t))
                    + amp * w * math.cos(w * t + ph))
        return phi, rate
    mu = p["mu"]
    part = -p["amp"] / (mu * mu - k * k)
    grow = 0.5 * ((phi0 - part) + (psi0 + mu * part) / k)
    decay = 0.5 * ((phi0 - part) - (psi0 + mu * part) / k)

    def phi(t):
        return (grow * math.exp(k * t) + decay * math.exp(-k * t)
                + part * math.exp(-mu * t))

    def rate(t):
        return (k * grow * math.exp(k * t) - k * decay * math.exp(-k * t)
                - mu * part * math.exp(-mu * t))
    return phi, rate


def _check_zeros(problem: Problem, report: dict) -> list:
    cfg = report["provenance"]["config"]
    ens = oscillint.default_ensemble((cfg["t0"], cfg["horizon"]),
                                     seed=cfg["oracle"]["seed"],
                                     size=cfg["oracle"]["size"])
    lasts = report["empirical"]["last_zero_per_member"]
    bad = []
    for idx, ((phi0, psi0), tz) in enumerate(zip(ens.initial_conditions,
                                                 lasts)):
        if tz is None:
            continue
        phi, rate = _closed_form(problem, phi0, psi0)
        slope = abs(rate(tz))
        if not abs(phi(tz)) <= ZERO_TIME_TOL * slope:
            bad.append(f"member {idx}: last zero {tz!r} is off the closed "
                       f"form by {abs(phi(tz)) / max(slope, 1e-300):.3g} in t")
    return bad


def _check_riccati(problem: Problem, details: dict) -> tuple:
    p = problem.params
    if problem.expected == "blow_up":
        if not details["blew_up"]:
            return False, ["no blow-up before the closed-form escape time"]
        err = abs(details["escape_time"] - p["blowup"])
        if err > ESCAPE_TIME_TOL:
            return False, [f"escape time off the closed form by {err:.3g}"]
        return True, []
    if details["blew_up"]:
        return False, ["blow-up reported before the closed-form escape time"]
    horizon = problem.config["horizon"]
    if details["end_time"] < horizon * (1.0 - 1e-12):
        return False, [f"solve stopped at {details['end_time']!r}, before "
                       f"the horizon {horizon!r}, without a blow-up"]
    k = p["k"]
    exact = k * math.tan(math.atan(p["y0"] / k) - k * horizon)
    err = abs(details["final_value"] - exact)
    if err > FINAL_VALUE_RTOL * max(1.0, abs(exact)):
        return False, [f"end value off the closed form by {err:.3g}"]
    return True, []


def check(workload: str, problem: Problem, outcome) -> tuple:
    """(certified, failures) for one result; failures empty when it passed."""
    if workload == "certify":
        decisive = [v for v in outcome.values() if v != oscillint.INCONCLUSIVE]
        wrong = [f"{name} says {v}" for name, v in outcome.items()
                 if v not in (oscillint.INCONCLUSIVE, problem.expected)]
        return bool(decisive) and not wrong, wrong
    report = json.loads(outcome)
    if report["subcommand"] == "riccati":
        return _check_riccati(problem, report["details"])
    if report["subcommand"] == "compare":
        holds = report["certificate"]["holds"]
        passed = report["validation"]["passed"]
        if holds and not passed:
            return False, ["certificate holds but validation fails"]
        return holds and passed, []
    failures = []
    verdict = report["verdict"]["outcome"]
    if verdict not in (oscillint.INCONCLUSIVE, problem.expected):
        failures.append(f"verdict {verdict}, expected {problem.expected}")
    if report.get("details", {}).get("oracle_agrees") is False:
        failures.append("oracle_agrees is false")
    if problem.family != "bursty":
        failures.extend(_check_zeros(problem, report))
    return verdict == problem.expected and not failures, failures
