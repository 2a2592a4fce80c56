"""Scalar quadratic ODE solving and the integral comparison certificate.

Equations here have the orientation y' + fcoef y^2 + gcoef y + hcoef = 0.
Solutions can blow up in finite time (downward when fcoef > 0); the solver
reports that as an escape time, which downstream code identifies with zeros
of the first component of the matching linear system.

The comparison machinery takes two such equations plus auxiliary inequality
solutions eta1, eta2 and evaluates a running integral certificate; when the
certificate stays nonnegative, solutions of equation 1 started high enough
dominate the given solution of equation 2 for as long as the latter exists.
comparison_validate checks that conclusion numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import Grid, Tolerances, Trajectory, cumulative_integral, integrate_ode
from .transform import (DEFAULT_GRID_NODES, PROBE_POINTS, SIGN_SLACK, RiccatiProblem,
                        probe_failure, sample_callable)

CERTIFICATE_SLACK = 1e-9
ORDERING_SLACK = 1e-6


class CoefficientError(ValueError):
    """A coefficient of a comparison instance fails where the certificate
    samples it; the message names it (problem1.h, say) and the time."""


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """A solution trajectory together with its blow-up time, if any."""

    trajectory: Trajectory
    escape_time: float | None

    @property
    def end_time(self) -> float:
        return float(self.trajectory.grid.nodes[-1])

    def value_at(self, t):
        return self.trajectory.component(0)(t)

    def escaped(self) -> bool:
        return self.escape_time is not None


def solve_riccati(prob: RiccatiProblem, y0: float,
                  tol: Tolerances = Tolerances()) -> RiccatiSolution:
    """Integrate the quadratic equation forward, stopping at blow-up. Only
    a solve that ends by passing escape_magnitude has blown up; one whose
    step collapsed, or whose field failed, has an end_reason that says so
    and no escape time."""
    traj = integrate_ode(prob.field(), float(y0), prob.span, tol)
    blew_up = traj.end_reason == "escape_magnitude"
    return RiccatiSolution(trajectory=traj,
                           escape_time=traj.escape_time() if blew_up else None)


@dataclass(frozen=True, eq=False)
class ComparisonInstance:
    """Inputs of the comparison certificate.

    eta1 and eta2 are solutions of the associated differential inequalities
    (residual eta' + fcoef eta^2 + gcoef eta + hcoef >= 0, equation 1 and 2
    respectively).  When omitted they default to the constant
    max(y2_start, 0) + eta_offset; hypothesis_residuals reports how well any
    choice satisfies the inequalities instead of trusting it.
    """

    problem1: RiccatiProblem
    problem2: RiccatiProblem
    y2_start: float
    span: tuple[float, float]
    gamma: float | None = None
    eta1: Callable[[float], float] | None = None
    eta2: Callable[[float], float] | None = None
    eta1_rate: Callable[[float], float] | None = None
    eta2_rate: Callable[[float], float] | None = None
    eta_offset: float = 1.0

    def __post_init__(self):
        lo, hi = float(self.span[0]), float(self.span[1])
        if not lo < hi:
            raise ValueError("span must be increasing")
        object.__setattr__(self, "span", (lo, hi))
        default_level = max(self.y2_start, 0.0) + self.eta_offset
        if self.eta1 is None:
            object.__setattr__(self, "eta1", lambda t, v=default_level: v)
            object.__setattr__(self, "eta1_rate", lambda t: 0.0)
        if self.eta2 is None:
            object.__setattr__(self, "eta2", lambda t, v=default_level: v)
            object.__setattr__(self, "eta2_rate", lambda t: 0.0)
        if self.gamma is None:
            object.__setattr__(self, "gamma", float(self.y2_start))

        eta1_start = float(self.eta1(lo))
        eta2_start = float(self.eta2(lo))
        if self.y2_start > eta1_start or self.y2_start > eta2_start:
            raise ValueError("y2_start must not exceed eta1 and eta2 at the start")
        if not (self.y2_start - 1e-12 <= self.gamma <= eta1_start + 1e-12):
            raise ValueError("gamma must lie between y2_start and eta1 at the start")
        if probe_failure(self.problem1.fcoef, lo, hi, lambda f: f < -SIGN_SLACK) is not None:
            raise ValueError("quadratic coefficient of problem 1 must be nonnegative")


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Running value of the comparison integral and its pointwise minimum,
    with the solution of equation 2 it was evaluated along."""

    y2: RiccatiSolution
    grid: Grid
    phi_trace: np.ndarray
    min_value: float
    holds: bool
    slack: float
    squared_variant: bool

    @property
    def escape_time(self) -> float | None:
        return self.y2.escape_time


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of re-solving both equations and checking the ordering."""

    y1: RiccatiSolution
    y2: RiccatiSolution
    y1_exists: bool
    min_difference: float
    eta1_residual_min: float
    eta2_residual_min: float
    span_checked: tuple[float, float]
    passed: bool


def hypothesis_residuals(inst: ComparisonInstance) -> tuple[float, float]:
    """Minimal inequality residuals of eta1 and eta2 at PROBE_POINTS points
    of the span.

    Nonnegative minima mean the supplied eta functions genuinely solve the
    differential inequalities the certificate presumes.
    """
    ts = np.linspace(inst.span[0], inst.span[1], PROBE_POINTS)
    minima = []
    for prob, eta, rate in ((inst.problem1, inst.eta1, inst.eta1_rate),
                            (inst.problem2, inst.eta2, inst.eta2_rate)):
        eta_vals = sample_callable(eta, ts)
        rate_vals = sample_callable(rate, ts) if rate is not None else np.zeros_like(ts)
        residual = (rate_vals
                    + sample_callable(prob.fcoef, ts) * eta_vals ** 2
                    + sample_callable(prob.gcoef, ts) * eta_vals
                    + sample_callable(prob.hcoef, ts))
        minima.append(float(np.min(residual)))
    return minima[0], minima[1]


def comparison_certificate(inst: ComparisonInstance, squared_variant: bool = False,
                           grid_nodes: int = DEFAULT_GRID_NODES, tol: Tolerances = Tolerances()
                           ) -> CertificateReport:
    """Evaluate the running comparison integral along the solution of
    equation 2.

    The trace is gamma - y2(t0) plus the integral of a weight (exponential of
    the cumulative eta-coupling of equation 1) against the coefficient-gap
    bracket; with squared_variant the quadratic gap enters squared.  The
    certificate holds when the trace never dips below -CERTIFICATE_SLACK.
    If y2 blows up early, the trace is truncated there; a weight that
    overflows raises ValueError.
    """
    y2 = solve_riccati(inst.problem2, inst.y2_start, tol)
    lo = inst.span[0]
    hi = y2.end_time
    grid = Grid.uniform(lo, hi, grid_nodes)
    ts = grid.nodes

    y2_vals = np.atleast_1d(y2.value_at(ts))
    coefs = []
    for name, prob in (("problem1", inst.problem1), ("problem2", inst.problem2)):
        for key, coef in zip("fgh", (prob.fcoef, prob.gcoef, prob.hcoef)):
            try:
                coefs.append(sample_callable(coef, ts))
            except ValueError as exc:
                raise CoefficientError(f"{name}.{key}: {exc}") from None
    f1, g1, h1, f2, g2, h2 = coefs
    eta_sum = sample_callable(inst.eta1, ts) + sample_callable(inst.eta2, ts)

    with np.errstate(over="ignore"):  # refused below
        weight = np.exp(cumulative_integral(f1 * eta_sum + g1, grid))
    if not np.all(np.isfinite(weight)):
        raise ValueError("certificate weight exp(integral of f (eta1 + eta2) + g of problem1) "
                         f"overflows at t={ts[np.argmax(~np.isfinite(weight))]:.6g}")
    gap = f2 - f1
    if squared_variant:
        gap = gap * gap
    bracket = gap * y2_vals ** 2 + (g2 - g1) * y2_vals + (h2 - h1)
    phi_trace = (inst.gamma - inst.y2_start
                 + cumulative_integral(weight * bracket, grid))
    min_value = float(np.min(phi_trace))
    return CertificateReport(y2=y2, grid=grid, phi_trace=phi_trace, min_value=min_value,
                             holds=min_value >= -CERTIFICATE_SLACK,
                             slack=CERTIFICATE_SLACK,
                             squared_variant=squared_variant)


def comparison_validate(inst: ComparisonInstance, tol: Tolerances = Tolerances(),
                        y2: RiccatiSolution | None = None) -> ValidationReport:
    """Check the comparison conclusion directly.

    Solves equation 1 from eta1(t0) and equation 2 from y2_start, then
    verifies that the first solution exists for as long as the second and
    stays above it, up to ORDERING_SLACK, at 1024 points.  A y2 already
    solved at tol, such as the one a CertificateReport carries, is used
    instead of solving equation 2 again.
    """
    lo = inst.span[0]
    if y2 is None:
        y2 = solve_riccati(inst.problem2, inst.y2_start, tol)
    y1 = solve_riccati(inst.problem1, float(inst.eta1(lo)), tol)

    end2 = y2.end_time
    end1 = y1.end_time
    width = end2 - lo
    y1_exists = end1 >= end2 - 1e-9 * max(width, 1.0)
    common_end = min(end1, end2)
    ts = np.linspace(lo, common_end, 1024)
    diff = np.atleast_1d(y1.value_at(ts)) - np.atleast_1d(y2.value_at(ts))
    min_difference = float(np.min(diff))
    res1, res2 = hypothesis_residuals(inst)
    passed = bool(y1_exists and min_difference >= -ORDERING_SLACK)
    return ValidationReport(y1=y1, y2=y2, y1_exists=y1_exists,
                            min_difference=min_difference,
                            eta1_residual_min=res1, eta2_residual_min=res2,
                            span_checked=(lo, common_end), passed=passed)
