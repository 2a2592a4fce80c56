"""Structural transforms between problem formulations.

Three changes of variables connect the objects this package works with:

* a second-order equation (a(t) phi')' + b(t) phi' + c(t) phi = d(t) becomes
  a first-order 2x2 system via psi = a(t) phi',
* a forced system is shifted so that all forcing moves into the second
  equation, at the price of a free parameter ``lam`` (the shift trace),
* a 2x2 linear system corresponds to a scalar quadratic (Riccati) equation
  through y = psi / phi.

Shift traces are computed by cumulative quadrature on a fixed grid and wrapped
in cubic Hermite interpolants whose nodal derivatives are exact (the integrand
itself), so evaluation between nodes stays at quadrature accuracy. A trace
holds the nodal samples of p, f, r and g, growth = exp of the integral of p
and the integral of f / growth; alpha is affine in lam, so the trace of any
other lam is read off these without sampling or integrating again.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Sequence

import numpy as np

from .expr import Constant, Div, Expr, Negate, Sub, compile_scalar, contains_t, eval_expr, sample
from .numerics import CubicHermiteCurve, Grid, cumulative_integral

DEFAULT_GRID_NODES = 2048
# evenly spaced points of a span at which coefficient conditions are probed
PROBE_POINTS = 513
# how far below zero a value may sit and still count as nonnegative
SIGN_SLACK = 1e-12


class TransformError(ValueError):
    """A change of variables is undefined for the given data."""


def sample_callable(fn: Callable[[float], float], ts: np.ndarray) -> np.ndarray:
    """fn at each time; a domain error, a division by zero or an overflow
    there becomes a ValueError that names the time."""
    try:
        return np.array([float(fn(t := float(s))) for s in ts])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{exc} at t={t!r}") from None


def probe_failure(coef: Expr | Callable[[float], float], lo: float, hi: float,
                  fails: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> float | None:
    """The first of PROBE_POINTS evenly spaced points of [lo, hi] where
    fails holds for the coefficient's value, or None when it holds at none
    of them (always None without fails). A coefficient that cannot be
    evaluated at a point raises ValueError naming the time: an Expr through
    `sample`, a callable through `sample_callable`."""
    ts = np.linspace(lo, hi, PROBE_POINTS)
    values = sample(coef, ts) if isinstance(coef, Expr) else sample_callable(coef, ts)
    if fails is None or not np.any(bad := fails(values)):
        return None
    return float(ts[int(np.argmax(bad))])


def _negated(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return Constant(-e.value)
    if isinstance(e, Negate):
        return e.arg
    return Negate(e)


def _reciprocal(e: Expr) -> Expr:
    if isinstance(e, Constant):
        if e.value == 0.0:
            raise TransformError("cannot divide by the zero coefficient")
        return Constant(1.0 / e.value)
    return Div(Constant(1.0), e)


def _quotient(num: Expr, den: Expr) -> Expr:
    if isinstance(num, Constant) and num.value == 0.0:
        return Constant(0.0)
    if isinstance(den, Constant):
        if den.value == 1.0:
            return num
        if den.value == 0.0:
            raise TransformError("cannot divide by the zero coefficient")
    return Div(num, den)


@dataclass(frozen=True)
class SystemSpec:
    """Coefficients of phi' = p phi + q psi + f, psi' = r phi + s psi + g."""

    p: Expr
    q: Expr
    r: Expr
    s: Expr
    f: Expr
    g: Expr
    t0: float = 0.0

    def __getstate__(self) -> dict:
        """The fields alone: a check's kept record and chunk solves are not
        pickled or copied."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def coefficients(self) -> dict[str, Expr]:
        return {"p": self.p, "q": self.q, "r": self.r, "s": self.s,
                "f": self.f, "g": self.g}

    def validate_on(self, grid: Grid) -> None:
        """Eagerly evaluate every coefficient on the grid; raises on failure."""
        for name, e in self.coefficients().items():
            try:
                sample(e, grid.nodes)
            except ValueError as exc:
                raise TransformError(f"coefficient {name} not evaluable: {exc}") from exc

    def homogeneous(self) -> "SystemSpec":
        return SystemSpec(self.p, self.q, self.r, self.s,
                          Constant(0.0), Constant(0.0), self.t0)

    def is_forced(self) -> bool:
        for e in (self.f, self.g):
            if contains_t(e) or eval_expr(e, self.t0) != 0.0:
                return True
        return False

    def field(self) -> Callable[[float, np.ndarray], np.ndarray]:
        p_ = compile_scalar(self.p)
        q_ = compile_scalar(self.q)
        r_ = compile_scalar(self.r)
        s_ = compile_scalar(self.s)
        f_ = compile_scalar(self.f)
        g_ = compile_scalar(self.g)

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            phi, psi = y[0], y[1]
            return np.array([p_(t) * phi + q_(t) * psi + f_(t),
                             r_(t) * phi + s_(t) * psi + g_(t)])

        return rhs


@dataclass(frozen=True)
class SecondOrderSpec:
    """Coefficients of (a(t) phi')' + b(t) phi' + c(t) phi = d(t), a > 0."""

    a: Expr
    b: Expr
    c: Expr
    d: Expr
    t0: float = 0.0

    def validate_on(self, grid: Grid) -> None:
        try:
            a_vals = sample(self.a, grid.nodes)
        except ValueError as exc:
            raise TransformError(f"leading coefficient not evaluable: {exc}") from exc
        if np.any(a_vals <= 0.0):
            bad = float(grid.nodes[int(np.argmax(a_vals <= 0.0))])
            raise TransformError(f"leading coefficient must stay positive, fails at t = {bad:g}")
        for name in ("b", "c", "d"):
            try:
                sample(getattr(self, name), grid.nodes)
            except ValueError as exc:
                raise TransformError(f"coefficient {name} not evaluable: {exc}") from exc


@dataclass(frozen=True, eq=False)
class AlphaTrace:
    """Shift trace for one value of lam on a grid.

    p, f, r and g are the system's coefficients at the grid nodes, growth
    the exp of the cumulative integral of p and forced that of f / growth.
    Then alpha = growth * (lam + forced), its exact nodal slope alpha_rate =
    p alpha + f, and the shifted forcing g_lambda = r alpha + g. Every lam
    shares the samples and integrals: `at` gives another lam's trace and
    `alpha_rows` the alpha of many lams.
    """

    lam: float
    grid: Grid
    system: SystemSpec
    p: np.ndarray
    f: np.ndarray
    r: np.ndarray
    g: np.ndarray
    growth: np.ndarray
    forced: np.ndarray
    alpha: np.ndarray = dataclass_field(init=False)
    g_lambda: np.ndarray = dataclass_field(init=False)
    alpha_rate: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        alpha = self.growth * (self.lam + self.forced)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "g_lambda", self.r * alpha + self.g)
        object.__setattr__(self, "alpha_rate", self.p * alpha + self.f)

    def at(self, lam: float) -> "AlphaTrace":
        """The trace of another lam, from the same samples and integrals."""
        return replace(self, lam=float(lam))

    def alpha_rows(self, lams: Sequence[float]) -> np.ndarray:
        """alpha of each lam as the rows of one (lam, node) matrix, each
        (lam - self.lam) growth + alpha."""
        rows = np.multiply(np.asarray(lams, dtype=float)[:, None] - self.lam, self.growth)
        rows += self.alpha
        return rows

    def alpha_at(self, t):
        return CubicHermiteCurve(self.grid.nodes, self.alpha, self.alpha_rate)(t)

    def g_lambda_at(self, t):
        if np.ndim(t) == 0:
            return float(eval_expr(self.system.r, float(t))) * float(self.alpha_at(t)) \
                + float(eval_expr(self.system.g, float(t)))
        ts = np.asarray(t, dtype=float)
        return sample(self.system.r, ts) * self.alpha_at(ts) + sample(self.system.g, ts)


@dataclass(frozen=True, eq=False)
class ShiftedSystem:
    """System after moving all forcing into the second equation.

    p, q, r, s are inherited unchanged; the first equation is unforced and the
    second carries the grid-sampled forcing recorded in ``trace``.
    """

    p: Expr
    q: Expr
    r: Expr
    s: Expr
    t0: float
    trace: AlphaTrace

    def field(self) -> Callable[[float, np.ndarray], np.ndarray]:
        p_ = compile_scalar(self.p)
        q_ = compile_scalar(self.q)
        r_ = compile_scalar(self.r)
        s_ = compile_scalar(self.s)
        trace = self.trace

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            phi, psi = y[0], y[1]
            return np.array([p_(t) * phi + q_(t) * psi,
                             r_(t) * phi + s_(t) * psi + trace.g_lambda_at(t)])

        return rhs


@dataclass(frozen=True, eq=False)
class RiccatiProblem:
    """Scalar problem y' + fcoef y^2 + gcoef y + hcoef = 0 on span."""

    fcoef: Callable[[float], float]
    gcoef: Callable[[float], float]
    hcoef: Callable[[float], float]
    span: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.span
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("span must be a finite increasing pair")
        object.__setattr__(self, "span", (float(lo), float(hi)))

    def field(self) -> Callable[[float, float], float]:
        """y' = -(fcoef y^2 + gcoef y + hcoef), a scalar field for
        integrate_ode: it takes the time and y as floats and returns y'."""
        fc, gc, hc = self.fcoef, self.gcoef, self.hcoef

        def rhs(t: float, y: float) -> float:
            return -(fc(t) * y * y + gc(t) * y + hc(t))

        return rhs


def _require_grid_start(sys: SystemSpec, grid: Grid) -> None:
    start = float(grid.nodes[0])
    if abs(start - sys.t0) > 1e-12 * max(1.0, abs(sys.t0)):
        raise ValueError(f"grid must start at t0 = {sys.t0:g}, got {start:g}")


def alpha_lambda(sys: SystemSpec, lam: float, grid: Grid) -> AlphaTrace:
    """Shift trace on the grid: the one place that samples p, f, r and g on a
    check's grid and integrates them; other lams derive from it."""
    _require_grid_start(sys, grid)
    ts = grid.nodes
    p, f, r, g = (sample(e, ts) for e in (sys.p, sys.f, sys.r, sys.g))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        growth = np.exp(cumulative_integral(p, grid))
        shrink = 1.0 / growth
        weighted = f / growth
    for values, what in ((growth, "growth factor overflows"), (shrink, "growth factor underflows"),
                         (weighted, "forcing f over the growth factor overflows")):
        if not np.all(np.isfinite(values)):
            raise TransformError(f"{what} on the grid; shorten the horizon")
    return AlphaTrace(lam=float(lam), grid=grid, system=sys, p=p, f=f, r=r, g=g,
                      growth=growth, forced=cumulative_integral(weighted, grid))


def reduce_equation(eq: SecondOrderSpec) -> SystemSpec:
    """Rewrite the second-order equation as a 2x2 system via psi = a phi'."""
    return SystemSpec(
        p=Constant(0.0),
        q=_reciprocal(eq.a),
        r=_negated(eq.c),
        s=_quotient(_negated(eq.b), eq.a),
        f=Constant(0.0),
        g=eq.d,
        t0=eq.t0,
    )


def shift_system(sys: SystemSpec, lam: float, grid: Grid) -> ShiftedSystem:
    """Move all forcing into the second equation for the given lam."""
    trace = alpha_lambda(sys, lam, grid)
    return ShiftedSystem(p=sys.p, q=sys.q, r=sys.r, s=sys.s, t0=sys.t0, trace=trace)


def riccati_of_system(sys: SystemSpec, span: tuple[float, float]) -> RiccatiProblem:
    """Scalar quadratic problem matched to the homogeneous part of the system
    through y = psi / phi: fcoef = q, gcoef = p - s, hcoef = -r."""
    return RiccatiProblem(compile_scalar(sys.q), compile_scalar(Sub(sys.p, sys.s)),
                          compile_scalar(Negate(sys.r)), span)
