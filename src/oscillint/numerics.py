"""Shared numerical kernels.

Cumulative quadrature on grids, an adaptive embedded Runge-Kutta 4(5)
integrator (Dormand-Prince pair) with cubic-Hermite dense output,
zero-crossing event detection with bisection refinement, escape (blow-up)
detection, and bracketed root refinement.

`integrate_ode` has one step loop for every state shape: a scalar start
(the Riccati equation) is a Python float in it, and its field is called on
floats; a (dim,) start is a numpy array, and its field on arrays. The
arithmetic is written once; the start state's shape picks only the field
call, the norms and the magnitude.

Events are the zero crossings of one state component, in either
direction; none ends the solve. They are located on each step's cubic
(Hairer, Norsett & Wanner, Solving ODEs I, II.6; Shampine & Thompson,
Comput. Math. Appl. 39, 2000): the component is taken at the step's two
end states and on the cubic between them, and a sign change between two
of these samples is bisected to root_tol on that cubic in the step that
finds it. Bisection (`_bisect_event`, on Python floats) is left only in
this step loop; every other bracketed root, one or many at once, is
refined by `refine_roots`, a lane port of Brent's method.

The integrator is deliberately self-contained: the rest of the library
depends on its exact semantics (dense output shape, dual escape
detection via magnitude threshold or step collapse, events refined on
the dense output), which off-the-shelf solvers do not pin down.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class IntegrationError(RuntimeError):
    """Field evaluation failed or the solver could not proceed."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time!r}")
        self.time = time


class RootBracketError(ValueError):
    pass


@dataclass(frozen=True)
class Tolerances:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    escape_magnitude: float = 1e8
    root_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below achievable double precision")
        if not (self.escape_magnitude > 0 and self.root_tol > 0):
            raise ValueError("escape_magnitude and root_tol must be positive")


@dataclass(frozen=True)
class Grid:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")

    @staticmethod
    def uniform(t_start: float, t_end: float, n: int) -> "Grid":
        return Grid(np.linspace(t_start, t_end, n))

    @property
    def span(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Event:
    """A crossing or an escape."""

    kind: str  # "zero-crossing" | "escape"
    time: float
    direction: int = 0  # +1 rising, -1 falling (crossings)


@dataclass(frozen=True)
class EventSpec:
    """Record every zero crossing of the state's component, rising or
    falling, as a "zero-crossing" Event; the solve runs on past each one.
    A scalar start has the one component 0."""

    component: int


def zero_crossing(component: int) -> EventSpec:
    return EventSpec(component)


def _hermite(s: np.ndarray, h: float, y0, y1, f0, f1):
    """Cubic Hermite basis on normalized s in [0,1]."""
    s2 = s * s
    s3 = s2 * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _hermite_rate(s: np.ndarray, h: float, y0, y1, f0, f1):
    """Exact time derivative of the cubic Hermite basis at normalized s."""
    return ((6.0 * s * s - 6.0 * s) * (y0 - y1) / h
            + (3.0 * s * s - 4.0 * s + 1.0) * f0
            + (3.0 * s * s - 2.0 * s) * f1)


class CubicHermiteCurve:
    """Piecewise cubic Hermite interpolant with exact nodal derivatives."""

    def __init__(self, ts: np.ndarray, values: np.ndarray, derivs: np.ndarray):
        self.ts = np.asarray(ts, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        if len(self.ts) != len(self.values) or len(self.ts) != len(self.derivs):
            raise ValueError("mismatched interpolant arrays")

    def _locate(self, t):
        """Step index, normalized position and step width of each query time."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1, 0, len(self.ts) - 2)
        t0 = self.ts[idx]
        h = self.ts[idx + 1] - t0
        return idx, (t_arr - t0) / h, h

    def __call__(self, t):
        idx, s, h = self._locate(t)
        if self.values.ndim != 1:
            s, h = s[:, None], h[:, None]
        out = _hermite(s, h, self.values[idx], self.values[idx + 1],
                       self.derivs[idx], self.derivs[idx + 1])
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def columns_at(self, t: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Column cols[i] of a curve with (n, k) values, at time t[i]."""
        idx, s, h = self._locate(t)
        v, d = self.values, self.derivs
        return _hermite(s, h, v[idx, cols], v[idx + 1, cols], d[idx, cols], d[idx + 1, cols])


def short_span_end(t: float, toward: float) -> float:
    """Where the degenerate span of a solution that ended at its first
    node, t, ends: just past t, toward the time `toward`."""
    return t + max((toward - t) * 1e-15, 1e-300)


@dataclass
class Trajectory:
    """A solution's nodes, its states and derivatives there, and its events
    in time order; it ends where its last node is.

    end_reason says why integrate_ode's step loop ended the solve:
    "horizon" (it reached the end of the span), "escape_magnitude" (the
    state passed it), "step_collapse" (the step size collapsed) or
    "field_failure" (it collapsed because the field failed at the stages
    it tried). Trajectories made elsewhere (the oracle's members) leave it
    None.
    """

    grid: Grid
    states: np.ndarray  # shape (n, dim)
    events: list[Event] = field(default_factory=list)
    derivs: np.ndarray | None = None  # shape of states, for dense output
    end_reason: str | None = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if len(self.states) != len(self.grid):
            raise ValueError("states length must equal grid length")
        lo, hi = self.grid.span
        for ev in self.events:
            if not (lo <= ev.time <= hi) or not np.isfinite(ev.time):
                raise ValueError("event time outside trajectory span")

    @classmethod
    def from_nodes(cls, ts, ys, fs, events: list, toward: float,
                   end_reason: str | None = None) -> "Trajectory":
        """The solution through the nodes ts, with states ys and derivatives
        fs there, of a solve that ran toward the time `toward`. One that
        ended at its first node gets a degenerate short span past it, its
        one state held."""
        ts = np.asarray(ts, dtype=float)
        ys, fs = (np.asarray(v, dtype=float).reshape(len(ts), -1) for v in (ys, fs))
        if len(ts) == 1:
            ts = np.append(ts, short_span_end(ts[0], toward))
            ys, fs = np.vstack((ys, ys)), np.vstack((fs, fs))
        return cls(Grid(ts), ys, events, fs, end_reason)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def span(self) -> tuple[float, float]:
        return self.grid.span

    def component(self, index: int) -> CubicHermiteCurve:
        if self.derivs is None:
            raise ValueError("trajectory has no stored derivatives for dense output")
        return CubicHermiteCurve(self.grid.nodes, self.states[:, index], self.derivs[:, index])

    def escape_time(self) -> float | None:
        for ev in self.events:
            if ev.kind == "escape":
                return ev.time
        return None


# ---------------------------------------------------------------------------
# Quadrature


def cumulative_integral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Cumulative Simpson integral of sampled values along the grid; starts at 0.

    Interval i takes the parabola through its nodes and the next one for
    even i, the one before for odd i and the last (Cartwright, J. Math. Sci.
    Math. Educ. 12, 2017); two nodes take the trapezoid rule. This is
    scipy.integrate.cumulative_simpson's rule in its operation order, so
    the two agree bit for bit.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("values must be sampled on the grid")
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise IntegrationError("non-finite integrand sample", float(grid.nodes[bad]))
    dx = np.diff(grid.nodes)
    if len(dx) == 1:
        return np.array([0.0, dx[0] * (values[1] + values[0]) / 2.0])
    ahead = _simpson_first_intervals(values, dx)
    behind = _simpson_first_intervals(values[::-1], dx[::-1])[::-1]
    parts = np.where(np.arange(len(dx)) % 2, np.append(0.0, behind), np.append(ahead, behind[-1]))
    return np.concatenate(([0.0], np.cumsum(parts)))


def _simpson_first_intervals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson's integral over [x_i, x_i+1] of the parabola through the
    nodes i, i + 1 and i + 2, for each i."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def definite_simpson(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Composite Simpson on 2048 panels for a vectorized integrand on [lo, hi]."""
    if hi <= lo:
        raise ValueError("empty integration interval")
    n = 2048
    ts = np.linspace(lo, hi, n + 1)
    ys = np.asarray(fn(ts), dtype=float)
    h = (hi - lo) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


# ---------------------------------------------------------------------------
# Root refinement


def refine_root(fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9) -> float:
    """Bracketed root with |bracket| <= tol (Brent's method): one lane of
    refine_roots, with fn called on floats."""
    return float(refine_roots(lambda x, lanes: np.array([fn(float(x[0]))]), [lo], [hi], tol)[0])


_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def refine_roots(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi,
                 tol: float = 1e-9, ends=None) -> np.ndarray:
    """Many bracketed roots at once, each equal to scipy's brentq bit for bit.

    fn(points, lanes) gives the value of bracket lanes[i] (an index into lo
    and hi) at points[i]. Each lane runs brentq's iteration (same xtol,
    rtol = 4 eps, step rules and stopping test); an iteration makes one
    call of fn over the brackets still open, and a converged bracket is
    never passed again. A bracket with a zero at an end returns that end,
    the lower one first. ends, when given, holds fn's values at lo and hi,
    which a caller that found the brackets from them already has; the sign
    test and the iteration then start from those.
    """
    xpre = np.array(lo, dtype=float)
    xcur = np.array(hi, dtype=float)
    if np.any(xcur <= xpre):
        raise RootBracketError("empty bracket")

    def checked(out):
        out = np.asarray(out, dtype=float)
        if np.isnan(out).any():
            raise ValueError("root function returned NaN")
        return out

    lanes = np.arange(xcur.size)
    if ends is None:
        ends = fn(xpre, lanes), fn(xcur, lanes)
    fpre, fcur = (checked(v) for v in ends)
    open_ = (fpre != 0.0) & (fcur != 0.0)
    if np.any(open_ & (np.signbit(fpre) == np.signbit(fcur))):
        raise RootBracketError("no sign change on some bracket")
    root = np.where(fpre == 0.0, xpre, xcur)
    # the iteration state holds the open brackets only, in the order of lanes
    lanes, xpre, xcur, fpre, fcur = (a[open_] for a in (lanes, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros_like(xcur) for _ in range(4))
    for _ in range(_BRENT_MAXITER):
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        # keep the better estimate in xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (tol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        converged = (fcur == 0.0) | (np.abs(sbis) < delta)
        if converged.any():
            root[lanes[converged]] = xcur[converged]
            keep = ~converged
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[keep] for a in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                  delta, sbis))
        if not lanes.size:
            return root

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # secant when the contrapoint is the previous iterate, else
            # inverse quadratic interpolation
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = checked(fn(xcur, lanes))
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations")


def _bisect_event(g: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Plain bisection on the dense output; assumes sign change across [a, b]."""
    ga = g(a)
    if ga == 0.0:
        return a
    for _ in range(128):
        if (b - a) <= tol:
            break
        mid = 0.5 * (a + b)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (ga < 0) == (gm < 0):
            a, ga = mid, gm
        else:
            b = mid
    return 0.5 * (a + b)


def crossings(g: np.ndarray) -> np.ndarray:
    """True at i where g changes sign from g[i] to g[i + 1], along its first
    axis: strictly, or by landing on zero from a nonzero value."""
    ga, gb = g[:-1], g[1:]
    return (ga != 0.0) & (((ga < 0.0) != (gb < 0.0)) | (gb == 0.0))


# ---------------------------------------------------------------------------
# Adaptive Dormand-Prince 4(5) with FSAL

# The tableau as floats; stage sums run over it left to right for either state
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_EVENT_SUBSAMPLES = 6
_MAX_STEPS = 1_000_000
STEP_COLLAPSE = 1e-12
_FIELD_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)


def _subsamples(t: float, t_new: float) -> list[float]:
    """Event scan times on the step [t, t_new], as np.linspace gives them."""
    step = (t_new - t) / _EVENT_SUBSAMPLES
    return [i * step + t for i in range(_EVENT_SUBSAMPLES)] + [t_new]


def _step_factor(err: float) -> float:
    """Step-size multiplier after a step with RMS error ratio err; below 1
    for a rejected step (err > 1)."""
    return 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))


def _dot(coeffs, k):
    """Sum of coefficient times stage value, left to right; a float or an
    array, as the stage values are."""
    acc = 0.0
    for a, kj in zip(coeffs, k):
        acc += a * kj
    return acc


def integrate_ode(
    field_fn: Callable,
    y0: float | Sequence[float],
    span: tuple[float, float],
    tolerances: Tolerances = Tolerances(),
    events: Sequence[EventSpec] = (),
    max_step: float | None = None,
) -> Trajectory:
    """Integrate y' = field(t, y) forward across span from a scalar or a
    (dim,) y0.

    Local error per step is held to rel_tol*|y| + abs_tol by the embedded
    4th/5th order pair, as an RMS over the components. Integration ends
    early only with an escape event, once |state| exceeds escape_magnitude
    or the step size collapses below 1e-12 * span width; the result's
    end_reason tells these apart. The result has states of
    shape (n, dim), (n, 1) for a scalar equation, and the field at the
    nodes as derivs.

    Each EventSpec records every zero crossing of its component, rising
    or falling, and the solve runs on past it. On each accepted step the
    component is taken at 7 equally spaced times: the step's own states
    at its two ends and its cubic at the 5 times between. Each sign change
    between two neighbours, by the rule of `crossings`, is bisected at once
    to root_tol on that step's cubic. No crossing is recorded past an
    escape. A component outside the start state raises ValueError before
    the first step.

    The start state's shape picks the kind of equation:
    - A scalar y0 (0-d) is a scalar equation, held as a Python float; in
      the library that is the Riccati equation of `riccati`. Its
      field is called as field(t, y) with a float y and returns a real
      number: a float, or a numpy scalar or 0-d array, which is converted.
      This saves the fixed cost of numpy calls on 1-element arrays.
    - A (dim,) y0, (1,) included, is stepped as a numpy array. Its field
      is called with a (dim,) array and returns one of the same shape,
      which is copied before it is kept, so a field may fill and return
      one buffer on every call.
    Either way a field that raises ValueError, ZeroDivisionError,
    OverflowError or FloatingPointError, or returns a non-finite value or
    a result of the wrong kind, has failed there; the step is retried
    shorter. Escapes are refined inside their step, since they set the
    end state.
    """
    t_a, t_b = float(span[0]), float(span[1])
    if not t_b > t_a:
        raise ValueError("span must satisfy t_a < t_b")
    y = np.array(y0, dtype=float)
    if y.ndim > 1:
        raise ValueError("y0 must be a scalar or have shape (dim,)")
    for spec in events:
        if not 0 <= spec.component < y.size:
            raise ValueError(f"event component {spec.component} is outside the state")
    if max_step is None:
        max_step = (t_b - t_a) / 16.0
    return _step_loop(field_fn, float(y) if y.ndim == 0 else y, t_a, t_b,
                      tolerances, events, max_step)


def _scalar_field(field_fn, t: float, y: float) -> float | None:
    """Field at the scalar state y, as a float; None if it fails. A float
    result returns at once; a numpy scalar or a 0-d array is converted;
    anything else, such as a (1,) array or a string, is a failure, as is
    a non-finite value."""
    try:
        value = field_fn(t, y)
        if type(value) is not float:
            if isinstance(value, np.ndarray) and value.ndim == 0:
                value = value[()]
            if not isinstance(value, numbers.Real):
                return None
            value = float(value)
    except _FIELD_ERRORS:
        return None
    return value if math.isfinite(value) else None


def _array_field(field_fn, t: float, y: np.ndarray) -> np.ndarray | None:
    """Field at the (dim,) state y, as a copy that shares no buffer with
    the field's result; None if it fails."""
    try:
        out = np.array(field_fn(t, y), dtype=float)
    except _FIELD_ERRORS:
        return None
    if out.shape != y.shape or not np.isfinite(out).all():
        return None
    return out


def _step_loop(field_fn, y: float | np.ndarray, t_a: float, t_b: float, tol: Tolerances,
               events: Sequence[EventSpec], max_step: float) -> Trajectory:
    """integrate_ode's step loop, on a Python float or a (dim,) array y.

    The arithmetic is the same for both kinds of state; y's kind picks
    only the field call, the RMS norm, the magnitude and the elementwise
    larger of two magnitudes."""
    if isinstance(y, float):
        call, larger, size = _scalar_field, max, abs
        rms = lambda v: math.sqrt(v * v)  # overflows to inf as an array's does
    else:
        call, larger = _array_field, np.maximum
        size = lambda v: float(np.abs(v).max())
        rms = lambda v: float(np.sqrt(np.add.reduce(v * v) / v.size))
    width = t_b - t_a
    f_now = call(field_fn, t_a, y)
    if f_now is None:
        raise IntegrationError("field not evaluable at start", t_a)
    ts, ys, fs = [t_a], [y], [f_now]
    crossed: list[Event] = []
    escapes: list[Event] = []
    escape = tol.escape_magnitude
    live = size(y) <= escape
    reason = "horizon" if live else "escape_magnitude"
    if not live:
        escapes.append(Event("escape", t_a))

    # initial step heuristic
    scale = tol.abs_tol + tol.rel_tol * abs(y)
    d0, d1 = rms(y / scale), rms(f_now / scale)
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else width / 100.0
    h = min(h, max_step, width)

    t = t_a
    failed = False  # the last retry came from a stage whose field failed
    for _ in range(_MAX_STEPS):
        # the sliver guard keeps a 1-ulp remainder from looking like collapse
        if not live or t >= t_b - 1e-13 * width:
            break
        h = min(h, t_b - t)
        if h < STEP_COLLAPSE * width:
            reason = "field_failure" if failed else "step_collapse"
            escapes.append(Event("escape", t))
            break

        k = [f_now]
        for c, row in zip(_C[1:], _A[1:]):
            ki = call(field_fn, t + c * h, y + h * _dot(row, k))
            if ki is None:
                break
            k.append(ki)
        failed = len(k) < 7
        if failed:
            h *= 0.25
            continue

        y_new = y + h * _dot(_B5, k)
        err = rms(h * _dot(_E, k) / (tol.abs_tol + tol.rel_tol * larger(abs(y), abs(y_new))))
        if not math.isfinite(err):
            h *= 0.25
            continue
        if err > 1.0:
            h *= _step_factor(err)
            continue

        # accepted
        t_new = t + h
        if t_b - t_new < 1e-12 * width:
            t_new = t_b
        f_new = k[6]  # FSAL: field(t_new, y_new)

        def dense(tq):
            return _hermite((tq - t) / h, h, y, y_new, f_now, f_new)

        # event scan: the component at the step's end states and on its
        # cubic between them; each crossing is bisected on that cubic
        if events:
            samples = _subsamples(t, t_new)
            rows = np.array((y, f_now, y_new, f_new)).reshape(4, -1)
            for spec in events:
                y0, f0, y1, f1 = rows[:, spec.component].tolist()
                g = lambda tq: _hermite((tq - t) / h, h, y0, y1, f0, f1)
                vals = [y0, *map(g, samples[1:-1]), y1]
                for i in np.flatnonzero(crossings(np.array(vals))).tolist():
                    te = _bisect_event(g, samples[i], samples[i + 1], tol.root_tol)
                    crossed.append(Event("zero-crossing", te, 1 if vals[i + 1] > vals[i] else -1))

        # escape by magnitude, refined on the dense output; it ends the solve
        if size(y_new) > escape:
            g_esc = lambda tq: size(dense(tq)) - escape
            te = float(_bisect_event(g_esc, t, t_new, tol.root_tol)) if g_esc(t) < 0 else t
            y_end = dense(te)
            f_end = call(field_fn, te, y_end) if te > t else f_now
            if f_end is None:  # the field fails there: the cubic's own slope
                f_end = _hermite_rate((te - t) / h, h, y, y_new, f_now, f_new)
            reason = "escape_magnitude"
            escapes.append(Event("escape", te))
            if te > t:
                ts.append(te)
                ys.append(y_end)
                fs.append(f_end)
            break

        ts.append(t_new)
        ys.append(y_new)
        fs.append(f_new)
        t, y, f_now = t_new, y_new, f_new
        h = min(h * _step_factor(err), max_step)
    else:
        raise IntegrationError("step budget exhausted", t)
    # crossings past the last node are dropped; the stable sort by time
    # puts an escape, listed last, after a crossing at its time
    recorded = sorted([ev for ev in crossed if ev.time <= ts[-1]] + escapes,
                      key=lambda ev: ev.time)
    return Trajectory.from_nodes(ts, ys, fs, recorded, t_b, reason)
