"""Shared numerical kernels.

Cumulative quadrature on grids, an adaptive embedded Runge-Kutta 4(5)
integrator (Dormand-Prince pair) with cubic-Hermite dense output that
also advances a batch of members on one step grid, zero-crossing event
detection with bisection refinement, escape (blow-up) detection, and
bracketed root refinement.

`integrate_ode` has two step loops behind one entry point, chosen by the
shape of the start state: a one-component state (the scalar Riccati and
Prufer angle equations) steps on Python floats, and every other state
steps on numpy arrays as a (dim, m) batch: a plain (dim,) start is a
one-member batch whose field still sees the plain state. Both loops keep
one event contract and end through one finish, which builds a batch.

Events are sign changes of a function of the solution, in either
direction; none ends the solve. They are located on each step's cubic
(Hairer, Norsett & Wanner, Solving ODEs I, II.6; Shampine & Thompson,
Comput. Math. Appl. 39, 2000): an event function gets lanes, one state
column per time, for the step's subsamples, and a sign change between
two of them is bisected to root_tol after the step loop. The finish
bisects all of an event's crossings as lanes of one solve, each lane on
the cubic of the step it was found in.

The integrator is deliberately self-contained: the rest of the library
depends on its exact semantics (dense output shape, dual escape
detection via magnitude threshold or step collapse, events refined on
the dense output), which off-the-shelf solvers do not pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq


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
    """A crossing or an escape. A batch solve names the member it happened
    to; a plain start, solved as a one-member batch, keeps member None."""

    kind: str  # "zero-crossing" | "escape"
    time: float
    direction: int = 0  # +1 rising, -1 falling (crossings)
    member: int | None = None


@dataclass(frozen=True)
class EventSpec:
    """Record every sign change of g(t, y) along the solution, rising or
    falling, as an Event of this kind; the solve runs on past each one.

    fn must broadcast over lanes: given times of shape (L,) and states of
    shape (dim, L), one column per time, it returns the L values. Both
    step loops call it so, a one-component state with (1, L) states.
    """

    fn: Callable[[float | np.ndarray, np.ndarray], float | np.ndarray]
    kind: str = "zero-crossing"


def zero_crossing(component: int) -> EventSpec:
    return EventSpec(fn=lambda t, y: y[component])


def _hermite(s: np.ndarray, h: float, y0, y1, f0, f1):
    """Cubic Hermite basis on normalized s in [0,1]."""
    s2 = s * s
    s3 = s2 * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _hermite_weights(s: float, h: float) -> tuple:
    """The weights _hermite gives y0, f0, y1 and f1, in the order it adds
    them, with the same arithmetic; it stays inline there, where the
    scalar loop calls it most."""
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h, -2 * s3 + 3 * s2, (s3 - s2) * h


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

    def _evaluate(self, basis, t):
        idx, s, h = self._locate(t)
        if self.values.ndim != 1:
            s, h = s[:, None], h[:, None]
        out = basis(s, h, self.values[idx], self.values[idx + 1],
                    self.derivs[idx], self.derivs[idx + 1])
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def __call__(self, t):
        return self._evaluate(_hermite, t)

    def columns_at(self, t: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Column cols[i] of a curve with (n, k) values, at time t[i]."""
        idx, s, h = self._locate(t)
        v, d = self.values, self.derivs
        return _hermite(s, h, v[idx, cols], v[idx + 1, cols], d[idx, cols], d[idx + 1, cols])

    def rate(self, t):
        """Exact derivative of the piecewise cubic at t."""
        return self._evaluate(_hermite_rate, t)


@dataclass
class Trajectory:
    """A solve's nodes, states and derivatives. Both step loops return a
    batch with `ends`; a plain start, solved as a one-member batch, comes
    back squeezed to (n, dim) states, events with member None, no `ends`."""

    grid: Grid
    states: np.ndarray  # shape (n, dim), or (n, dim, m) for a batch of m members
    events: list[Event] = field(default_factory=list)
    derivs: np.ndarray | None = None  # shape of states, for dense output
    ends: np.ndarray | None = None  # batch only: each member's end time

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if len(self.states) != len(self.grid):
            raise ValueError("states length must equal grid length")
        lo, hi = self.grid.span
        for ev in self.events:
            if not (lo <= ev.time <= hi) or not np.isfinite(ev.time):
                raise ValueError("event time outside trajectory span")

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

    def members(self) -> list["Trajectory"]:
        """Split a batch solve into one trajectory per member.

        Each member keeps the shared grid up to its own end time. A member
        that retired inside a step gets a last node at its refined end time,
        taken from the next row, which holds its frozen state.
        """
        if self.ends is None:
            raise ValueError("not a batch trajectory")
        nodes = self.grid.nodes
        events: list[list[Event]] = [[] for _ in self.ends]
        for ev in self.events:
            events[ev.member].append(ev)
        out = []
        for j, end in enumerate(self.ends):
            k = int(np.searchsorted(nodes, end, side="right"))
            if nodes[k - 1] < end:
                ts, rows = np.append(nodes[:k], end), np.arange(k + 1)
            else:
                # a member that ended at the start keeps the first step, frozen
                rows = np.arange(max(k, 2))
                ts = nodes[rows]
            out.append(Trajectory(Grid(ts), self.states[rows, :, j], events[j],
                                  self.derivs[rows, :, j]))
        return out

    def escape_time(self) -> float | None:
        for ev in self.events:
            if ev.kind == "escape":
                return ev.time
        return None


# ---------------------------------------------------------------------------
# Quadrature


def cumulative_integral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Cumulative Simpson integral of sampled values along the grid; starts at 0."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("values must be sampled on the grid")
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise IntegrationError("non-finite integrand sample", float(grid.nodes[bad]))
    return cumulative_simpson(values, x=grid.nodes, initial=0.0)


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
    """Bracketed root with |bracket| <= tol (Brent's method)."""
    if hi <= lo:
        raise RootBracketError("empty bracket")
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise RootBracketError(f"no sign change on [{lo}, {hi}]")
    return float(brentq(fn, lo, hi, xtol=tol))


_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def refine_roots(fn: Callable[[np.ndarray], np.ndarray], lo, hi,
                 tol: float = 1e-9) -> np.ndarray:
    """Many bracketed roots at once, each equal to refine_root's bit for bit.

    fn maps an array of points, one per bracket, to the values there. Each
    lane runs scipy's brentq (same xtol, rtol = 4 eps, step rules and
    stopping test); an iteration makes one call of fn over all brackets, and
    a lane that has converged stays at its root.
    """
    xpre = np.array(lo, dtype=float)
    xcur = np.array(hi, dtype=float)
    if np.any(xcur <= xpre):
        raise RootBracketError("empty bracket")

    def values(x):
        out = np.asarray(fn(x), dtype=float)
        if np.isnan(out).any():
            raise ValueError("root function returned NaN")
        return out

    fpre, fcur = values(xpre), values(xcur)
    done = (fpre == 0.0) | (fcur == 0.0)
    if np.any(~done & (np.signbit(fpre) == np.signbit(fcur))):
        raise RootBracketError("no sign change on some bracket")
    root = np.where(fpre == 0.0, xpre, xcur)
    xblk = np.zeros_like(xcur)
    fblk = np.zeros_like(xcur)
    spre = np.zeros_like(xcur)
    scur = np.zeros_like(xcur)
    for _ in range(_BRENT_MAXITER):
        if done.all():
            return root
        # lanes that have converged keep their state; their steps are discarded
        live = ~done
        flip = live & (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        # keep the better estimate in xcur
        swap = live & (np.abs(fblk) < np.abs(fcur))
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (tol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        converged = live & ((fcur == 0.0) | (np.abs(sbis) < delta))
        root = np.where(converged, xcur, root)
        done = done | converged
        live = ~done

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
        spre = np.where(live, np.where(short, scur, sbis), spre)
        scur = np.where(live, np.where(short, stry, sbis), scur)

        xpre = np.where(live, xcur, xpre)
        fpre = np.where(live, fcur, fpre)
        step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        xcur = np.where(live, xcur + step, xcur)
        fcur = np.where(live, values(xcur), fcur)
    if not done.all():
        raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations")
    return root


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


def _bisect_lanes(g: Callable[[np.ndarray], np.ndarray], a, b, tol: float) -> np.ndarray:
    """_bisect_event on many brackets at once, each lane equal to it bit for bit.

    g maps an array of times, one per bracket, to the event values there;
    an iteration makes one call of g over every lane, and a lane that has
    stopped keeps its result.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    ga = g(a)
    root = a.copy()
    done = ga == 0.0
    for _ in range(128):
        open_ = ~done & (b - a > tol)
        if not open_.any():
            break
        mid = 0.5 * (a + b)
        gm = g(mid)
        zero = open_ & (gm == 0.0)
        root[zero] = mid[zero]
        done |= zero
        left = open_ & ~zero & ((ga < 0) == (gm < 0))
        right = open_ & ~zero & ~left
        a = np.where(left, mid, a)
        ga = np.where(left, gm, ga)
        b = np.where(right, mid, b)
    return np.where(done, root, 0.5 * (a + b))


def _refine_on_cubics(spec: EventSpec, t, h, cubic: np.ndarray, a, b,
                      tol: float) -> np.ndarray:
    """Times where spec's function changes sign inside the brackets [a, b].

    Lane i follows the step cubic over [t[i], t[i] + h[i]] whose start and
    end states and derivatives are cubic[:, :, i], stacked as (y0, f0, y1,
    f1).
    """
    y0, f0, y1, f1 = cubic

    def g(tq):
        return np.asarray(spec.fn(tq, _hermite((tq - t) / h, h, y0, y1, f0, f1)), dtype=float)
    return _bisect_lanes(g, a, b, tol)


# ---------------------------------------------------------------------------
# Adaptive Dormand-Prince 4(5) with FSAL

# The tableau as floats for the scalar loop; the array loop uses numpy copies
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
_DP_C = np.array(_C)
_DP_A = [np.array(row) for row in _A]
_DP_B5 = np.array(_B5)
_DP_E = np.array(_E)

_EVENT_SUBSAMPLES = 6
_MAX_STEPS = 1_000_000
_STEP_COLLAPSE = 1e-12
_FIELD_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)


def _subsamples(t: float, t_new: float) -> list[float]:
    """Event scan times on the step [t, t_new], as np.linspace gives them."""
    step = (t_new - t) / _EVENT_SUBSAMPLES
    return [i * step + t for i in range(_EVENT_SUBSAMPLES)] + [t_new]


def _step_factor(err: float) -> float:
    """Step-size multiplier after a step with RMS error ratio err; below 1
    for a rejected step (err > 1)."""
    return 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))


def _dot(coeffs, k) -> float:
    """Sum of coefficient times stage value, left to right."""
    acc = 0.0
    for a, kj in zip(coeffs, k):
        acc += a * kj
    return acc


def integrate_ode(
    field_fn: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    span: tuple[float, float],
    tolerances: Tolerances = Tolerances(),
    events: Sequence[EventSpec] = (),
    max_step: float | None = None,
) -> Trajectory:
    """Integrate y' = field(t, y) forward across span.

    Local error per step is held to rel_tol*|y| + abs_tol by the embedded
    4th/5th order pair. Integration ends early only with an escape event,
    once |state| exceeds escape_magnitude or the step size collapses below
    1e-12 * span width.

    A y0 of shape (dim, m) solves m members on one shared step grid. The
    field then gets states of shape (dim, m) and must broadcast over that
    trailing member axis; it also gets one member's (dim,) state where
    that member's escape is refined. A step is accepted only when each
    live member's own RMS error is within tolerance. A member that escapes
    by magnitude retires at its refined time with its state frozen there
    while the others run on; a step collapse ends every live member. The
    result then has states of shape (n, dim, m), events tagged with their
    member and each member's end time in `ends`; `Trajectory.members()`
    splits it. A plain (dim,) y0 runs as the one member of a (dim, 1) batch
    whose field still gets (dim,) states, and comes back squeezed: states of
    shape (n, dim), events with member None and `ends` None.

    Each EventSpec records every crossing, rising or falling, and the
    solve runs on past it. Crossings are found by sign changes between 7
    equally spaced samples of each step's cubic, the first of which is the
    step before's last, and bisected to root_tol on the cubic of the step
    they were found in. An event function always gets lanes, an (L,) array
    of times and a (dim, L) array of states, one column per time: once per
    step for every member's fresh samples, and once per bisection
    iteration for every crossing of that event, all refined together after
    the last step. Each time equals a bisection of that member's own cubic
    alone, bit for bit. A member records no crossing past its end time.

    The start state's shape picks the step loop. A scalar or a y0 of
    shape (1,) (the Riccati and angle equations) is stepped on Python
    floats, which saves the fixed cost of numpy calls on 1-element arrays;
    any other shape, a (1, m) batch included, runs the numpy loop. Both
    loops share the tableau, step-size rule, dense output, event contract
    and the finish that refines crossings and builds the result, and the
    field is called with a 1-element array either way. Escapes are refined
    inside their step, since they set the end state.
    """
    t_a, t_b = float(span[0]), float(span[1])
    if not t_b > t_a:
        raise ValueError("span must satisfy t_a < t_b")
    y = np.array(y0, dtype=float)
    if y.ndim == 0:
        y = y[None]
    if y.ndim > 2:
        raise ValueError("y0 must have shape (dim,) or (dim, m)")
    if max_step is None:
        max_step = (t_b - t_a) / 16.0
    if y.ndim == 2:
        return _array_loop(field_fn, y, t_a, t_b, tolerances, events, max_step, y.shape)
    if y.shape == (1,):
        one = _scalar_loop(field_fn, float(y[0]), t_a, t_b, tolerances, events, max_step)
    else:
        one = _array_loop(field_fn, y[:, None], t_a, t_b, tolerances, events, max_step, y.shape)
    return Trajectory(one.grid, one.states[:, :, 0],
                      [replace(ev, member=None) for ev in one.events], one.derivs[:, :, 0])


def _scalar_field(field_fn, t: float, y: float) -> float | None:
    """Field at the 1-component state y, as a float; None if it fails."""
    try:
        out = np.asarray(field_fn(t, np.array((y,))), dtype=float)
    except _FIELD_ERRORS:
        return None
    if out.shape != (1,):
        return None
    value = out.item()
    return value if math.isfinite(value) else None


def _scalar_loop(field_fn, y: float, t_a: float, t_b: float, tol: Tolerances,
                 events: Sequence[EventSpec], max_step: float) -> Trajectory:
    """integrate_ode for a one-component state, stepped on Python floats."""
    width = t_b - t_a
    f_now = _scalar_field(field_fn, t_a, y)
    if f_now is None:
        raise IntegrationError("field not evaluable at start", t_a)
    ts, ys, fs = [t_a], [y], [f_now]
    escapes: list[Event] = []
    pending: list[list[tuple]] = [[] for _ in events]  # as in _finish
    escape = tol.escape_magnitude
    live = abs(y) <= escape
    if not live:
        escapes.append(Event("escape", t_a, member=0))

    # initial step heuristic
    scale = tol.abs_tol + tol.rel_tol * abs(y)
    d0, d1 = abs(y / scale), abs(f_now / scale)
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else width / 100.0
    h = min(h, max_step, width)

    t = t_a
    carried: list[float] = []  # each event's value at t, once a step has ended there
    for _ in range(_MAX_STEPS):
        # the sliver guard keeps a 1-ulp remainder from looking like collapse
        if not live or t >= t_b - 1e-13 * width:
            break
        h = min(h, t_b - t)
        if h < _STEP_COLLAPSE * width:
            escapes.append(Event("escape", t, member=0))
            break

        k = [f_now]
        for c, row in zip(_C[1:], _A[1:]):
            ki = _scalar_field(field_fn, t + c * h, y + h * _dot(row, k))
            if ki is None:
                break
            k.append(ki)
        if len(k) < 7:  # a stage failed
            h *= 0.25
            continue

        y_new = y + h * _dot(_B5, k)
        ratio = h * _dot(_E, k) / (tol.abs_tol + tol.rel_tol * max(abs(y), abs(y_new)))
        err = math.sqrt(ratio * ratio)  # the RMS as the numpy loop takes it, overflow included
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

        # event scan: each event function gets the step's fresh subsamples
        # as lanes, states taken on the cubic as floats; the first sample is
        # the last one of the step before, whose values carry over
        if events:
            samples = _subsamples(t, t_new)
            fresh = samples[1:] if carried else samples
            lane_t, lane_y = np.array(fresh), np.array([[dense(tq) for tq in fresh]])
            scanned = []
            for i, spec in enumerate(events):
                head = [carried[i]] if carried else []
                g = head + np.asarray(spec.fn(lane_t, lane_y), dtype=float).reshape(-1).tolist()
                scanned.append(g[-1])
                subs, directions = [], []
                for sub in range(_EVENT_SUBSAMPLES):
                    ga, gb = g[sub], g[sub + 1]
                    # a strict sign change, or a landing on zero from a nonzero value
                    if ga == 0.0 or not (ga < 0 < gb or gb < 0 < ga or gb == 0.0):
                        continue
                    subs.append(sub)
                    directions.append(1 if gb > ga else -1)
                if subs:
                    cubic = np.array((y, f_now, y_new, f_new)).reshape(4, 1, 1)
                    pending[i].append((t, h, cubic, np.array(samples), np.array(subs),
                                       [0] * len(subs), directions))
            carried = scanned

        # escape by magnitude, refined on the dense output; it ends the solve
        if abs(y_new) > escape:
            g_esc = lambda tq: abs(dense(tq)) - escape
            te = float(_bisect_event(g_esc, t, t_new, tol.root_tol)) if g_esc(t) < 0 else t
            y_end = dense(te)
            f_end = _scalar_field(field_fn, te, y_end) if te > t else f_now
            if f_end is None:  # the field fails there: the cubic's own slope
                f_end = _hermite_rate((te - t) / h, h, y, y_new, f_now, f_new)
            escapes.append(Event("escape", te, member=0))
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
    # a one-member batch, whose member ends where its last node is
    return _finish(ts, ys, fs, (1, 1), events, pending, escapes, np.array(ts[-1:]), tol, t_b)


def _call_field(field_fn, t, y, shape):
    """Field at (t, y reshaped to shape), flattened; None if it fails."""
    try:
        out = np.asarray(field_fn(t, y.reshape(shape)), dtype=float)
    except _FIELD_ERRORS:
        return None
    if out.shape != shape or not np.isfinite(out).all():
        return None
    return out.reshape(-1)


def _array_loop(field_fn, y: np.ndarray, t_a: float, t_b: float, tol: Tolerances,
                events: Sequence[EventSpec], max_step: float,
                field_shape: tuple) -> Trajectory:
    """integrate_ode for a (dim, m) state, stepped on numpy arrays; the
    field sees states of field_shape, (dim, m) or the plain (dim,)."""
    dim, m = y.shape
    y = y.reshape(-1)  # flat working state, member index fastest

    def columns(a):
        return a.reshape(dim, m)

    width = t_b - t_a

    f_now = _call_field(field_fn, t_a, y, field_shape)
    if f_now is None:
        raise IntegrationError("field not evaluable at start", t_a)
    ts = [t_a]
    ys = [y.copy()]
    fs = [f_now.copy()]
    escapes: list[Event] = []
    pending: list[list[tuple]] = [[] for _ in events]  # as in _finish
    ends = np.full(m, t_a)

    live = np.abs(columns(y)).max(axis=0) <= tol.escape_magnitude
    n_live = int(live.sum())
    idle = np.flatnonzero(~live)  # retired members; their derivative is held at 0
    escapes.extend(Event("escape", t_a, member=int(j)) for j in idle)
    columns(f_now)[:, idle] = 0.0

    # initial step heuristic, the smallest over live members
    scale = tol.abs_tol + tol.rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean(columns(y / scale) ** 2, axis=0))
    d1 = np.sqrt(np.mean(columns(f_now / scale) ** 2, axis=0))
    usable = (d0 > 1e-5) & (d1 > 1e-5)
    h_member = np.where(usable, 0.01 * d0 / np.where(usable, d1, 1.0), width / 100.0)
    h = min(float(np.min(h_member[live], initial=width)), max_step, width)

    t = t_a
    k = np.empty((7, y.size))
    carried = None  # each event's values at t, once a step has ended there

    for _ in range(_MAX_STEPS):
        # the sliver guard keeps a 1-ulp remainder from looking like collapse
        if not n_live or t >= t_b - 1e-13 * width:
            break
        h = min(h, t_b - t)
        if h < _STEP_COLLAPSE * width:
            escapes.extend(Event("escape", t, member=int(j)) for j in np.flatnonzero(live))
            break

        k[0] = f_now
        failed_stage = False
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ k[:i])
            ki = _call_field(field_fn, t + _DP_C[i] * h, yi, field_shape)
            if ki is None:
                failed_stage = True
                break
            k[i] = ki
            if idle.size:
                columns(k[i])[:, idle] = 0.0
        if failed_stage:
            h *= 0.25
            continue

        y_new = y + h * (_DP_B5 @ k)  # same as stage-6 state (FSAL), kept explicit
        err_vec = h * (_DP_E @ k)
        scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        # worst member RMS; retired members have zero error
        ratio = err_vec / scale
        err = float(np.sqrt(np.add.reduce(columns(ratio * ratio), axis=0) / dim).max())

        if not np.isfinite(err):
            h *= 0.25
            continue
        if err > 1.0:
            h *= _step_factor(err)
            continue

        # accepted
        t_new = t + h
        if t_b - t_new < 1e-12 * width:
            t_new = t_b
        # FSAL stage is field(t_new, y_new); copy, k is overwritten on retries
        f_new = k[6].copy()
        step_cubic = np.array((y, f_now, y_new, f_new)).reshape(4, dim, m)

        # event scan on the dense output: one call per event over all the
        # members and subsamples; the first sample is the last one of the
        # step before, whose values carry over
        if events:
            samples = _subsamples(t, t_new)
            fresh = samples if carried is None else samples[1:]
            # per sample: its time, then the weights of y, f_now, y_new, f_new
            rows = np.array([(tq, *_hermite_weights((tq - t) / h, h)) for tq in fresh]).T
            # lane i * m + j is member j at fresh[i]; summing the stacked terms
            # over the first axis adds them in _hermite's order
            lane_y = np.add.reduce(rows[1:].reshape(4, 1, -1, 1) * step_cubic[:, :, None],
                                   axis=0).reshape(dim, -1)
            lane_t = rows[0].repeat(m)
            scanned = []
            for i, spec in enumerate(events):
                g = np.asarray(spec.fn(lane_t, lane_y), dtype=float).reshape(-1)
                if carried is not None:
                    g = np.concatenate((carried[i], g))
                g = g.reshape(-1, m)
                scanned.append(g[-1])
                sign = np.sign(g)
                turn = sign[:-1] * sign[1:]  # < 0 at a strict sign change, 0 next to a zero
                if turn.min() > 0:
                    continue
                ga, gb = g[:-1], g[1:]
                # a strict sign change, or a landing on zero from a nonzero value
                hit = ((turn < 0) | (gb == 0.0)) & (ga != 0.0) & live
                subs, js = np.nonzero(hit)
                if not js.size:
                    continue
                pending[i].append((t, h, step_cubic, np.array(samples), subs, js,
                                   np.where(gb[subs, js] > ga[subs, js], 1, -1)))
            carried = scanned

        # escape by magnitude, refined on the member's own cubic; the member
        # retires at that time with its state frozen there
        escaping = []
        if np.abs(y_new).max() > tol.escape_magnitude:
            escaping = np.flatnonzero(live & (np.abs(columns(y_new)).max(axis=0)
                                              > tol.escape_magnitude))
        f_row = f_new.copy() if len(escaping) else f_new
        for j in escaping:
            y0, f0, y1, f1 = step_cubic[:, :, j]
            g_esc = lambda tq: (float(np.max(np.abs(_hermite((tq - t) / h, h, y0, y1, f0, f1))))
                                - tol.escape_magnitude)
            te = float(_bisect_event(g_esc, t, t_new, tol.root_tol)) if g_esc(t) < 0 else t
            y_end = _hermite((te - t) / h, h, y0, y1, f0, f1)
            f_end = _call_field(field_fn, te, y_end, (dim,)) if te > t else f0
            if f_end is None:  # the field fails there: the cubic's own slope
                f_end = _hermite_rate((te - t) / h, h, y0, y1, f0, f1)
            escapes.append(Event("escape", te, member=int(j)))
            live[j] = False
            n_live -= 1
            ends[j] = te
            columns(y_new)[:, j] = y_end
            columns(f_row)[:, j] = f_end
        if len(escaping):
            idle = np.flatnonzero(~live)
            columns(f_new)[:, idle] = 0.0
            if not n_live:
                t_last = float(ends[escaping].max())
                if t_last > t:
                    ts.append(t_last)
                    ys.append(y_new)
                    fs.append(f_row)
                break

        ts.append(t_new)
        ys.append(y_new)
        fs.append(f_row)
        t, y, f_now = t_new, y_new, f_new

        h = min(h * _step_factor(err), max_step)
    else:
        raise IntegrationError("step budget exhausted", t)

    ends[live] = t
    return _finish(ts, ys, fs, (dim, m), events, pending, escapes, ends, tol, t_b)


def _finish(ts: list, ys: list, fs: list, shape: tuple, events: Sequence[EventSpec],
            pending: list, escapes: list, ends: np.ndarray, tol: Tolerances,
            t_b: float) -> Trajectory:
    """The batch Trajectory of either step loop. pending holds, per event,
    one record per step with crossings, in the order found: (t, h, the step
    cubic's (4, dim, m) columns y0, f0, y1, f1, the subsample times, and
    each crossing's subsample index, member and direction). Each event's
    crossings are refined in one lane solve and those past their member's
    end dropped; one stable sort by time merges them with the escapes,
    which come last, so at equal times a crossing comes first."""
    recorded: list[Event] = []
    for spec, steps in zip(events, pending):
        if not steps:
            continue
        lanes = [(np.full(len(js), t), np.full(len(js), h), cubic[:, :, js],
                  at[subs], at[subs + 1], js, directions)
                 for t, h, cubic, at, subs, js, directions in steps]
        t_l, h_l, cubic, a, b, js, directions = (np.concatenate(parts, axis=-1)
                                                 for parts in zip(*lanes))
        times = _refine_on_cubics(spec, t_l, h_l, cubic, a, b, tol.root_tol)
        recorded.extend(Event(spec.kind, te, d, j) for te, d, j
                        in zip(times.tolist(), directions.tolist(), js.tolist())
                        if te <= ends[j])
    recorded.extend(escapes)
    recorded.sort(key=lambda ev: ev.time)

    if len(ts) == 1:
        # every member ended at the very start; emit a degenerate short span
        ts.append(ts[0] + max((t_b - ts[0]) * 1e-15, 1e-300))
        ys.append(ys[0])
        fs.append(fs[0])
    return Trajectory(Grid(np.asarray(ts)), np.asarray(ys).reshape(-1, *shape), recorded,
                      np.asarray(fs).reshape(-1, *shape), ends)
