"""Decision procedures for oscillation and non-oscillation on a horizon.

Four families of checks live here:

* a polar-angle test for homogeneous systems, read off one walk of the
  companion's Pruefer angle rho (`oracle.angle_walk`): the horizon test
  counts its level crossings, the zeros of phi; interval oscillation, its
  descent over a window, is checked inside the witness search,
* a feasibility scan for the shift parameter lam that certifies
  non-oscillation of a forced system from its homogeneous companion,
* a witness search that certifies oscillation from paired sign windows of
  the shifted forcing plus interval oscillation of the companion,
* a variational test for undamped second-order equations built on the
  quadratic functional of a test function over sign windows of the forcing.

Every verdict is horizon-qualified: "oscillatory" or "non_oscillatory" means
the relevant conditions were verified on [t0, T_max], not proved for all time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .expr import (
    Call,
    Constant,
    Expr,
    Mul,
    Sub,
    TimeVar,
    differentiate,
    eval_expr,
    sample,
)
from .numerics import (
    CubicHermiteCurve,
    Grid,
    Tolerances,
    definite_simpson,
    refine_roots,
)
from .oracle import angle_walk
from .transform import (
    DEFAULT_GRID_NODES,
    SIGN_SLACK,
    AlphaTrace,
    SecondOrderSpec,
    SystemSpec,
    alpha_lambda,
    probe_failure,
)

# the most doubt a window's descent may carry and still be decided
ANGLE_SLACK = 1e-6
FUNCTIONAL_SLACK = 1e-9
DEFAULT_SCAN_POINTS = 8
DEFAULT_LAMBDA_POINTS = 41
_ANGLE_NEEDS_Q = "; the angle test needs q >= 0"

OSCILLATORY = "oscillatory"
NON_OSCILLATORY = "non_oscillatory"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class Verdict:
    outcome: str
    horizon: tuple[float, float]
    evidence: dict = dataclass_field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        if self.outcome not in (OSCILLATORY, NON_OSCILLATORY, INCONCLUSIVE):
            raise ValueError(f"unknown outcome '{self.outcome}'")
        if self.outcome != INCONCLUSIVE and not self.evidence:
            raise ValueError("decisive verdicts must carry evidence")

    def decisive(self) -> bool:
        return self.outcome != INCONCLUSIVE


@dataclass(frozen=True)
class IntervalWitness:
    """Two ordered intervals plus the shift parameter that make the
    oscillation certificate work beyond some reference time."""

    s1: float
    t1: float
    s2: float
    t2: float
    lam: float
    sign_margins: tuple[float, float, float, float]
    osc_margins: tuple[float, float]

    def __post_init__(self):
        if not (self.s1 < self.t1 <= self.s2 < self.t2):
            raise ValueError("witness intervals must satisfy s1 < t1 <= s2 < t2")


@dataclass(frozen=True, eq=False)
class TestFunction:
    """C1 bridge vanishing at both interval endpoints, not identically zero."""

    __test__ = False  # not a pytest case

    u: Expr
    interval: tuple[float, float]

    def __post_init__(self):
        lo, hi = float(self.interval[0]), float(self.interval[1])
        if not lo < hi:
            raise ValueError("interval must be increasing")
        object.__setattr__(self, "interval", (lo, hi))
        if abs(eval_expr(self.u, lo)) > 1e-9 or abs(eval_expr(self.u, hi)) > 1e-9:
            raise ValueError("test function must vanish at both endpoints")
        probe = np.linspace(lo, hi, 33)
        if np.max(np.abs(sample(self.u, probe))) <= 1e-12:
            raise ValueError("test function must not vanish identically")


def half_sine_bridge(lo: float, hi: float) -> TestFunction:
    """Default test function sin(pi (t - lo) / (hi - lo)) on [lo, hi]."""
    length = hi - lo
    u = Call("sin", Mul(Constant(math.pi / length), Sub(TimeVar(), Constant(lo))))
    return TestFunction(u=u, interval=(lo, hi))


# ---------------------------------------------------------------------------
# Polar angle machinery


def _negative_q_verdict(sys: SystemSpec, lo: float, hi: float,
                        why: str = "") -> Verdict | None:
    """The inconclusive verdict for a q that dips below zero on [lo, hi]
    (probed at transform.PROBE_POINTS points), or None when q >= 0 there."""
    bad_t = probe_failure(sys.q, lo, hi, lambda q: q < -SIGN_SLACK)
    if bad_t is None:
        return None
    return Verdict(INCONCLUSIVE, (lo, hi),
                   notes=f"coupling coefficient q is negative at t = {bad_t:.6g}{why}")


def angle_line_crossings(sys: SystemSpec, span: tuple[float, float],
                         theta0: float = math.pi / 2,
                         tol: Tolerances = Tolerances()) -> list[float]:
    """Zeros of phi on the unforced solution from (cos theta0, sin theta0),
    where the phase angle started at theta0 crosses a vertical line: the
    level crossings of the companion's angle walk (oracle.angle_walk).
    Forcing terms play no part. Only crossings up to where the walk stopped
    are found; `horizon_nonoscillation_test` checks that it reached the end."""
    lo, hi = float(span[0]), float(span[1])
    if not lo < hi:
        raise ValueError("span must be increasing")
    return angle_walk(sys.homogeneous(), lo, hi, tol.rel_tol).level_crossings(theta0, tol.root_tol)


def horizon_nonoscillation_test(sys: SystemSpec, horizon: tuple[float, float],
                                tol: Tolerances = Tolerances()) -> Verdict:
    """Classify the homogeneous companion over the whole horizon.

    non_oscillatory when no angle-line crossing happens in the trailing half
    of the horizon; oscillatory when crossings recur in every window of a
    quarter of the horizon (the persistence width); inconclusive between the
    two, or when the chunk walk stops before the end of the horizon.
    """
    lo, hi = float(horizon[0]), float(horizon[1])
    if not lo < hi:
        raise ValueError("horizon must be increasing")
    return (_negative_q_verdict(sys, lo, hi, _ANGLE_NEEDS_Q)
            or _crossings_verdict(sys, lo, hi, tol))


def _crossings_verdict(sys: SystemSpec, lo: float, hi: float,
                       tol: Tolerances) -> Verdict:
    """The horizon test on [lo, hi] once q >= 0 has been probed there."""
    width = hi - lo
    persistence_window = 0.25 * width
    walk = angle_walk(sys.homogeneous(), lo, hi, tol.rel_tol)
    crossings, reached = walk.level_crossings(math.pi / 2, tol.root_tol), walk.reached
    if reached < hi:
        return Verdict(INCONCLUSIVE, (lo, hi),
                       evidence={"crossings": crossings, "stopped_at": reached},
                       notes=f"the angle solve stopped at t = {reached:.6g}, "
                             "before the end of the horizon")
    tail_start = hi - 0.5 * width
    tail = [t for t in crossings if t >= tail_start]
    fenced = [lo] + crossings + [hi]
    max_gap = float(np.max(np.diff(fenced))) if len(fenced) > 1 else width
    evidence = {"crossings": crossings, "tail_start": tail_start,
                "max_gap": max_gap, "persistence_window": persistence_window}
    if not tail:
        return Verdict(NON_OSCILLATORY, (lo, hi), evidence)
    if max_gap <= persistence_window:
        return Verdict(OSCILLATORY, (lo, hi), evidence)
    return Verdict(INCONCLUSIVE, (lo, hi), evidence,
                   notes="zeros neither vanish in the trailing window nor recur "
                         "in every persistence window")


# ---------------------------------------------------------------------------
# Shift-parameter feasibility


def lambda_feasibility(sys: SystemSpec, grid: Grid,
                       base_trace: AlphaTrace | None = None
                       ) -> tuple[float, float] | None:
    """Intersection over grid nodes of the two affine constraints on lam
    with [0, inf): alpha_lam >= 0 and r alpha_lam + g >= 0.

    alpha_lam = growth * lam + alpha_0 is affine in lam with positive slope,
    so each node contributes one lower bound from the first constraint and a
    single-signed bound from the second depending on sign(r).  One pass
    suffices; returns None when the interval is empty.
    """
    trace = alpha_lambda(sys, 0.0, grid) if base_trace is None else base_trace
    growth, alpha0 = trace.growth, trace.alpha
    # first constraint: growth * lam + alpha0 >= 0, growth > 0
    lam_lo = max(0.0, float(np.max(-(alpha0 + SIGN_SLACK) / growth)))
    lam_hi = math.inf

    # second constraint: (r growth) lam + (r alpha0 + g) >= 0
    coef = trace.r * growth
    offset = trace.r * alpha0 + trace.g + SIGN_SLACK
    pos = coef > SIGN_SLACK
    neg = coef < -SIGN_SLACK
    flat = ~pos & ~neg
    if np.any(pos):
        lam_lo = max(lam_lo, float(np.max(-offset[pos] / coef[pos])))
    if np.any(neg):
        lam_hi = min(lam_hi, float(np.min(-offset[neg] / coef[neg])))
    if np.any(flat) and np.min(offset[flat]) < 0.0:
        return None

    if lam_lo > lam_hi:
        return None
    return lam_lo, lam_hi


def check_nonoscillation(sys: SystemSpec, horizon: tuple[float, float],
                         grid_nodes: int = DEFAULT_GRID_NODES,
                         tol: Tolerances = Tolerances()) -> Verdict:
    """Certify non-oscillation of the forced system on the horizon.

    Needs q >= 0, a feasible shift parameter lam >= 0, and a non-oscillatory
    homogeneous companion; each requirement that fails makes the verdict
    inconclusive (the criterion is one-sided).
    """
    lo, hi = float(horizon[0]), float(horizon[1])
    grid = Grid.uniform(lo, hi, grid_nodes)
    negative_q = _negative_q_verdict(sys, lo, hi)
    if negative_q is not None:
        return negative_q
    base = alpha_lambda(sys, 0.0, grid)
    feasible = lambda_feasibility(sys, grid, base)
    if feasible is None:
        return Verdict(INCONCLUSIVE, (lo, hi),
                       notes="no nonnegative shift parameter satisfies both "
                             "sign constraints on the grid")
    homogeneous = _crossings_verdict(sys.homogeneous(), lo, hi, tol)
    if homogeneous.outcome != NON_OSCILLATORY:
        notes = "homogeneous companion is not non-oscillatory on the horizon"
        if homogeneous.notes:
            notes += f": {homogeneous.notes}"
        return Verdict(INCONCLUSIVE, (lo, hi),
                       evidence={"lambda_interval": feasible,
                                 "homogeneous": homogeneous.outcome},
                       notes=notes)
    lam_lo, lam_hi = feasible
    trace = base.at(lam_lo)
    margins = {
        "alpha_min": float(np.min(trace.alpha)),
        "forcing_min": float(np.min(trace.g_lambda)),
    }
    evidence = {"lambda_witness": lam_lo, "lambda_interval": (lam_lo, lam_hi),
                "margins": margins, "homogeneous": homogeneous.evidence}
    return Verdict(NON_OSCILLATORY, (lo, hi), evidence)


# ---------------------------------------------------------------------------
# Sign windows


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True in each row of a (k, n) mask, as the row, first
    and last node index of every run, ordered by row and then by node."""
    n = mask.shape[1]
    edges = np.diff(np.pad(mask.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    row, first = np.divmod(np.flatnonzero(edges == 1), n + 1)
    last = np.flatnonzero(edges == -1) % (n + 1) - 1
    return row, first, last


def _min_width(lo: float, hi: float) -> float:
    """Width a window on the horizon [lo, hi] must exceed; narrower ones
    are slivers and dropped."""
    return 1e-9 * (hi - lo)


def _refined_windows(curves: np.ndarray,
                     curve_at: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                     nodes: np.ndarray) -> list[list[tuple[float, float]]]:
    """Sign windows of each row of a stack of continuous curves, endpoints
    sharpened off-grid.

    curves holds the curves' values at the nodes, shape (c, k, n);
    curve_at(curve, rows, t) evaluates curve[i] of row rows[i] at t[i]. A
    window of a row is a maximal run of nodes where every curve of the row
    is >= -SIGN_SLACK. Grid nodes rarely hit the true sign-change times;
    interval tests need the full window (a half period, say), so each end
    next to a failing node moves, within that node gap, to the root of
    curve + SIGN_SLACK of each curve that fails there, the innermost root
    when several do; every end of every row in one vectorised solve.
    """
    holds = curves >= -SIGN_SLACK
    row, first, last = _runs(holds.all(axis=0))
    lo, hi = nodes[first], nodes[last]
    left = np.flatnonzero(first > 0)
    right = np.flatnonzero(last < len(nodes) - 1)
    # every window end next to a failing node, and that node
    ends = np.concatenate([left, right])
    outer = np.concatenate([first[left] - 1, last[right] + 1])
    # one root lane per end and curve that fails at its outer node
    failing, end = np.nonzero(~holds[:, row[ends], outer])
    if end.size:
        on_left = end < left.size
        lane_rows, below = row[ends[end]], np.where(on_left, outer[end], outer[end] - 1)
        roots = refine_roots(lambda t, i: curve_at(failing[i], lane_rows[i], t) + SIGN_SLACK,
                             nodes[below], nodes[below + 1], tol=1e-13)
        # innermost: the latest root of a left end, the earliest of a right one
        edge = np.full(ends.size, -np.inf)
        np.maximum.at(edge, end, np.where(on_left, roots, -roots))
        lo[left], hi[right] = edge[:left.size], -edge[left.size:]
    min_width = _min_width(nodes[0], nodes[-1])
    windows: list[list[tuple[float, float]]] = [[] for _ in range(curves.shape[1])]
    for r, a, b in zip(row, lo, hi):
        if b - a > min_width:
            windows[r].append((float(a), float(b)))
    return windows


def _window_pairs(first: list[tuple[float, float]],
                  second: list[tuple[float, float]],
                  min_width: float) -> list[tuple[float, float, float, float]]:
    """Candidate (s1, t1, s2, t2), earliest first: a window of first followed
    by a window of second, overlapping ones split at their overlap's middle;
    an overlap of at most min_width counts as none."""
    candidates = []
    for w1 in first:
        for w2 in second:
            if w2[1] <= w1[0]:
                continue
            if w1[1] <= w2[0] + min_width:
                pair = (w1[0], w1[1], max(w2[0], w1[1]), w2[1])
            else:
                shared_lo = max(w1[0], w2[0])
                shared_hi = min(w1[1], w2[1])
                mid = 0.5 * (shared_lo + shared_hi)
                pair = (w1[0], mid, mid, w2[1])
            s1, t1, s2, t2 = pair
            if t1 - s1 > min_width and t2 - s2 > min_width and t1 <= s2:
                candidates.append(pair)
    candidates.sort()
    return candidates


# ---------------------------------------------------------------------------
# Oscillation witness search


@dataclass(frozen=True, eq=False)
class _ShiftWindows:
    """Sign windows of alpha_lam and the shifted forcing for the lams of a
    grid that can pair windows, and the two curves as a function of
    (curve, row, t): curve 0 is alpha, curve 1 the forcing; with
    k = len(lams), rows [0, k) hold them negated, rows [k, 2k) as they are,
    one row per kept lam in each block."""

    lams: list[float]
    # per lam, the windows where both curves are <= 0 and where both are >= 0
    window_sets: list[tuple[list[tuple[float, float]], list[tuple[float, float]]]]
    curve_at: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _shift_windows(base: AlphaTrace, lambda_grid: Sequence[float]) -> _ShiftWindows:
    """Windows of every lam that can pair them, ordered by |lam|.

    alpha_lam = alpha_0 + (lam - lam_0) growth is affine in lam, so the
    traces of all lams are rows of one (lam, node) matrix (alpha_rows of the
    base trace, whose nodal samples every row reads). A lam whose alpha_lam
    is >= -SIGN_SLACK at no node, or <= SIGN_SLACK at none, is dropped
    before anything else is built: refinement only widens windows that
    already hold at the nodes, so such a lam has no window of one kind and
    pairs none. Dropping it changes no window of another lam, since each
    root lane is solved on its own. For the survivors the curves at the
    nodes come straight from the matrix, and one root solve sharpens the
    window ends of every row.
    """
    sys, ts = base.system, base.grid.nodes
    lams = sorted(dict.fromkeys(float(v) for v in lambda_grid), key=abs)
    traces = base.alpha_rows(lams)
    live = (traces.max(axis=1) >= -SIGN_SLACK) & (traces.min(axis=1) <= SIGN_SLACK)
    lams = [lam for lam, keep in zip(lams, live) if keep]
    k = len(lams)
    # traces is the one array over every lam; both curves of every kept lam
    # are filled into one stack in place
    curves = np.empty((2, 2 * k, len(ts)))
    alpha, forcing = curves[0, k:], curves[1, k:]
    alpha[:] = traces[live]
    np.multiply(base.r, alpha, out=forcing)
    forcing += base.g
    np.negative(curves[:, k:], out=curves[:, :k])
    rate = base.p * alpha
    rate += base.f
    alpha_curve = CubicHermiteCurve(ts, alpha.T, rate.T)

    def curve_at(curve: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = alpha_curve.columns_at(t, rows % k)
        on_forcing = curve == 1
        if on_forcing.any():
            tf = t[on_forcing]
            v[on_forcing] = sample(sys.r, tf) * v[on_forcing] + sample(sys.g, tf)
        return np.where(rows < k, -v, v)

    windows = _refined_windows(curves, curve_at, ts)
    return _ShiftWindows(lams, [(windows[i], windows[k + i]) for i in range(k)], curve_at)


def _scan_times(scan: Sequence[float] | None, lo: float, hi: float,
                reach: float) -> Sequence[float]:
    """The reference times a check scans: scan itself, or by default
    DEFAULT_SCAN_POINTS evenly spaced over [lo, lo + reach), reach capped at
    the horizon's width. An empty scan raises ValueError: a check over no
    reference time would be decisive with no evidence."""
    if scan is None:
        return np.linspace(lo, lo + min(reach, hi - lo), DEFAULT_SCAN_POINTS,
                           endpoint=False)
    if len(scan) == 0:
        raise ValueError("scan must hold at least one reference time")
    return scan


def _scan_pairs(window_sets: Sequence, scan: Sequence[float],
                horizon: tuple[float, float],
                value_at: Callable[[tuple[float, float]], object],
                holds: Callable[[object], bool]) -> tuple[list, float | None]:
    """The first window pair beyond each reference time of scan, in turn,
    whose windows both pass holds(value_at(window)): a list of
    (T, set index, (s1, t1, s2, t2), (value1, value2)) up to the first T
    that has no such pair, and that T (None when every T has one).

    window_sets holds (first, second) lists of disjoint windows in order,
    tried in turn; for each T both are cut to [T, inf) and paired earliest
    first by _window_pairs.
    value_at is asked once per distinct window across all T.
    """
    lo, hi = horizon
    min_width, value_at, found = _min_width(lo, hi), cache(value_at), []
    for T in map(float, scan):
        if not lo <= T < hi:
            raise ValueError("reference time must lie inside the horizon")
        for index, windows in enumerate(window_sets):
            first, second = ([(max(a, T), b) for a, b in side if b - max(a, T) > min_width]
                             for side in windows)
            pairs = _window_pairs(first, second, min_width)
            pair = next((p for p in pairs if holds(value_at(p[:2])) and holds(value_at(p[2:]))),
                        None)
            if pair is not None:
                found.append((T, index, pair, (value_at(pair[:2]), value_at(pair[2:]))))
                break
        else:
            return found, T
    return found, None


def find_interval_witness(sys: SystemSpec, T: float,
                          lambda_grid: Sequence[float],
                          horizon: tuple[float, float],
                          grid_nodes: int = DEFAULT_GRID_NODES,
                          tol: Tolerances = Tolerances()
                          ) -> IntervalWitness | None:
    """First witness of paired sign windows beyond T, scanning the shift
    parameter grid: check_oscillation with T the one reference time, so
    None also when q dips below zero on the horizon."""
    verdict = check_oscillation(sys, horizon, scan=[T], lambda_grid=lambda_grid,
                                grid_nodes=grid_nodes, tol=tol)
    return verdict.evidence["witnesses"][0][1] if verdict.decisive() else None


def default_lambda_grid(sys: SystemSpec, grid: Grid,
                        base_trace: AlphaTrace | None = None,
                        points: int = DEFAULT_LAMBDA_POINTS) -> list[float]:
    """Symmetric lam grid whose span makes the affine constraints attainable,
    always containing 0."""
    trace = alpha_lambda(sys, 0.0, grid) if base_trace is None else base_trace
    denom = float(np.max(np.abs(trace.r * trace.growth)))
    numer = float(np.max(np.abs(trace.g)))
    span = 1.0
    if denom > 1e-12:
        span = max(1.0, min(1e6, numer / denom))
    lams = np.linspace(-span, span, points)
    if not np.any(lams == 0.0):
        lams = np.append(lams, 0.0)
    return [float(v) for v in lams]


def check_oscillation(sys: SystemSpec, horizon: tuple[float, float],
                      scan: Sequence[float] | None = None,
                      lambda_grid: Sequence[float] | None = None,
                      grid_nodes: int = DEFAULT_GRID_NODES,
                      periodic: float | None = None,
                      tol: Tolerances = Tolerances(),
                      lambda_points: int = DEFAULT_LAMBDA_POINTS) -> Verdict:
    """Certify oscillation: a witness must exist beyond every scanned
    reference time.

    The scan defaults to 8 reference times over the first half of the
    horizon, or over one period when periodic is given (periodicity then
    extends the evidence to all later reference times); an empty scan
    raises ValueError. Without a lambda_grid, the default grid has
    lambda_points values; a lam that can pair no window is skipped
    (_shift_windows). Every window's descent is read off one walk of the
    companion over the horizon, made when the first window asks; no window
    past where that walk stops (oracle.angle_walk) is decided, even one a
    walk from the window's own start could read. Failure of this sufficient
    condition proves nothing, so the negative outcome is always
    inconclusive.
    """
    lo, hi = float(horizon[0]), float(horizon[1])
    scan = _scan_times(scan, lo, hi, periodic if periodic is not None else (hi - lo) / 2.0)
    negative_q = _negative_q_verdict(sys, lo, hi)
    if negative_q is not None:
        return negative_q
    grid = Grid.uniform(lo, hi, grid_nodes)
    base_trace = alpha_lambda(sys, 0.0, grid)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(sys, grid, base_trace, lambda_points)

    shift = _shift_windows(base_trace, lambda_grid)
    walk = cache(lambda: angle_walk(sys.homogeneous(), lo, hi, tol.rel_tol))  # on first use
    # a window passes when every solution of the companion vanishes on it, as
    # rho descends by pi there: short of it by no more than its doubt, which
    # must be at most ANGLE_SLACK; descent gives None where the walk stopped
    found, failed_at = _scan_pairs(
        shift.window_sets, scan, (lo, hi), lambda w: walk().descent(*w),
        lambda down: down is not None and down[1] <= ANGLE_SLACK
        and down[0] + down[1] >= math.pi)
    k = len(shift.lams)
    least = cache(lambda curve, row, a, b: float(np.min(shift.curve_at(
        np.full(65, curve), np.full(65, row), np.linspace(a, b, 65)))))
    witnesses = [
        (T, IntervalWitness(s1=s1, t1=t1, s2=s2, t2=t2, lam=shift.lams[i],
                            sign_margins=(least(0, i, s1, t1), least(1, i, s1, t1),
                                          least(0, k + i, s2, t2), least(1, k + i, s2, t2)),
                            osc_margins=(down1 - math.pi, down2 - math.pi)))
        for T, i, (s1, t1, s2, t2), ((down1, _), (down2, _)) in found]
    if failed_at is not None:
        return Verdict(INCONCLUSIVE, (lo, hi),
                       evidence={"witnesses": witnesses, "failed_at": failed_at},
                       notes=f"no interval witness beyond T = {failed_at:.6g}")
    notes = ""
    if periodic is not None:
        notes = (f"witnesses verified over one period ({periodic:g}); "
                 "periodicity extends them to all later reference times")
    return Verdict(OSCILLATORY, (lo, hi),
                   evidence={"witnesses": witnesses,
                             "lambda_grid_size": len(list(lambda_grid))},
                   notes=notes)


# ---------------------------------------------------------------------------
# Variational criterion for undamped second-order equations


def variational_functional(a: Expr, c: Expr, u: TestFunction) -> float:
    """Integral of c u^2 - a u'^2 over the test interval, u' symbolic."""
    du = differentiate(u.u)
    lo, hi = u.interval

    def integrand(ts: np.ndarray) -> np.ndarray:
        return (sample(c, ts) * sample(u.u, ts) ** 2
                - sample(a, ts) * sample(du, ts) ** 2)

    return definite_simpson(integrand, lo, hi)


def check_undamped_equation(eq: SecondOrderSpec, horizon: tuple[float, float],
                            scan: Sequence[float] | None = None,
                            grid_nodes: int = DEFAULT_GRID_NODES) -> Verdict:
    """Variational oscillation test for (a phi')' + c phi = d.

    For every scanned reference time there must be a window with d <= 0
    followed by one with d >= 0 on which the functional of the half-sine
    bridge is nonnegative.  Requires a genuinely undamped equation (b
    identically 0).
    """
    lo, hi = float(horizon[0]), float(horizon[1])
    scan = _scan_times(scan, lo, hi, (hi - lo) / 2.0)
    bad = probe_failure(eq.b, lo, hi, lambda b: np.abs(b) > SIGN_SLACK)
    if bad is not None:
        return Verdict(INCONCLUSIVE, (lo, hi),
                       notes=f"damping coefficient is nonzero at t = {bad:.6g}; "
                             "this test needs b identically 0")
    nodes = Grid.uniform(lo, hi, grid_nodes).nodes
    d_vals = sample(eq.d, nodes)
    # the one curve d, row 0 negated
    windows = _refined_windows(
        np.stack([-d_vals, d_vals])[None],
        lambda _, rows, ts: np.where(rows == 0, -1.0, 1.0) * sample(eq.d, ts), nodes)
    found, failed_at = _scan_pairs(
        [windows], scan, (lo, hi),
        lambda w: variational_functional(eq.a, eq.c, half_sine_bridge(*w)),
        lambda j: j >= -FUNCTIONAL_SLACK)
    records = [{"T": T, "windows": (pair[:2], pair[2:]), "functionals": functionals}
               for T, _, pair, functionals in found]
    if failed_at is not None:
        return Verdict(INCONCLUSIVE, (lo, hi),
                       evidence={"records": records, "failed_at": failed_at},
                       notes=f"no admissible window pair beyond T = {failed_at:.6g} "
                             "with nonnegative functionals")
    return Verdict(OSCILLATORY, (lo, hi), evidence={"records": records})
