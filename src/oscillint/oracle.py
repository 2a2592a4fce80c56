"""Ground truth by simulation.

The analytic checks in `criteria` decide oscillation from coefficient data
alone. This module takes the opposite route: solve a finite ensemble of
initial conditions, record where each first component actually vanishes, and
summarize what was observed. Ensemble verdicts never override analytic ones;
they exist to catch bugs in the analytic path (and vice versa).

The chunked series solve that serves the ensemble also gives `criteria`
every conjugate point of the unforced companion from one walk over the
horizon (`angle_walk`). Every zero, blow-up time and level crossing is
found between two nodes and refined on the chunk's series by
`numerics.refine_roots`, a lane port of Brent's method, all of a solve's
node gaps in one call (`_gap_roots`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander

from .expr import DomainError, sample
from .numerics import STEP_COLLAPSE, Event, Tolerances, Trajectory, crossings, refine_roots
from .transform import SystemSpec

OSCILLATORY_OBSERVED = "oscillatory_observed"
NONOSCILLATORY_OBSERVED = "nonoscillatory_observed"
MIXED_OBSERVED = "mixed"

DEFAULT_ENSEMBLE_SIZE = 16
DEFAULT_SEED = 1729
DEFAULT_FINAL_WINDOW_FRACTION = 0.5


@dataclass(frozen=True)
class Ensemble:
    """A finite stand-in for "every solution": a list of start states.

    The default construction keeps the canonical basis members (1,0) and
    (0,1) first, then fills up with unit-circle directions drawn from the
    seed. Two members already span the solution space of the homogeneous
    problem; the extra directions exercise phases of the forced one.
    """

    initial_conditions: tuple[tuple[float, float], ...]
    seed: int
    span: tuple[float, float]

    def __post_init__(self):
        if len(self.initial_conditions) < 2:
            raise ValueError("ensemble needs at least two members")
        lo, hi = float(self.span[0]), float(self.span[1])
        if not lo < hi:
            raise ValueError("ensemble span must be increasing")
        object.__setattr__(self, "initial_conditions",
                           tuple((float(a), float(b))
                                 for a, b in self.initial_conditions))
        object.__setattr__(self, "span", (lo, hi))

    def __len__(self) -> int:
        return len(self.initial_conditions)


def default_ensemble(span: tuple[float, float], seed: int = DEFAULT_SEED,
                     size: int = DEFAULT_ENSEMBLE_SIZE) -> Ensemble:
    if size < 2:
        raise ValueError("ensemble size must be at least 2")
    members = [(1.0, 0.0), (0.0, 1.0)]
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size - 2)
    members.extend((math.cos(a), math.sin(a)) for a in angles)
    return Ensemble(tuple(members), seed, span)


@dataclass(frozen=True, eq=False)
class EmpiricalVerdict:
    """What the ensemble did, compressed to one label plus per-member data.

    oscillatory_observed: every active member's first component vanished
    inside the trailing window. nonoscillatory_observed: at least one active
    member recorded no zero there. mixed: nothing could be asserted (every
    member was the trivial solution).
    """

    outcome: str
    last_zero_per_member: tuple
    zero_counts: tuple
    window: tuple[float, float]
    trivial_members: tuple

    def __post_init__(self):
        if self.outcome not in (OSCILLATORY_OBSERVED, NONOSCILLATORY_OBSERVED,
                                MIXED_OBSERVED):
            raise ValueError(f"unknown outcome {self.outcome!r}")


def simulate_ensemble(sys: SystemSpec, ens: Ensemble,
                      tol: Tolerances = Tolerances()) -> list[Trajectory]:
    """One trajectory per member, with sign changes of phi recorded.

    The system is linear, so on a chunk [t, t + h] every member is
    a u + b v + w: (a, b) is its state at t, u and v solve the unforced
    system from (1, 0) and (0, 1), and w the forced one from (0, 0). Each
    chunk solves the three at once as Chebyshev series by collocation
    (Trefethen, Spectral Methods in MATLAB, ch. 6-7), from one `sample`
    call per coefficient. _chunk_walk makes a chunk at most 1/16 of the
    span, as a default integrate_ode step is, and halves it until each
    series' last coefficients are below rel_tol of its largest and u and v
    stay below _GROWTH. A member's state at a chunk's end starts it on the
    next.

    A member's nodes are _NODES evenly spaced points per chunk, its states
    the series there and its derivs the series' derivative. Its zeros are
    the sign changes of phi between nodes, a start at phi = 0 excluded,
    each refined on the series to root_tol. A member whose state passes
    escape_magnitude ends there, found on the series, with an escape
    event; a chunk that cannot be sampled or resolved down to 1e-12 of the
    span ends every running member at its start, with an escape.
    """
    lo, hi = ens.span
    start = np.array(ens.initial_conditions).T  # (2, m)
    state, m = start, start.shape[1]  # each member's state at t
    live = np.abs(start).max(axis=0) <= tol.escape_magnitude
    escaped = ~live  # the members that end with an escape event
    last = np.zeros(m, dtype=int)  # each member's last node, once it has ended
    blowup = np.full(m, -1)  # the node after which a member passes escape_magnitude
    chunks = []  # (start, end, member series, member states, member rates)
    walk, reached = _chunk_walk(sys, lo, hi, tol.rel_tol, (hi - lo) / 16.0), lo
    while live.any() and (chunk := next(walk, None)) is not None:
        t, reached, h, coef = chunk
        # an ended member's series, that of w, is never read
        series = coef @ np.vstack((np.where(live, state, 0.0), np.ones(m)))
        states, rates = _AT_NODES @ series, _RATE_AT_NODES @ series * (2.0 / h)
        end = series.sum(axis=1)  # every T_k is 1 at x = 1
        states[:, 0], states[:, -1] = state, end
        over = (np.abs(states[:, 1:]).max(axis=0) > tol.escape_magnitude) & live
        blown = over.any(axis=0)
        blowup[blown] = len(chunks) * _NODES + over.argmax(axis=0)[blown]
        last[blown] = blowup[blown] + 1
        escaped |= blown
        live &= ~blown
        chunks.append((t, reached, series, states, rates))
        state = end
    last[live] = len(chunks) * _NODES
    if reached < hi:  # the walk stopped early: every running member escapes there
        escaped |= live
    return _members(chunks, start, ens.span, last, escaped, blowup, tol)


def _chunk_walk(sys: SystemSpec, lo: float, hi: float, rel_tol: float, widest: float,
                take: Callable[[np.ndarray], object] = lambda coef: coef):
    """The chunks that cover [lo, hi] from lo, each solved as series: yield
    (t, t_end, h, take(coef)) for each chunk [t, t_end], h wide, with coef
    its _chunk_series coefficients; t_end is t + h, or exactly hi for the
    last chunk. The oracle and angle_walk both walk through here.

    A chunk is at most widest wide and takes the rest of the span when
    less than half a chunk would be left after it. It is halved while
    _chunk_series rejects it or take returns None, and the next chunk
    tries twice its width. The walk stops early where a chunk would be
    narrower than STEP_COLLAPSE of the span: a coefficient that cannot be
    sampled or resolved there.
    """
    t, h = lo, hi - lo
    while t < hi:
        h = min(h, hi - t, widest)
        if hi - t - h < 0.5 * h:  # no sliver chunk before the end
            h = hi - t
        if h < STEP_COLLAPSE * (hi - lo):
            return
        coef = _chunk_series(sys, t, h, rel_tol)
        piece = None if coef is None else take(coef)
        if piece is None:
            h *= 0.5
            continue
        t_end = hi if h == hi - t else t + h
        yield t, t_end, h, piece
        t, h = t_end, 2.0 * h


@dataclass(frozen=True, eq=False)
class AngleWalk:
    """rho = arg(v_phi + i u_phi) up to reached (angle_walk). rows[k]: (u_phi,
    v_phi) on chunk k as series, times a positive factor; z: them at the
    nodes, _NODES per chunk; steps: rho's turn over each node gap; rho at
    the nodes, unwrapped; doubt: a bound on rho's error at each node."""

    nodes: np.ndarray
    rows: np.ndarray
    z: np.ndarray
    steps: np.ndarray
    rho: np.ndarray
    doubt: np.ndarray
    reached: float

    def row_at(self, t: np.ndarray, node: np.ndarray) -> np.ndarray:
        """(u_phi, v_phi) at times t[i], on the chunk of node gap node[i]."""
        return _chunk_at(self.nodes, self.rows[node // _NODES], t, node)

    def descent(self, s: float, t: float) -> tuple[float, float] | None:
        """rho(s) - rho(t), summed from the turns between s and t, and the
        doubt in it, that from the start of s's chunk to the end of t's;
        None when the walk stopped before t."""
        if t > self.reached:
            return None
        gap = np.searchsorted(self.nodes[1:-1], (s, t), side="right")  # the gaps holding s, t
        into = _turn(self.z[gap], self.row_at(np.array((s, t)), gap))  # from the gaps' starts
        return (float(into[0] - into[1] - self.steps[gap[0]:gap[1]].sum()),
                float(self.doubt[gap[1] + 1] - self.doubt[gap[0] - gap[0] % _NODES]))

    def level_crossings(self, theta0: float, root_tol: float) -> list[float]:
        """Zeros of phi from (cos theta0, sin theta0), a start at 0 left out:
        one per level k pi - theta0 that rho falls below by more than its
        doubt, in the gap where rho first reaches it, refined on (-1)^k phi."""
        shifted = self.rho + theta0
        level = np.ceil(shifted[1:] / np.pi)  # the lowest level each gap reaches, k
        first = np.minimum.accumulate(shifted)[:-1] > np.pi * level
        high = np.minimum.accumulate((shifted + self.doubt)[::-1])[-2::-1]  # from each gap's end
        node = np.flatnonzero(first & (high < np.pi * level))
        start = np.array([math.cos(theta0), math.sin(theta0)]) * (-1.0) ** level[node, None]
        phi = lambda tq, lanes: np.sum(self.row_at(tq, node[lanes]) * start[lanes], axis=1)
        ends = [phi(self.nodes[node + j], np.arange(node.size)) for j in (0, 1)]
        return _gap_roots(phi, self.nodes, node, np.maximum(ends[0], np.finfo(float).tiny),
                          np.minimum(ends[1], 0.0), root_tol).tolist()


def angle_walk(sys: SystemSpec, lo: float, hi: float, rel_tol: float) -> AngleWalk:
    """The Pruefer angle rho = arg(v_phi + i u_phi) of unforced sys over [lo,
    hi], u and v the solutions from (1, 0) and (0, 1) at lo: rho' = -q det(u,
    v) / |(u_phi, v_phi)|^2. Where rho falls (q >= 0), every solution
    vanishes on [s, t] exactly when rho(s) - rho(t) >= pi, and the one from
    (cos theta0, sin theta0) where rho + theta0 is a multiple of pi.

    On a _chunk_walk with widest chunk the span, a chunk starts from the
    fundamental matrix at the last one's end, first row at unit length. Its
    doubt, over the row's least size, is the row's series tail plus the
    rounding in combining it, read before the second row, e^{int (s - p)}
    larger, can cancel. It is halved while the tail exceeds rel_tol of the
    row's end size, or rho rises at a later node step by more than the
    doubt (q < 0, or a half turn in a gap). The walk ends where rho rises
    at a first step, or before its doubt would pass _MOST_DOUBT; each turn
    adds some eps of rho to the doubt, its own and the sum's rounding."""
    carried, rows, doubt = np.eye(2), [], 0.0
    parts = [([lo], np.eye(2)[:1], [], [0.0])]  # nodes, z, steps, doubt

    def take(coef):
        series = coef[:, :, :2] @ carried  # (component, degree, column)
        end, at = series.sum(axis=1), _AT_NODES @ series[0]
        # u and v are resolved to rel_tol of their largest values, not the row's
        tail = np.abs(series[0, -_TAIL:]).max()
        if not tail <= rel_tol * math.hypot(*end[0]):
            return None
        rounding = _N * _EPS * (np.abs(coef[0, :, :2]) @ np.abs(carried)).sum(axis=0).max()
        own = (tail + rounding) / np.hypot(*at.T).min()  # the chunk's doubt
        step = _turn(at[:-1], at[1:])
        rises = ~(step <= own)
        return (series[0].T, at, step, end, own, rises[0]) if rises[0] or not rises[1:].any() \
            else None

    for t0, t1, _, (row, at, step, end, own, rises) in _chunk_walk(sys, lo, hi, rel_tol, hi - lo,
                                                                  take):
        # past a rise at a chunk's first step, halving would crawl into q < 0
        if rises or doubt + own > _MOST_DOUBT:
            break
        doubt += own
        rows.append(row)
        parts.append((np.linspace(t0, t1, _NODES + 1)[1:], at[1:], step, np.full(_NODES, doubt)))
        carried = end / math.hypot(*end[0])  # take reads the matrix set here
    nodes, z, steps, doubts = (np.concatenate(part) for part in zip(*parts))
    rho = 0.5 * math.pi + np.concatenate(([0.0], np.cumsum(steps)))
    doubts += np.arange(rho.size) * _EPS * (np.maximum.accumulate(np.abs(rho)) + np.pi)
    return AngleWalk(nodes, np.reshape(rows, (-1, 2, _N)), z, steps, rho, doubts, float(nodes[-1]))


def _turn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How far rho moves from rows a to rows b, (u_phi, v_phi) on the last axis."""
    return np.arctan2(b[..., 0] * a[..., 1] - b[..., 1] * a[..., 0],
                      a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])


_DEGREE = 32  # of each chunk's series
_TAIL = 4  # trailing coefficients of each series that the chunk test reads
# the largest coefficient u and v may reach on a chunk. A chunk's error is
# relative to its largest values, so a member that is small next to the
# chunk's dominant mode loses that much accuracy: one chunk over the span
# 30 of phi'' = phi moved zeros by 1e-3
_GROWTH = 1e4
# a member's nodes per chunk: with chunks of at most 1/16 of the span, the
# zero scan compares phi at points 1/1024 of the span apart
_NODES = 64
# the most doubt in rho a walk may carry: levels, pi apart, stay told apart
_MOST_DOUBT = math.pi / 4
_N = _DEGREE + 1
_EPS = np.finfo(float).eps
_X = np.cos(np.pi * np.arange(_N) / _DEGREE)  # Lobatto points, from 1 down to -1
_TO_COEF = np.linalg.inv(chebvander(_X, _DEGREE))  # values at _X to coefficients
_RATE = chebder(np.eye(_N))  # coefficients to those of the x-derivative
_EVEN = np.linspace(-1.0, 1.0, _NODES + 1)  # a chunk's nodes in x
_AT_NODES, _RATE_AT_NODES = chebvander(_EVEN, _DEGREE), chebvander(_EVEN, _DEGREE - 1) @ _RATE
# the collocation matrix: on each component's block the derivative at _X,
# less (h / 2) A on the diagonals of the four blocks; start rows at x = -1
_BLOCKS = np.kron(np.eye(2), chebvander(_X, _DEGREE - 1) @ _RATE @ _TO_COEF)
_I = np.arange(_N)
_DIAGONALS = (np.r_[_I, _I, _I + _N, _I + _N], np.r_[_I, _I + _N, _I, _I + _N])
_STARTS = [_N - 1, 2 * _N - 1]
_START_ROWS = np.eye(2 * _N)[_STARTS]


def _chunk_series(sys: SystemSpec, t: float, h: float, rel_tol: float) -> np.ndarray | None:
    """Coefficients of u, v and w on [t, t + h], shape (2, _DEGREE + 1, 3)
    for component, degree and solution; None when a coefficient cannot be
    sampled there or the chunk is not accepted."""
    ts = t + (_X + 1.0) * (0.5 * h)
    try:
        coeffs = 0.5 * h * np.array([sample(e, ts) for e in
                                     (sys.p, sys.q, sys.r, sys.s, sys.f, sys.g)])
    except DomainError:
        return None
    matrix = _BLOCKS.copy()
    matrix[_DIAGONALS] -= coeffs[:4].ravel()
    matrix[_STARTS] = _START_ROWS
    rhs = np.zeros((2 * _N, 3))
    rhs[:, 2] = coeffs[4:].ravel()
    rhs[_STARTS] = np.eye(2, 3)
    try:
        values = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite chunk is refused below
        coef = _TO_COEF @ values.reshape(2, _N, 3)
    size = np.abs(coef)
    scale = size.max(axis=(0, 1))
    resolved = size[:, -_TAIL:].max(axis=(0, 1)) <= rel_tol * scale
    return coef if np.isfinite(scale).all() and resolved.all() and scale[:2].max() <= _GROWTH \
        else None


def _chunk_at(nodes: np.ndarray, coef: np.ndarray, t: np.ndarray, node: np.ndarray):
    """Lane i's series, coefficients coef[i] (component, degree), at time
    t[i] on the chunk that holds the walk's node gap node[i], _NODES per
    chunk: the sum of c_k cos(k theta), x = cos(theta) the time in [-1, 1]."""
    first = node - node % _NODES
    lo, hi = nodes[first], nodes[first + _NODES]
    x = np.minimum(np.maximum((t - lo) * (2.0 / (hi - lo)) - 1.0, -1.0), 1.0)
    waves = np.cos(np.arccos(x)[:, None] * _I[:coef.shape[-1]])
    return np.sum(coef * waves[:, None], axis=-1)


def _gap_roots(value: Callable[[np.ndarray, np.ndarray], np.ndarray], nodes: np.ndarray,
               node: np.ndarray, first: np.ndarray, second: np.ndarray,
               root_tol: float) -> np.ndarray:
    """The time in each node gap [nodes[node[i]], nodes[node[i] + 1]] where
    value(tq, lanes) changes sign, by refine_roots. At a gap's two nodes it
    reads first[i] and second[i], the node values that found the change,
    not the series, which may differ from them in the last bits."""
    lo, hi = nodes[node], nodes[node + 1]
    return refine_roots(lambda tq, lanes: np.where(
        tq == lo[lanes], first[lanes],
        np.where(tq == hi[lanes], second[lanes], value(tq, lanes))), lo, hi, root_tol)


def _members(chunks: list, start: np.ndarray, span: tuple, last: np.ndarray,
             escaped: np.ndarray, blowup: np.ndarray, tol: Tolerances) -> list[Trajectory]:
    """Each member's Trajectory: its nodes up to node last[j] or, for a
    blow-up, up to node blowup[j] and then the time where its series
    passes escape_magnitude. The crossings of phi before last[j] and the
    blow-ups are refined on the series in one _gap_roots call."""
    if chunks:
        begin, finish = (np.array(ends) for ends in zip(*(c[:2] for c in chunks)))
        series = np.stack([c[2] for c in chunks])  # (chunk, component, degree, member)
        # _NODES evenly spaced per chunk, then the last end
        nodes = np.append(np.linspace(begin, finish, _NODES + 1, axis=1)[:, :-1], finish[-1])
        states, rates = (np.concatenate([c[k][:, :_NODES] for c in chunks]
                                        + [chunks[-1][k][:, _NODES:]], axis=1) for k in (3, 4))
    else:
        nodes, states, rates = np.array(span[:1]), start[:, None], np.zeros_like(start)[:, None]
    # lanes: the node a bracket starts at, the member, and the direction of
    # a crossing of phi, or 0 for a blow-up
    blown = np.flatnonzero(blowup >= 0)
    lanes = [(blowup[blown], blown, np.zeros(blown.size, dtype=int))]
    for j, k in enumerate(last):
        phi = states[0, :k + 1, j]
        pair = crossings(phi)
        lanes.append((pair, np.full(pair.size, j), np.where(phi[pair + 1] > phi[pair], 1, -1)))
    node, member, direction = (np.concatenate(parts) for parts in zip(*lanes))
    times = nodes[node]
    if node.size:
        chunk = node // _NODES
        coef = series[chunk, :, :, member]  # (lane, component, degree)

        def g(y, lanes):  # y: (lane, component)
            return np.where(direction[lanes] == 0,
                            np.abs(y).max(axis=1) - tol.escape_magnitude, y[:, 0])
        every = np.arange(node.size)
        at = lambda tq, lanes: _chunk_at(nodes, coef[lanes], tq, node[lanes])
        times = _gap_roots(lambda tq, lanes: g(at(tq, lanes), lanes), nodes, node,
                           g(states[:, node, member].T, every),
                           g(states[:, node + 1, member].T, every), tol.root_tol)
        end_states = at(times, every)
        end_rates = (_chunk_at(nodes, chebder(coef, axis=2), times, node)
                     / (finish - begin)[chunk, None] * 2.0)

    out = []
    for j, k in enumerate(last):
        mine = member == j
        events = [Event("zero-crossing", te, d) for te, d
                  in zip(times[mine].tolist(), direction[mine].tolist()) if d]
        ts, ys, fs = nodes[:k + 1], states[:, :k + 1, j].T, rates[:, :k + 1, j].T
        end = ts[-1]
        if blowup[j] >= 0:  # the blow-up lane comes first
            i = np.flatnonzero(mine)[0]
            end, k = times[i], blowup[j] + 1
            ts, ys, fs = ts[:k], ys[:k], fs[:k]
            if end > ts[-1]:
                ts = np.append(ts, end)
                ys, fs = np.vstack((ys, end_states[i])), np.vstack((fs, end_rates[i]))
            events = [ev for ev in events if ev.time <= end]
        if escaped[j]:
            events.append(Event("escape", float(end)))
        out.append(Trajectory.from_nodes(ts, ys, fs, events, span[1]))
    return out


def member_zero_times(traj: Trajectory) -> list[float]:
    return [ev.time for ev in traj.events if ev.kind == "zero-crossing"]


def _is_trivial(traj: Trajectory) -> bool:
    # the zero solution of an unforced system is exactly zero on the series
    return not np.any(traj.states)


def empirical_classification(
        trajectories: list[Trajectory],
        final_window_fraction: float = DEFAULT_FINAL_WINDOW_FRACTION) -> EmpiricalVerdict:
    """Classify simulated behavior by zeros inside the trailing window.

    A member that stopped early (escape) contributes whatever zeros it
    recorded; sign-definite blowup therefore reads as a non-oscillation
    witness. The identically-zero member is ignored: its first component
    has no sign changes to count.
    """
    if not trajectories:
        raise ValueError("no trajectories to classify")
    if not 0.0 < final_window_fraction <= 1.0:
        raise ValueError("final_window_fraction must lie in (0, 1]")
    starts = [float(traj.grid.nodes[0]) for traj in trajectories]
    if max(starts) - min(starts) > 1e-12 * (1.0 + abs(starts[0])):
        raise ValueError("trajectories must share a starting time")
    t_lo = starts[0]
    t_hi = max(float(traj.grid.nodes[-1]) for traj in trajectories)
    window_lo = t_hi - final_window_fraction * (t_hi - t_lo)

    zero_counts = []
    last_zeros = []
    trivial = []
    active_in_window = []
    for idx, traj in enumerate(trajectories):
        zeros = member_zero_times(traj)
        zero_counts.append(len(zeros))
        last_zeros.append(zeros[-1] if zeros else None)
        if _is_trivial(traj):
            trivial.append(idx)
            continue
        active_in_window.append(any(t >= window_lo for t in zeros))

    if not active_in_window:
        outcome = MIXED_OBSERVED
    elif all(active_in_window):
        outcome = OSCILLATORY_OBSERVED
    else:
        outcome = NONOSCILLATORY_OBSERVED
    return EmpiricalVerdict(outcome, tuple(last_zeros), tuple(zero_counts),
                            (window_lo, t_hi), tuple(trivial))


def export_trace(traj: Trajectory, path) -> None:
    """Write one member as CSV `t,phi,psi`, full double precision, LF endings."""
    if traj.dim != 2:
        raise ValueError("trace export expects a two-component trajectory")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,phi,psi\n")
        for t, row in zip(traj.grid.nodes, traj.states):
            fh.write(f"{t:.17g},{row[0]:.17g},{row[1]:.17g}\n")
