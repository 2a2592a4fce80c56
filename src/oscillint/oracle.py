"""Ground truth by simulation.

The analytic checks in `criteria` decide oscillation from coefficient data
alone. This module takes the opposite route: solve a finite ensemble of
initial conditions, record where each first component actually vanishes, and
summarize what was observed. Ensemble verdicts never override analytic ones;
they exist to catch bugs in the analytic path (and vice versa).

The chunked series solve that serves the ensemble also gives `criteria`
every conjugate point of the unforced companion from one walk over the
horizon (`angle_walk`), which reads only the unforced solutions of each
chunk's solve; the two walks of one spec and span share those solves.
Every zero, blow-up time and level crossing is found between two nodes
and refined on the chunk's series by `numerics.refine_roots`, a lane port
of Brent's method, all of a solve's node gaps in one call that starts from
the node values which found them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .expr import DomainError, sample
from .numerics import (STEP_COLLAPSE, Event, Tolerances, Trajectory, crossings, refine_roots,
                       short_span_end)
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
                      tol: Tolerances = Tolerances()) -> EnsembleRun:
    """The run of every member, with sign changes of phi recorded: an
    EnsembleRun, read as the sequence of the members' Trajectories.

    The system is linear, so on a chunk [t, t + h] every member is
    a u + b v + w: (a, b) is its state at t, u and v solve the unforced
    system from (1, 0) and (0, 1), and w the forced one from (0, 0). Each
    chunk solves the three at once as Chebyshev series by collocation
    (Trefethen, Spectral Methods in MATLAB, ch. 6-7), from one `sample`
    call per coefficient. _chunk_walk tries the whole span as one chunk,
    as the angle walk does, and halves a chunk until the three series pass
    _resolved; a chunk the angle walk of sys on the same span already
    solved (criteria._horizon) is not solved again. A member's state at a
    chunk's end starts it on the next.

    A member's nodes are evenly spaced on each chunk, _NODES per block of
    _NODES / _SPAN_GAPS of the span it covers, rounded up, so that no node
    gap is wider than 1/1024 of the span; its states are the series there
    and its derivs the series' derivative. Its zeros are the sign changes
    of phi between nodes, a start at phi = 0 excluded, each refined on the
    series to root_tol. A chunk wider than a block is also halved while a
    zero of a running member is off by more than root_tol by estimate:
    its series' tail over the change of phi across the zero's node gap,
    times the gap. A member whose state passes escape_magnitude ends there,
    found on the series, with an escape event; a chunk that cannot be
    sampled or resolved down to 1e-12 of the span ends every running
    member at its start, with an escape.

    The run keeps the series, the nodes and the states there, and what
    empirical_classification reads of each member. A member's
    Trajectory, with its rates at the nodes, is built when the run is
    first indexed or iterated: `--dump-traces` and library callers read
    them, the classification does not.
    """
    lo, hi = ens.span
    start = np.array(ens.initial_conditions).T  # (2, m)
    state, m = start, start.shape[1]  # each member's state at t
    live = np.abs(start).max(axis=0) <= tol.escape_magnitude
    escaped = ~live  # the members that end with an escape event
    last = np.zeros(m, dtype=int)  # each member's last node, once it has ended
    blowup = np.full(m, -1)  # the node after which a member passes escape_magnitude
    chunks = []  # (start, end, width, member series, member states)
    block = (hi - lo) * _NODES / _SPAN_GAPS  # the widest chunk with _NODES nodes

    def take(coef, h):
        if not _resolved(coef, tol.rel_tol, 3):
            return None
        # _NODES per block, rounded up, but not for the few ulps that
        # halving the rest of the span leaves over a multiple
        n = _NODES * math.ceil(h / block * (1.0 - 1e-12))
        weights = np.vstack((np.where(live, state, 0.0), np.ones(m)))
        series = coef @ weights  # an ended member's series, that of w, is never read
        at = _at_nodes(n)
        states = at @ series
        states[:, 0], states[:, -1] = state, series.sum(axis=1)  # every T_k is 1 at x = 1
        # a zero is off by about the state's error, its series' tail, over
        # phi's slope there. A chunk one block wide is kept on the tail test
        # alone, as every chunk once was, so that a zero where phi barely
        # changes sign cannot halve the walk to a stop
        phi, tail = states[0], np.abs(series[:, -_TAIL:]).max(axis=(0, 1))
        slow = tail * (h / n) > tol.root_tol * np.abs(np.diff(phi, axis=0))
        return None if n > _NODES and (crossings(phi) & slow & live).any() \
            else (n, series, states)

    walk, reached, count = _chunk_walk(sys, lo, hi, take), lo, 0
    while live.any() and (chunk := next(walk, None)) is not None:
        t, reached, h, (n, series, states) = chunk
        over = (np.abs(states[:, 1:]).max(axis=0) > tol.escape_magnitude) & live
        blown = over.any(axis=0)
        blowup[blown] = count + over.argmax(axis=0)[blown]
        last[blown] = blowup[blown] + 1
        escaped |= blown
        live &= ~blown
        chunks.append((t, reached, h, series, states))
        state, count = states[:, -1], count + n
    last[live] = count
    if reached < hi:  # the walk stopped early: every running member escapes there
        escaped |= live
    return EnsembleRun(chunks, start, ens.span, last, escaped, blowup, tol)


def _chunk_walk(sys: SystemSpec, lo: float, hi: float,
                take: Callable[[np.ndarray, float], object]):
    """The chunks that cover [lo, hi] from lo, each solved as series: yield
    (t, t_end, h, take(coef, h)) for each chunk [t, t_end], h wide, with coef
    its _chunk_series coefficients; t_end is t + h, or exactly hi for the
    last chunk. The oracle and angle_walk both walk through here, each with
    its own test in take.

    The first chunk tries the whole span. A chunk takes the rest of the
    span when less than half a chunk would be left after it. It is halved
    while _chunk_series fails or take returns None, and the next chunk
    tries twice its width. The walk stops early where a chunk would be
    narrower than STEP_COLLAPSE of the span: a coefficient that cannot be
    sampled or resolved there. Each solve is kept on sys outside its
    fields (as criteria._horizon keeps its record), by (t, h), for the last
    span walked only: a second walk of sys over [lo, hi] solves only the
    chunks that the first did not try, and the two try the same chunks
    until their tests first differ.
    """
    kept = sys.__dict__.setdefault("_solves", {})
    if (lo, hi) not in kept:
        kept.clear()
        kept[lo, hi] = {}
    solves, t, h = kept[lo, hi], lo, hi - lo
    while t < hi:
        h = min(h, hi - t)
        if hi - t - h < 0.5 * h:  # no sliver chunk before the end
            h = hi - t
        if h < STEP_COLLAPSE * (hi - lo):
            return
        if (t, h) not in solves:
            solves[t, h] = _chunk_series(sys, t, h)
        coef = solves[t, h]
        piece = None if coef is None else take(coef, h)
        if piece is None:
            h *= 0.5
            continue
        t_end = hi if h == hi - t else t + h
        yield t, t_end, h, piece
        t, h = t_end, 2.0 * h


def _sharing_solves(sys: SystemSpec) -> SystemSpec:
    """A copy of sys that keeps its chunk solves in sys's: a record kept on
    sys walks it, so that nothing sys keeps refers back to sys."""
    twin = replace(sys)
    twin.__dict__["_solves"] = sys.__dict__.setdefault("_solves", {})
    return twin


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
        first = node - node % _NODES
        return _chunk_at(self.rows[node // _NODES], t, self.nodes[first],
                         self.nodes[first + _NODES])

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
        return refine_roots(phi, self.nodes[node], self.nodes[node + 1], root_tol,
                            ends=(np.maximum(ends[0], np.finfo(float).tiny),
                                  np.minimum(ends[1], 0.0))).tolist()


def angle_walk(sys: SystemSpec, lo: float, hi: float, rel_tol: float) -> AngleWalk:
    """The Pruefer angle rho = arg(v_phi + i u_phi) of sys's unforced
    companion over [lo, hi], u and v the solutions from (1, 0) and (0, 1)
    at lo: rho' = -q det(u, v) / |(u_phi, v_phi)|^2. Where rho falls (q >=
    0), every solution vanishes on [s, t] exactly when rho(s) - rho(t) >=
    pi, and the one from (cos theta0, sin theta0) where rho + theta0 is a
    multiple of pi.

    On a _chunk_walk, a chunk starts from the fundamental matrix at the
    last one's end, first row at unit length. It reads u and v alone: a
    chunk passes _resolved on those two, whatever the forcing and w, so
    rho is the same for sys as for sys.homogeneous(), and the oracle finds
    the solves of the chunks tried (criteria._horizon). Its doubt, over
    the row's least size, is the row's series tail plus the rounding in
    combining it, read before the second row, e^{int (s - p)} larger, can
    cancel. It is halved while the tail exceeds rel_tol of the row's end
    size, or rho rises at a later node step by more than the doubt (q <
    0, or a half turn in a gap). The walk ends where rho rises at a first
    step, or before its doubt would pass _MOST_DOUBT; each turn adds some
    eps of rho to the doubt, its own and the sum's rounding."""
    carried, rows, doubt = np.eye(2), [], 0.0
    parts = [([lo], np.eye(2)[:1], [], [0.0])]  # nodes, z, steps, doubt

    def take(coef, _):
        if not _resolved(coef, rel_tol, 2):
            return None
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

    for t0, t1, _, (row, at, step, end, own, rises) in _chunk_walk(sys, lo, hi, take):
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
# nodes per chunk in the angle walk (AngleWalk.row_at finds a node's chunk
# by node // _NODES); in the oracle, nodes per block of _NODES / _SPAN_GAPS
# of the span that a chunk covers, rounded up
_NODES = 64
# the oracle's node gaps per span: its zero scan compares phi at points at
# most 1/_SPAN_GAPS of the span apart, however wide the chunk, and a chunk
# one block wide, as wide as chunks once were at most, keeps its nodes
_SPAN_GAPS = 1024
# the most doubt in rho a walk may carry: levels, pi apart, stay told apart
_MOST_DOUBT = math.pi / 4
_N = _DEGREE + 1
_EPS = np.finfo(float).eps


def _chebvander(x: np.ndarray, degree: int) -> np.ndarray:
    """T_0(x) .. T_degree(x) on a new last axis, by numpy.polynomial's
    chebvander recurrence; importing that package costs 0.8 MB resident."""
    v = np.empty((degree + 1,) + x.shape)
    v[0], v[1] = 1.0, x
    for k in range(2, degree + 1):
        v[k] = v[k - 1] * (2.0 * x) - v[k - 2]
    return np.moveaxis(v, 0, -1)


def _rate_matrix() -> np.ndarray:
    """Coefficients to those of the x-derivative, by numpy.polynomial's
    chebder recurrence on the identity."""
    c, rate = np.eye(_N), np.empty((_DEGREE, _N))
    for j in range(_DEGREE, 2, -1):
        rate[j - 1] = 2 * j * c[j]
        c[j - 2] += j * c[j] / (j - 2)
    rate[1], rate[0] = 4 * c[2], c[1]
    return rate


_X = np.cos(np.pi * np.arange(_N) / _DEGREE)  # Lobatto points, from 1 down to -1
_TO_COEF = np.linalg.inv(_chebvander(_X, _DEGREE))  # values at _X to coefficients
_RATE = _rate_matrix()  # coefficients to those of the x-derivative


@functools.cache
def _at_nodes(n: int) -> np.ndarray:
    """Coefficients to values at n + 1 evenly spaced nodes from x = -1 to 1."""
    return _chebvander(np.linspace(-1.0, 1.0, n + 1), _DEGREE)


_AT_NODES = _at_nodes(_NODES)  # at an angle walk chunk's nodes
# the collocation matrix: on each component's block the derivative at _X,
# less (h / 2) A on the diagonals of the four blocks; start rows at x = -1
_BLOCKS = np.kron(np.eye(2), _chebvander(_X, _DEGREE - 1) @ _RATE @ _TO_COEF)
_I = np.arange(_N)
_DIAGONALS = (np.r_[_I, _I, _I + _N, _I + _N], np.r_[_I, _I + _N, _I, _I + _N])
_STARTS = [_N - 1, 2 * _N - 1]
_START_ROWS = np.eye(2 * _N)[_STARTS]


def _chunk_series(sys: SystemSpec, t: float, h: float) -> np.ndarray | None:
    """Coefficients of u, v and w on [t, t + h], shape (2, _DEGREE + 1, 3)
    for component, degree and solution, from one sample call per
    coefficient and one collocation solve; None when p, q, r or s cannot
    be sampled there or the solve fails. w's series is NaN when f or g
    cannot be sampled or overflows there. LAPACK solves each column on its
    own, so u and v are the same bits whatever the forcing: those of
    sys.homogeneous()."""
    ts = t + (_X + 1.0) * (0.5 * h)
    try:
        values = np.array([sample(e, ts) for e in (sys.p, sys.q, sys.r, sys.s)])
    except DomainError:
        return None
    try:
        forcing = np.array([sample(e, ts) for e in (sys.f, sys.g)])
    except DomainError:
        forcing = np.full((2, _N), np.nan)
    with np.errstate(over="ignore"):  # a coefficient that overflows is refused here
        coeffs, forcing = 0.5 * h * values, 0.5 * h * forcing
    if not np.isfinite(coeffs).all():
        return None
    forced = np.isfinite(forcing).all()
    matrix = _BLOCKS.copy()
    matrix[_DIAGONALS] -= coeffs.ravel()
    matrix[_STARTS] = _START_ROWS
    rhs = np.zeros((2 * _N, 3))
    if forced:
        rhs[:, 2] = forcing.ravel()
    rhs[_STARTS] = np.eye(2, 3)
    try:
        values = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite chunk is refused by _resolved
        coef = _TO_COEF @ values.reshape(2, _N, 3)
    if not forced:
        coef[:, :, 2] = np.nan
    return coef


def _resolved(coef: np.ndarray, rel_tol: float, solutions: int) -> bool:
    """The chunk test on the first solutions series of coef, u, v and then
    w: each is finite, its last _TAIL coefficients are below rel_tol of its
    largest, and u and v stay below _GROWTH."""
    size = np.abs(coef[:, :, :solutions])
    scale = size.max(axis=(0, 1))
    resolved = size[:, -_TAIL:].max(axis=(0, 1)) <= rel_tol * scale
    return np.isfinite(scale).all() and resolved.all() and scale[:2].max() <= _GROWTH


def _chunk_at(coef: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Lane i's series, coefficients coef[i] (component, degree), at time
    t[i] on its chunk [lo[i], hi[i]]: the sum of c_k cos(k theta), x =
    cos(theta) the time in [-1, 1]."""
    x = np.minimum(np.maximum((t - lo) * (2.0 / (hi - lo)) - 1.0, -1.0), 1.0)
    waves = np.cos(np.arccos(x)[:, None] * _I[:coef.shape[-1]])
    return np.sum(coef * waves[:, None], axis=-1)


class _Facts(NamedTuple):
    """What empirical_classification reads of a run: the members' start,
    and per member its zero count, last zero (None without one), the end
    of its span and whether it is the trivial solution."""

    start: float
    zero_counts: list
    last_zeros: list
    ends: list
    trivial: list


class EnsembleRun(Sequence):
    """One simulate_ensemble run: a record of its members, and the sequence
    of their Trajectories, each built from the record when first read.

    The record holds each chunk's series, the nodes, every member's states
    there, its refined zeros and its end, and the facts the classification
    reads. The crossings of phi before each member's last node and the
    blow-ups are found at the nodes and refined on the series, all in one
    refine_roots call. A member runs through its nodes up to the last it
    reached, or for a blow-up up to the node before it passes
    escape_magnitude and then to the time its series does; its zeros are
    its crossings up to that end."""

    def __init__(self, chunks: list, start: np.ndarray, span: tuple, last: np.ndarray,
                 escaped: np.ndarray, blowup: np.ndarray, tol: Tolerances):
        if chunks:
            begin, finish, self._widths = (np.array(c) for c in zip(*(c[:3] for c in chunks)))
            self._bounds = np.append(begin, finish[-1])  # chunk k spans bounds[k], bounds[k + 1]
            self._series = np.stack([c[3] for c in chunks])  # (chunk, component, degree, member)
            # each chunk's evenly spaced nodes but its end, which starts the
            # next, then the last end
            counts = [c[4].shape[1] - 1 for c in chunks]
            self._first = np.cumsum([0] + counts)  # each chunk's first node, then the last node
            nodes = np.append(np.concatenate([np.linspace(t, t_end, n + 1)[:-1] for t, t_end, n
                                              in zip(begin, finish, counts)]), finish[-1])
            states = np.concatenate([c[4][:, :-1] for c in chunks] + [chunks[-1][4][:, -1:]],
                                    axis=1)
        else:
            nodes, states, self._series = np.array(span[:1]), start[:, None], None
        # lanes: the node a bracket starts at, the member, and the direction of
        # a crossing of phi, or 0 for a blow-up. The blow-ups come first, then
        # each member's crossings before its last node, member by member
        blown, phi = np.flatnonzero(blowup >= 0), states[0]  # phi: (node, member)
        owned = crossings(phi) & (np.arange(phi.shape[0] - 1)[:, None] < last)
        crossed, pair = np.nonzero(owned.T)
        node, member = np.concatenate((blowup[blown], pair)), np.concatenate((blown, crossed))
        direction = np.concatenate((np.zeros(blown.size, dtype=int),
                                    np.where(phi[pair + 1, crossed] > phi[pair, crossed], 1, -1)))
        times = nodes[node]
        if node.size:
            coef, lo, hi = self._on_chunks(node, member)

            def g(y, lanes):  # y: (lane, component)
                return np.where(direction[lanes] == 0,
                                np.abs(y).max(axis=1) - tol.escape_magnitude, y[:, 0])
            every = np.arange(node.size)
            times = refine_roots(
                lambda tq, lanes: g(_chunk_at(coef[lanes], tq, lo[lanes], hi[lanes]), lanes),
                nodes[node], nodes[node + 1], tol.root_tol,
                ends=[g(states[:, node + j, member].T, every) for j in (0, 1)])
        # each member's last node, and its end: that node's time, or a blow-up's
        self._top, self._ends = last.copy(), nodes[last]
        self._top[blown], self._ends[blown] = blowup[blown], times[:blown.size]
        zero = (direction != 0) & (times <= self._ends[member])
        self._zero_times, self._directions = times[zero].tolist(), direction[zero].tolist()
        zero_counts = np.bincount(member[zero], minlength=last.size).tolist()
        self._offsets = np.cumsum([0] + zero_counts).tolist()  # each member's first zero
        self._toward, self._nodes, self._states, self._blown = span[1], nodes, states, blown
        self._escaped, self._built = escaped.tolist(), [None] * last.size
        # a member that ends at its first node has Trajectory.from_nodes'
        # degenerate span; one is trivial when its states are zero up to node
        # last, which for a blow-up is the node past escape_magnitude
        nonzero, t0 = np.any(states, axis=0), float(nodes[0])  # nonzero: (node, member)
        self.facts = _Facts(
            t0, zero_counts,
            [self._zero_times[k - 1] if n else None
             for k, n in zip(self._offsets[1:], zero_counts)],
            [end if top or end > t0 else short_span_end(t0, span[1])
             for top, end in zip(self._top.tolist(), self._ends.tolist())],
            (~nonzero.any(axis=0) | (nonzero.argmax(axis=0) > last)).tolist())

    def _on_chunks(self, node: np.ndarray, member: np.ndarray) -> tuple:
        """For lanes i, the series of member[i] (component, degree) on the
        chunk that holds node gap node[i], and that chunk's two ends."""
        chunk = np.searchsorted(self._first, node, side="right") - 1
        return (self._series[chunk, :, :, member], self._bounds[chunk],
                self._bounds[chunk + 1])

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, j: int) -> Trajectory:
        j = range(len(self))[j]  # from the end when negative; IndexError past it
        if self._built[j] is None:
            self._built[j] = self._trajectory(j)
        return self._built[j]

    @functools.cached_property
    def _rates(self) -> tuple:
        """Every member's rates at the nodes, then each blown-up member's
        state and rate at its end, in the order of _blown."""
        if self._series is None:
            return np.zeros_like(self._states), None, None
        rates = [_at_nodes(n)[:, :_DEGREE] @ (_RATE @ series) * (2.0 / h) for n, series, h
                 in zip(np.diff(self._first).tolist(), self._series, self._widths)]
        rates = np.concatenate([r[:, :-1] for r in rates] + [rates[-1][:, -1:]], axis=1)
        coef, lo, hi = self._on_chunks(self._top[self._blown], self._blown)
        t = self._ends[self._blown]
        return (rates, _chunk_at(coef, t, lo, hi),
                _chunk_at(coef @ _RATE.T, t, lo, hi) / (hi - lo)[:, None] * 2.0)

    def _trajectory(self, j: int) -> Trajectory:
        rates, end_states, end_rates = self._rates
        top, end = self._top[j], float(self._ends[j])
        ts, ys, fs = self._nodes[:top + 1], self._states[:, :top + 1, j].T, rates[:, :top + 1, j].T
        if end > ts[-1]:  # a blow-up between two nodes
            i = np.searchsorted(self._blown, j)
            ts = np.append(ts, end)
            ys, fs = np.vstack((ys, end_states[i])), np.vstack((fs, end_rates[i]))
        first, stop = self._offsets[j], self._offsets[j + 1]
        events = [Event("zero-crossing", te, d) for te, d
                  in zip(self._zero_times[first:stop], self._directions[first:stop])]
        if self._escaped[j]:
            events.append(Event("escape", end))
        return Trajectory.from_nodes(ts, ys, fs, events, self._toward)


def member_zero_times(traj: Trajectory) -> list[float]:
    return [ev.time for ev in traj.events if ev.kind == "zero-crossing"]


def _facts(trajectories: list[Trajectory]) -> _Facts:
    """A run's facts, read off the events and states of its Trajectories."""
    starts = [float(traj.grid.nodes[0]) for traj in trajectories]
    if max(starts) - min(starts) > 1e-12 * (1.0 + abs(starts[0])):
        raise ValueError("trajectories must share a starting time")
    zeros = [member_zero_times(traj) for traj in trajectories]
    # the zero solution of an unforced system is exactly zero on the series
    return _Facts(starts[0], [len(z) for z in zeros], [z[-1] if z else None for z in zeros],
                  [float(traj.grid.nodes[-1]) for traj in trajectories],
                  [not np.any(traj.states) for traj in trajectories])


def empirical_classification(
        trajectories: Sequence[Trajectory],
        final_window_fraction: float = DEFAULT_FINAL_WINDOW_FRACTION) -> EmpiricalVerdict:
    """Classify simulated behavior by zeros inside the trailing window.

    The window is the trailing final_window_fraction of the span from the
    members' start to the latest end of theirs. A member that stopped
    early (escape) contributes whatever zeros it recorded; sign-definite
    blowup therefore reads as a non-oscillation witness. The
    identically-zero member is ignored: its first component has no sign
    changes to count. An EnsembleRun is classified from its record,
    without building a Trajectory; other Trajectories, which must share
    their start, from their events and states.
    """
    if not trajectories:
        raise ValueError("no trajectories to classify")
    if not 0.0 < final_window_fraction <= 1.0:
        raise ValueError("final_window_fraction must lie in (0, 1]")
    t_lo, zero_counts, last_zeros, ends, trivial = (
        trajectories.facts if isinstance(trajectories, EnsembleRun) else _facts(trajectories))
    t_hi = max(ends)
    window_lo = t_hi - final_window_fraction * (t_hi - t_lo)
    # zeros come in time order: a member's last is its latest
    active_in_window = [last is not None and last >= window_lo
                        for last, flat in zip(last_zeros, trivial) if not flat]
    if not active_in_window:
        outcome = MIXED_OBSERVED
    elif all(active_in_window):
        outcome = OSCILLATORY_OBSERVED
    else:
        outcome = NONOSCILLATORY_OBSERVED
    return EmpiricalVerdict(outcome, tuple(last_zeros), tuple(zero_counts),
                            (window_lo, t_hi), tuple(j for j, flat in enumerate(trivial) if flat))


def export_trace(traj: Trajectory, path) -> None:
    """Write one member as CSV `t,phi,psi`, full double precision, LF endings."""
    if traj.dim != 2:
        raise ValueError("trace export expects a two-component trajectory")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,phi,psi\n")
        for t, row in zip(traj.grid.nodes, traj.states):
            fh.write(f"{t:.17g},{row[0]:.17g},{row[1]:.17g}\n")
