"""Criteria tests: angle flow closed forms, feasibility, witnesses, functionals."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oscillint import criteria, oracle, transform
from oscillint.cli import load_config
from oscillint.criteria import (
    ANGLE_SLACK,
    INCONCLUSIVE,
    NON_OSCILLATORY,
    OSCILLATORY,
    SIGN_SLACK,
    IntervalWitness,
    TestFunction,
    Verdict,
    angle_line_crossings,
    check_nonoscillation,
    check_oscillation,
    check_undamped_equation,
    default_lambda_grid,
    find_interval_witness,
    half_sine_bridge,
    horizon_nonoscillation_test,
    lambda_feasibility,
    _min_width,
    _refined_windows,
    _runs,
    _shift_windows,
    _window_pairs,
    variational_functional,
)
from oscillint.expr import Mul, Constant, eval_expr, parse_text
from oscillint.numerics import Grid, Tolerances, integrate_ode, zero_crossing
from oscillint.oracle import _AT_NODES, _chunk_series, angle_walk
from oscillint.transform import (
    DEFAULT_GRID_NODES,
    SecondOrderSpec,
    SystemSpec,
    alpha_lambda,
    reduce_equation,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_system(p="0", q="0", r="0", s="0", f="0", g="0", t0=0.0):
    return SystemSpec(parse_text(p), parse_text(q), parse_text(r), parse_text(s),
                      parse_text(f), parse_text(g), t0)


def harmonic(g="0"):
    # phi'' + phi = forcing reduced to first order
    return make_system(q="1", r="-1", g=g)


def decaying_forced():
    # phi'' - phi = -exp(-t) reduced to first order
    return make_system(q="1", r="1", g="-exp(-t)")


def descent(sys_h, lo, hi):
    """How far the companion's angle rho descends over [lo, hi] on a walk
    from lo (oracle.angle_walk), and the doubt in it."""
    return angle_walk(sys_h, lo, hi, Tolerances().rel_tol).descent(lo, hi)


def rho_reference(sys, lo, times):
    """rho = arg(v_phi + i u_phi) at times, from DOP853 on the fundamental
    matrix (u, v) from the identity at lo, with rho itself integrated
    alongside: rho' = (v_phi u_phi' - u_phi v_phi') / (u_phi^2 + v_phi^2)."""
    def rhs(t, y):
        p, q, r, s = (eval_expr(e, t) for e in (sys.p, sys.q, sys.r, sys.s))
        u_phi, u_psi, v_phi, v_psi = y[:4]
        du, dv = (p * u_phi + q * u_psi, r * u_phi + s * u_psi), \
            (p * v_phi + q * v_psi, r * v_phi + s * v_psi)
        turn = (v_phi * du[0] - u_phi * dv[0]) / (u_phi ** 2 + v_phi ** 2)
        return [*du, *dv, turn]
    sol = solve_ivp(rhs, (lo, max(times)), [1.0, 0.0, 0.0, 1.0, math.pi / 2],
                    method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)
    assert sol.status == 0
    return [float(sol.sol(t)[4]) for t in times]


class TestIntervalOscillation:
    """Every solution vanishes on a window when the companion's angle rho
    descends by pi there (AngleWalk.descent), the test the witness search
    applies to each window."""

    def test_harmonic_on_half_period(self):
        half_period, doubt = descent(harmonic(), 0.0, math.pi)
        assert half_period == pytest.approx(math.pi, abs=1e-8)
        assert half_period + doubt >= math.pi and doubt <= ANGLE_SLACK

    def test_harmonic_on_short_interval(self):
        assert descent(harmonic(), 0.0, 3.0)[0] == pytest.approx(3.0, abs=1e-8)

    def test_exponential_equation_never_oscillates(self):
        # phi'' - phi = 0: rho = arg(sinh t + i cosh t) settles at pi/4
        assert descent(make_system(q="1", r="1"), 0.0, 10.0)[0] < math.pi / 2

    def test_half_periods_far_out_pass(self):
        # phi'' + phi = 0: every half period descends by exactly pi. Read
        # off the turns within the window, its descent carries no rounding
        # of rho's thousands of radians before it, only the series' error,
        # which its doubt covers
        walk = angle_walk(harmonic(), 0.0, 1000 * math.pi, Tolerances().rel_tol)
        for k in (1, 500, 998):
            down, doubt = walk.descent(k * math.pi, (k + 1) * math.pi)
            assert abs(down - math.pi) <= doubt <= ANGLE_SLACK

    def test_window_with_too_much_doubt_is_not_decided(self, monkeypatch):
        # phi'' + 4 phi = sin t: certified while each window's doubt stays
        # within ANGLE_SLACK, not once no doubt at all is allowed
        sys, horizon = make_system(q="1", r="-4", g="sin(t)"), (0.0, 25.0)
        assert check_oscillation(sys, horizon).outcome == OSCILLATORY
        monkeypatch.setattr(criteria, "ANGLE_SLACK", 0.0)
        assert check_oscillation(sys, horizon).outcome == INCONCLUSIVE

    def test_window_short_of_pi_by_more_than_its_doubt_fails(self):
        # bursty_coupling's companion from the zero at 3.5 pi: rho falls
        # 5.3e-7 short of pi by t = 11.79 (also per DOP853), while the
        # solution vanishing at 3.5 pi is still 0.66 away from its next zero
        config = load_config(CONFIG_DIR / "bursty_coupling.json")
        sys_h = config.working_system().homogeneous()
        walk = angle_walk(sys_h, *config.span(), config.tolerances.rel_tol)
        down, doubt = walk.descent(3.5 * math.pi, 11.79)
        assert math.pi - down > 5e-7 > 100 * doubt
        at_s, at_t = rho_reference(sys_h, 0.0, [3.5 * math.pi, 11.79])
        assert abs(down - (at_s - at_t)) <= 1e-8

    def test_negative_coupling_is_inconclusive(self):
        verdict = check_oscillation(make_system(q="-1", r="-1"), (0.0, 5.0))
        assert verdict.outcome == INCONCLUSIVE
        assert "q" in verdict.notes


class TestHorizonClassification:
    def test_harmonic_oscillates(self):
        verdict = horizon_nonoscillation_test(harmonic(), (0.0, 30.0))
        assert verdict.outcome == OSCILLATORY
        # default angle start pi/2 tracks the member with phi(0) = 0
        crossings = verdict.evidence["crossings"]
        expected = [k * math.pi for k in range(1, 10)]
        assert len(crossings) == len(expected)
        assert np.max(np.abs(np.array(crossings) - np.array(expected))) < 1e-6

    def test_exponential_equation_is_nonoscillatory(self):
        verdict = horizon_nonoscillation_test(make_system(q="1", r="1"), (0.0, 30.0))
        assert verdict.outcome == NON_OSCILLATORY
        assert verdict.evidence["crossings"] == []

    def test_frozen_angle_is_nonoscillatory(self):
        verdict = horizon_nonoscillation_test(make_system(), (0.0, 10.0))
        assert verdict.outcome == NON_OSCILLATORY

    def test_crossing_count_matches_direct_integration(self):
        sys = harmonic()
        crossings = angle_line_crossings(sys, (0.0, 20.0), theta0=0.0)
        traj = integrate_ode(sys.field(), [1.0, 0.0], (0.0, 20.0),
                             events=[zero_crossing(0)])
        direct = [ev.time for ev in traj.events if ev.kind == "zero-crossing"]
        assert len(crossings) == len(direct)
        assert np.max(np.abs(np.array(crossings) - np.array(direct))) < 1e-6


class TestAngleCrossingsAgainstScipy:
    """Angle-line crossings of the homogeneous companion against the zeros of
    phi that scipy's DOP853 finds as events on the linear system."""

    @pytest.mark.parametrize("name", ["forced_harmonic", "bursty_coupling"])
    @pytest.mark.parametrize("rel_tol, bound", [(None, 2e-6), (1e-10, 2e-7)])
    def test_crossing_times(self, name, rel_tol, bound):
        config = load_config(CONFIG_DIR / f"{name}.json")
        tol = config.tolerances
        if rel_tol is not None:
            tol = Tolerances(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        sys_h = config.working_system().homogeneous()
        span = config.span()
        crossings = angle_line_crossings(sys_h, span, tol=tol)
        # (cos, sin) of the default start angle pi/2; scipy looks for sign
        # changes only between its step ends, so no step may span two zeros
        reference = solve_ivp(sys_h.field(), span, [math.cos(math.pi / 2), 1.0],
                              method="DOP853", rtol=1e-13, atol=1e-14, max_step=0.1,
                              events=lambda t, y: y[0])
        assert reference.status == 0
        roots = reference.t_events[0]
        assert len(crossings) == len(roots) >= 8
        assert np.max(np.abs(np.array(crossings) - roots)) <= bound


class TestSeriesDescent:
    """The window descent of rho, read off one walk's Chebyshev series,
    against rho from DOP853 on the fundamental matrix."""

    @staticmethod
    def reference(sys_h, lo, hi, start=None):
        at_lo, at_hi = rho_reference(sys_h, lo if start is None else start, [lo, hi])
        return at_lo - at_hi

    @staticmethod
    def node_steps(coef):
        # rho's steps between a chunk's adjacent nodes, from the identity
        at = _AT_NODES @ coef[0, :, :2]
        return oracle._turn(at[:-1], at[1:])

    @pytest.mark.parametrize("name, sys_h, window", [
        ("harmonic", harmonic(), (0.3, 3.4)),
        ("bursty", make_system(q="0.05 + 150 * ((1 - cos(2 * t)) / 2)^20", r="-1"),
         (0.5, 9.0)),
        ("growing", make_system(q="1", r="25"), (0.0, 4.0)),
        ("decaying", make_system(p="-20", s="-20", q="1", r="-4"), (0.0, 6.0)),
        ("four_turns", make_system(q="9", r="-9"), (1.0, 6.0)),
    ])
    def test_against_dop853(self, name, sys_h, window):
        # a window read off a walk from 0, as the witness search reads it
        expected = self.reference(sys_h, *window, start=0.0)
        if name == "four_turns":
            assert expected > 4 * math.pi
        walk = angle_walk(sys_h, 0.0, window[1], Tolerances().rel_tol)
        assert abs(walk.descent(*window)[0] - expected) <= 1e-8

    def test_fast_swing_needs_no_split(self):
        # q = 900 swings rho through most of a half turn within 1/450 of
        # time, more than pi/2 in one of the 64 node gaps of the whole
        # window; it still only falls, so the one chunk holds
        sys_h, lo, hi = make_system(q="900", r="-1"), 0.0, 0.4
        coef = _chunk_series(sys_h, lo, hi - lo, 1e-8)
        assert coef is not None  # the series resolves the whole window
        steps = self.node_steps(coef)
        assert steps.min() < -math.pi / 2 and steps.max() <= 0.0
        walk = angle_walk(sys_h, lo, hi, 1e-8)
        assert len(walk.rows) == 1
        assert abs(walk.descent(lo, hi)[0] - self.reference(sys_h, lo, hi)) <= 1e-8

    def test_shrink_guard_splits_a_chunk(self):
        # p = s = -20: the fundamental matrix ends the window at e^-20 of
        # its start, too small for the chunk's error, which is relative to
        # its largest values, though the series passes the tail test
        sys_h, lo, hi = make_system(p="-20", s="-20", q="1", r="-4"), 0.0, 1.0
        coef = _chunk_series(sys_h, lo, hi - lo, 1e-8)
        assert coef is not None
        steps = self.node_steps(coef)
        assert steps.max() < 0.0
        walk = angle_walk(sys_h, lo, hi, 1e-8)
        assert len(walk.rows) > 1
        expected = self.reference(sys_h, lo, hi)
        assert abs(-steps.sum() - expected) > 1e-8  # read off the one chunk
        assert abs(walk.descent(lo, hi)[0] - expected) <= 1e-8

    def test_rising_angle_ends_the_walk(self):
        # q = sin t turns negative at pi, where rho starts to rise: chunks
        # are halved down to there and the walk ends, without crawling on
        chunks = []
        series = oracle._chunk_series
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_chunk_series", lambda *a: chunks.append(a) or series(*a))
            walk = angle_walk(make_system(q="sin(t)", r="-1"), 0.0, 6.0, 1e-8)
        assert walk.reached == pytest.approx(math.pi, abs=1e-5)
        assert len(chunks) < 100
        assert walk.descent(1.0, 4.0) is None
        # q < 0 from the start: no chunk is taken
        assert angle_line_crossings(make_system(q="-1", r="1"), (0.0, 5.0)) == []
        walk = angle_walk(make_system(q="-1", r="1"), 0.0, 5.0, 1e-8)
        assert walk.reached == 0.0 and walk.descent(0.0, 1.0) is None

    @pytest.mark.parametrize("sys_h", [make_system(q="1", r="25"),
                                       make_system(p="-3", r="1")],
                             ids=["growing", "uncoupled"])
    def test_flat_angle_does_not_end_the_walk(self, sys_h):
        # rho settles (at atan 5) or never moves (q = 0): its node steps are
        # rounding, some of them above zero
        walk = angle_walk(sys_h, 0.0, 30.0, 1e-8)
        assert walk.reached == 30.0
        assert np.diff(walk.rho).max() > 0.0


class TestSeriesCrossings:
    """Angle-line crossings read off the linear system's Chebyshev series,
    against closed forms."""

    @staticmethod
    def assert_zeros(crossings, expected):
        assert len(crossings) == len(expected)
        assert np.max(np.abs(np.array(crossings) - expected)) <= 1e-8

    def test_harmonic_from_an_offset_angle(self):
        # theta = 0.3 - t crosses -pi/2 - k pi at t = 0.3 + pi/2 + k pi
        crossings = angle_line_crossings(harmonic(), (0.0, 20.0), theta0=0.3)
        self.assert_zeros(crossings, 0.3 + math.pi / 2 + math.pi * np.arange(6))

    def test_fast_swings_cross_each_level_once(self):
        # phi'' = -900 phi: phi = 30 sin(30 t). rho passes each level at
        # speed 900, through more than pi/2 in one node gap of a chunk the
        # series resolves; falling by pi per half period, it crosses each
        # level in one gap only
        crossings = angle_line_crossings(make_system(q="900", r="-1"), (0.0, 5.0))
        self.assert_zeros(crossings, math.pi / 30 * np.arange(1, 48))

    def test_decaying_solution(self):
        # phi = exp(-20 t) sin(2 t) / 2: down to e^-600 by the end
        sys = make_system(p="-20", s="-20", q="1", r="-4")
        crossings = angle_line_crossings(sys, (0.0, 30.0))
        self.assert_zeros(crossings, math.pi / 2 * np.arange(1, 20))

    def test_growing_solution_never_vanishes(self):
        # phi'' = 25 phi grows like e^150 over the span; scaled on each
        # chunk the fundamental matrix stays in range, and rho settles at
        # atan 5 without reaching a level
        sys = make_system(q="1", r="25")
        walk = angle_walk(sys, 0.0, 30.0, Tolerances().rel_tol)
        assert walk.reached == 30.0 and walk.level_crossings(math.pi / 2, 1e-9) == []
        verdict = horizon_nonoscillation_test(sys, (0.0, 30.0))
        assert verdict.outcome == NON_OSCILLATORY
        assert verdict.evidence["crossings"] == []

    @pytest.mark.parametrize("hi", [20.0, 30.0])
    def test_angle_resting_on_a_level_never_crosses(self, hi):
        # p = -3, q = 0: the solution from (0, 1) has phi = 0 throughout and
        # rho rests on its level, pi / 2. The first row shrinks like e^-3t
        # against the second, and its rounding moves rho by some 1e-11,
        # back and forth across the level but never past its doubt
        sys = make_system(p="-3", r="1")
        walk = angle_walk(sys, 0.0, hi, Tolerances().rel_tol)
        assert walk.reached == hi and np.ptp(walk.rho) > 0.0
        assert walk.level_crossings(math.pi / 2, 1e-9) == []
        verdict = horizon_nonoscillation_test(sys, (0.0, hi))
        assert verdict.outcome == NON_OSCILLATORY
        assert verdict.evidence["crossings"] == []

    def test_walk_ends_before_its_doubt_passes_the_limit(self, monkeypatch):
        # p = -3, q = 0: each chunk's row shrinks by e^-11, its doubt 6e-10
        sys, horizon = make_system(p="-3", r="1"), (0.0, 30.0)
        whole = angle_walk(sys, *horizon, Tolerances().rel_tol)
        limit = whole.doubt[-1] / 2
        monkeypatch.setattr(oracle, "_MOST_DOUBT", limit)
        walk = angle_walk(sys, *horizon, Tolerances().rel_tol)
        assert 0.0 < walk.reached < horizon[1] and walk.doubt[-1] <= limit
        verdict = horizon_nonoscillation_test(sys, horizon)
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.evidence["stopped_at"] == walk.reached

    @pytest.mark.parametrize("span", [(5.0, 1.0), (2.0, 2.0), (0.0, math.nan)])
    def test_span_must_increase(self, span):
        with pytest.raises(ValueError, match="increasing"):
            angle_line_crossings(harmonic(), span)
        with pytest.raises(ValueError, match="increasing"):
            horizon_nonoscillation_test(harmonic(), span)


class TestOneWalkPerCheck:
    """One walk of the companion answers every conjugate-point question of
    a check: each window's descent and the zeros from any start angle. A
    check asks for each window's descent once, however many reference
    times find it."""

    def test_one_walk_serves_every_window_and_start(self, monkeypatch):
        walks, windows = [], []
        chunk_walk, window_descent = oracle._chunk_walk, oracle.AngleWalk.descent
        monkeypatch.setattr(oracle, "_chunk_walk",
                            lambda *a, **k: walks.append(a) or chunk_walk(*a, **k))
        monkeypatch.setattr(oracle.AngleWalk, "descent",
                            lambda walk, s, t: windows.append((s, t)) or window_descent(walk, s, t))
        # phi'' + 4 phi = sin t: sign windows of length pi against a half
        # period of pi / 2
        sys, horizon = make_system(q="1", r="-4", g="sin(t)"), (0.0, 25.0)
        assert check_oscillation(sys, horizon).outcome == OSCILLATORY
        assert len(walks) == 1 and len(set(windows)) > 2
        assert len(windows) == len(set(windows))

        # the unforced solution from (cos theta0, sin theta0) is
        # cos(2 t - d) times a constant, d = atan2(sin theta0 / 2, cos theta0)
        walks.clear()
        walk = angle_walk(sys.homogeneous(), *horizon, 1e-8)
        for theta0 in (0.0, 0.3, math.pi / 2):
            d = math.atan2(math.sin(theta0) / 2.0, math.cos(theta0))
            exact = (d + math.pi / 2 + math.pi * np.arange(-1, 17)) / 2.0
            exact = exact[(exact > 1e-9) & (exact < horizon[1])]
            crossings = walk.level_crossings(theta0, 1e-9)
            assert len(crossings) == len(exact) >= 15
            assert np.max(np.abs(np.array(crossings) - exact)) <= 1e-8
        assert len(walks) == 1


class TestAngleSolveStopsEarly:
    """The angle flow of q = 1, r = -1/(t - 3.3)^2 collapses just before
    t = 3.3, where zeros pile up; nothing past there may be read as
    'no zeros'."""

    @staticmethod
    def singular():
        return make_system(q="1", r="-1/(t-3.3)^2")

    def test_horizon_test_is_inconclusive(self):
        verdict = horizon_nonoscillation_test(self.singular(), (0.0, 10.0))
        assert verdict.outcome == INCONCLUSIVE
        assert 3.2 < verdict.evidence["stopped_at"] < 3.3
        assert "stopped" in verdict.notes

    def test_interval_test_is_inconclusive(self):
        # the descent over the first half, where the one window pair of the
        # unforced system begins, is unknown past t = 3.3: no witness
        assert descent(self.singular(), 0.0, 5.0) is None
        verdict = check_oscillation(self.singular(), (0.0, 10.0), scan=[0.0],
                                    lambda_grid=[0.0])
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.evidence == {"witnesses": [], "failed_at": 0.0}

    def test_crossings_stay_a_list(self):
        crossings = angle_line_crossings(self.singular(), (0.0, 10.0))
        assert isinstance(crossings, list)
        assert crossings and max(crossings) < 3.3

    def test_windows_the_solve_cannot_cross_are_no_witness(self):
        # both halves of the split window hold a singularity; a descent
        # measured only up to where the solve stopped proves nothing
        sys = make_system(q="1", r="-1/(t-3.3)^2 - 1/(t-8.3)^2")
        assert find_interval_witness(sys, 0.0, [0.0], (0.0, 10.0)) is None


class TestLambdaFeasibility:
    def test_decaying_forced_lower_bound(self):
        sys = decaying_forced()
        grid = Grid.uniform(0.0, 30.0, 2048)
        interval = lambda_feasibility(sys, grid)
        assert interval is not None
        assert interval[0] == pytest.approx(1.0, abs=1e-6)
        assert math.isinf(interval[1])

    def test_everything_nonnegative_admits_zero(self):
        sys = make_system(q="1", r="t", f="t^2", g="1")
        interval = lambda_feasibility(sys, Grid.uniform(0.0, 10.0, 513))
        assert interval is not None
        assert interval[0] == 0.0

    def test_unsatisfiable_flat_constraint(self):
        sys = make_system(q="1", g="-1")
        assert lambda_feasibility(sys, Grid.uniform(0.0, 5.0, 257)) is None

    def test_agrees_with_brute_force_scan(self):
        sys = decaying_forced()
        grid = Grid.uniform(0.0, 10.0, 513)
        interval = lambda_feasibility(sys, grid)
        ts = grid.nodes
        from oscillint.transform import alpha_lambda
        base = alpha_lambda(sys, 0.0, grid)
        from oscillint.expr import sample
        r_vals = sample(sys.r, ts)
        g_vals = sample(sys.g, ts)
        for lam in np.linspace(0.0, 3.0, 400):
            alpha = base.growth * lam + base.alpha
            ok = (np.min(alpha) >= -1e-12
                  and np.min(r_vals * alpha + g_vals) >= -1e-12)
            inside = interval is not None and interval[0] <= lam <= interval[1]
            assert ok == inside, lam


class TestNonoscillationCheck:
    def test_decaying_forced_certified(self, monkeypatch):
        probed = []
        probe = criteria.probe_failure
        monkeypatch.setattr(criteria, "probe_failure",
                            lambda coef, *a: probed.append(coef) or probe(coef, *a))
        verdict = check_nonoscillation(decaying_forced(), (0.0, 30.0))
        assert verdict.outcome == NON_OSCILLATORY
        assert verdict.evidence["lambda_witness"] == pytest.approx(1.0, abs=1e-6)
        # the horizon test on the companion does not probe q again
        assert probed == [decaying_forced().q]

    def test_forced_harmonic_inconclusive(self):
        verdict = check_nonoscillation(harmonic(g="sin(t)"), (0.0, 30.0))
        assert verdict.outcome == INCONCLUSIVE

    def test_negative_coupling_inconclusive(self):
        verdict = check_nonoscillation(make_system(q="-1"), (0.0, 10.0))
        assert verdict.outcome == INCONCLUSIVE
        assert "q" in verdict.notes

    def test_oscillatory_companion_inconclusive(self):
        # homogeneous harmonic: feasibility trivially holds, companion swings
        verdict = check_nonoscillation(harmonic(), (0.0, 30.0))
        assert verdict.outcome == INCONCLUSIVE
        assert "companion" in verdict.notes


class TestSignWindows:
    """_refined_windows: the runs of the nodes where every curve is at least
    -SIGN_SLACK, each end next to a failing node sharpened to the root
    between the two nodes of the curve that fails there, the innermost root
    when several fail."""

    @staticmethod
    def windows(curves, nodes):
        # the windows of one row holding one curve, or a tuple of curves
        curves = curves if isinstance(curves, tuple) else (curves,)
        return _refined_windows(np.stack([c(nodes) for c in curves])[:, None],
                                lambda curve, rows, t: np.choose(curve, [c(t) for c in curves]),
                                nodes)[0]

    @staticmethod
    def held_at(points):
        # a margin of +1 at the given times and -1 everywhere else: its sign
        # runs have no width around a node
        return lambda t: np.where(np.isin(t, points), 1.0, -1.0)

    def test_sine_positive_window(self):
        nodes = Grid.uniform(0.0, 2.0 * math.pi, 257).nodes
        windows = self.windows(np.sin, nodes)
        assert len(windows) == 1
        assert windows[0][0] == 0.0
        assert windows[0][1] == pytest.approx(math.pi, abs=1e-11)

    def test_zero_values_cover_whole_span(self):
        nodes = Grid.uniform(0.0, 1.0, 65).nodes
        assert self.windows(np.zeros_like, nodes) == [(0.0, 1.0)]

    def test_linear_negative_window(self):
        nodes = Grid.uniform(0.0, 2.0, 201).nodes
        windows = self.windows(lambda t: 1.0 - t, nodes)
        assert len(windows) == 1
        # the end is the root of the margin plus SIGN_SLACK
        assert windows[0] == (0.0, pytest.approx(1.0 + SIGN_SLACK, abs=1e-13))

    def test_singletons_dropped(self):
        nodes = Grid.uniform(0.0, 4.0, 5).nodes
        assert self.windows(self.held_at([1.0]), nodes) == []

    def test_no_node_inside(self):
        nodes = Grid.uniform(0.0, 4.0, 5).nodes
        assert self.windows(lambda t: -np.ones_like(t), nodes) == []

    def test_single_node_runs_at_both_ends_dropped(self):
        nodes = Grid.uniform(0.0, 4.0, 5).nodes
        # held at the first node and on [2, 3]: only [2, 3] has width
        first = self.held_at([0.0])
        windows = self.windows(lambda t: np.where((t >= 2.0) & (t <= 3.0), 1.0,
                                                  first(t)), nodes)
        assert len(windows) == 1
        assert np.allclose(windows[0], (2.0, 3.0), rtol=0.0, atol=1e-12)
        assert self.windows(self.held_at([0.0, 2.0, 4.0]), nodes) == []
        assert self.windows(self.held_at([1.0, 3.0]), nodes) == []

    def test_overlapping_runs_end_on_the_failing_curve(self):
        nodes = Grid.uniform(0.0, 4.0, 41).nodes
        # the first curve holds up to 3.05, the second from 1.05: at node 1.0
        # only the second fails, at node 3.1 only the first
        windows = self.windows((lambda t: 3.05 - t, lambda t: t - 1.05), nodes)
        assert len(windows) == 1
        assert windows[0][0] == pytest.approx(1.05 - SIGN_SLACK, abs=1e-13)
        assert windows[0][1] == pytest.approx(3.05 + SIGN_SLACK, abs=1e-13)

    def test_ends_where_both_curves_fail_take_the_innermost_root(self):
        nodes = Grid.uniform(0.0, 3.0, 31).nodes
        # both fail at nodes 1.0 and 2.0 and hold at 1.1 and 1.9; the second
        # curve's roots, 1.07 and 1.93, lie inside the first's
        windows = self.windows((lambda t: (t - 1.03) * (1.97 - t),
                                lambda t: (t - 1.07) * (1.93 - t)), nodes)
        assert len(windows) == 1
        assert windows[0] == pytest.approx((1.07, 1.93), abs=1e-11)

    def test_runs_that_share_no_node_give_no_window(self):
        nodes = Grid.uniform(0.0, 2.0, 21).nodes
        # the curves both hold on [1.02, 1.04], between nodes 1.0 and 1.1,
        # but at no node, so no run starts there
        assert self.windows((lambda t: 1.04 - t, lambda t: t - 1.02), nodes) == []


class TestRuns:
    def test_all_true(self):
        row, first, last = _runs(np.ones((1, 6), dtype=bool))
        assert (row.tolist(), first.tolist(), last.tolist()) == ([0], [0], [5])

    def test_all_false(self):
        row, first, last = _runs(np.zeros((2, 6), dtype=bool))
        assert row.size == first.size == last.size == 0

    def test_alternating_gives_single_node_runs(self):
        mask = np.array([[True, False, True, False, True]])
        row, first, last = _runs(mask)
        assert first.tolist() == last.tolist() == [0, 2, 4]
        assert row.tolist() == [0, 0, 0]

    def test_rows_are_independent(self):
        # a run ending a row must not join one starting the next
        mask = np.array([[False, True, True],
                         [True, True, False],
                         [True, False, True]])
        row, first, last = _runs(mask)
        assert list(zip(row.tolist(), first.tolist(), last.tolist())) == [
            (0, 1, 2), (1, 0, 1), (2, 0, 0), (2, 2, 2)]


class TestWindowPairs:
    def test_pairing_scales_with_the_windows(self):
        # windows overlapping by 5e-4 are split at the middle of the overlap
        # at any scale: an absolute sliver tolerance of 1e-9 took the overlap
        # of the same windows x 1e-6 for none
        pairs = [np.array(_window_pairs([(0.0, scale)], [(0.9995 * scale, 2.0 * scale)],
                                        _min_width(0.0, 2.0 * scale))) / scale
                 for scale in (1.0, 1e-6)]
        assert np.allclose(pairs[0], [(0.0, 0.99975, 0.99975, 2.0)], rtol=0.0, atol=1e-15)
        assert np.allclose(pairs[1], pairs[0], rtol=0.0, atol=1e-12)


class TestWitnessSearch:
    def test_forced_harmonic_witness_pattern(self):
        sys = harmonic(g="sin(t)")
        witness = find_interval_witness(sys, 0.0, [0.0], (0.0, 4.0 * math.pi))
        assert witness is not None
        assert witness.lam == 0.0
        expected = (math.pi, 2 * math.pi, 2 * math.pi, 3 * math.pi)
        got = (witness.s1, witness.t1, witness.s2, witness.t2)
        assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-9
        assert min(witness.osc_margins) > -1e-6
        assert min(witness.sign_margins) > -1e-9

    def test_homogeneous_oscillatory_degenerate_windows(self):
        witness = find_interval_witness(harmonic(), 0.0, [0.0], (0.0, 4.0 * math.pi))
        assert witness is not None
        # equalities hold everywhere, so the span splits into two halves
        assert witness.t1 == witness.s2

    def test_nonoscillatory_equation_has_no_witness(self):
        sys = decaying_forced()
        grid = Grid.uniform(0.0, 10.0, 513)
        lams = default_lambda_grid(sys, grid)
        assert find_interval_witness(sys, 0.0, lams, (0.0, 10.0),
                                     grid_nodes=513) is None

    def test_witness_ordering_validated(self):
        with pytest.raises(ValueError, match="s1 < t1"):
            IntervalWitness(1.0, 0.5, 2.0, 3.0, 0.0, (0, 0, 0, 0), (0, 0))


class TestOscillationCheck:
    def test_forced_harmonic_oscillatory(self):
        verdict = check_oscillation(harmonic(g="sin(t)"), (0.0, 16.0 * math.pi))
        assert verdict.outcome == OSCILLATORY
        witnesses = verdict.evidence["witnesses"]
        assert len(witnesses) == 8
        for _, witness in witnesses:
            for endpoint in (witness.s1, witness.t1, witness.s2, witness.t2):
                assert abs(endpoint / math.pi - round(endpoint / math.pi)) < 1e-3

    def test_decaying_forced_inconclusive(self):
        verdict = check_oscillation(decaying_forced(), (0.0, 20.0))
        assert verdict.outcome == INCONCLUSIVE

    def test_sign_changing_coupling_inconclusive(self):
        verdict = check_oscillation(make_system(q="cos(t)", r="-1"), (0.0, 20.0))
        assert verdict.outcome == INCONCLUSIVE
        assert "q" in verdict.notes

    def test_periodic_mode_notes_extension(self):
        verdict = check_oscillation(harmonic(g="sin(t)"), (0.0, 16.0 * math.pi),
                                    periodic=2.0 * math.pi)
        assert verdict.outcome == OSCILLATORY
        assert "period" in verdict.notes

    def test_empty_scan_raises(self):
        # phi'' - phi = -exp(-t) is non-oscillatory: a scan over no reference
        # time must not read as oscillatory
        with pytest.raises(ValueError, match="scan"):
            check_oscillation(decaying_forced(), (0.0, 30.0), scan=[])

    def test_monotone_in_horizon(self):
        sys = harmonic(g="sin(t)")
        scan = [0.0, math.pi / 2, math.pi]
        short = check_oscillation(sys, (0.0, 8.0 * math.pi), scan=scan)
        long = check_oscillation(sys, (0.0, 16.0 * math.pi), scan=scan)
        assert short.outcome == OSCILLATORY
        assert long.outcome == OSCILLATORY


class TestWindowSharing:
    """check_oscillation builds the sign windows once for all reference
    times; a search from scratch at each reference time must agree."""

    @pytest.mark.parametrize("name", ["forced_harmonic", "bursty_coupling"])
    def test_witnesses_match_fresh_searches(self, name):
        config = load_config(CONFIG_DIR / f"{name}.json")
        sys_spec = config.working_system()
        horizon = config.span()
        verdict = check_oscillation(sys_spec, horizon, scan=config.scan_values,
                                    lambda_grid=config.lambda_values,
                                    grid_nodes=config.grid_nodes,
                                    periodic=config.periodic,
                                    tol=config.tolerances)
        assert verdict.outcome == OSCILLATORY
        lams = config.lambda_values
        if lams is None:
            lams = default_lambda_grid(
                sys_spec, Grid.uniform(*horizon, config.grid_nodes))
        for T, witness in verdict.evidence["witnesses"]:
            fresh = find_interval_witness(sys_spec, T, lams, horizon,
                                          grid_nodes=config.grid_nodes,
                                          tol=config.tolerances)
            assert fresh == witness, T


class TestTraceSampledOnce:
    """A check samples p, f, r and g on its grid once, in alpha_lambda;
    every other lam and every later stage reads that trace."""

    @staticmethod
    def grid_samples(monkeypatch, sys_spec, horizon):
        nodes = Grid.uniform(*horizon, DEFAULT_GRID_NODES).nodes
        names = {id(getattr(sys_spec, c)): c for c in "pfrg"}
        counts = dict.fromkeys("pfrg", 0)
        for module in (transform, criteria):
            def counted(e, ts, sample=module.sample):
                if id(e) in names and np.array_equal(ts, nodes):
                    counts[names[id(e)]] += 1
                return sample(e, ts)
            monkeypatch.setattr(module, "sample", counted)
        return counts

    def test_nonoscillation_check(self, monkeypatch):
        sys_spec = make_system(p="-0.1", q="1", r="1", f="0.1 * exp(-t)", g="-exp(-t)")
        counts = self.grid_samples(monkeypatch, sys_spec, (0.0, 30.0))
        verdict = check_nonoscillation(sys_spec, (0.0, 30.0))
        # the lam witness trace is derived, not sampled again
        assert verdict.outcome == NON_OSCILLATORY
        assert counts == dict.fromkeys("pfrg", 1)

    def test_oscillation_check(self, monkeypatch):
        sys_spec = make_system(p="0.05 * sin(t)", q="1", r="-2.25", f="0.2 * cos(t)",
                               g="sin(t)")
        counts = self.grid_samples(monkeypatch, sys_spec, (0.0, 30.0))
        # the default lam grid, the shift windows and their margins all
        # read the one trace
        assert check_oscillation(sys_spec, (0.0, 30.0)).outcome == OSCILLATORY
        assert counts == dict.fromkeys("pfrg", 1)


class TestShiftPruning:
    """_shift_windows drops every lam whose alpha_lam misses a sign at the
    nodes: such a lam has no window of one kind and can pair none."""

    @pytest.mark.parametrize("k, w, amp, ph, outcome", [
        (1.5, 1.0, 1.0, 0.3, OSCILLATORY),
        (0.7, 1.1, 0.8, 2.0, INCONCLUSIVE),
    ])
    def test_forced_equation_keeps_only_zero(self, k, w, amp, ph, outcome):
        # alpha_lam is lam itself, so only lam = 0 takes both signs
        eq = SecondOrderSpec(parse_text("1"), parse_text("0"), parse_text(repr(k * k)),
                             parse_text(f"{amp!r} * sin({w!r} * t + {ph!r})"))
        sys_spec = reduce_equation(eq)
        horizon = (0.0, 5.0 * math.pi / w)
        grid = Grid.uniform(*horizon, DEFAULT_GRID_NODES)
        base = alpha_lambda(sys_spec, 0.0, grid)
        lams = default_lambda_grid(sys_spec, grid, base)
        assert len(lams) == 41
        assert _shift_windows(base, lams).lams == [0.0]
        full = check_oscillation(sys_spec, horizon)
        alone = check_oscillation(sys_spec, horizon, lambda_grid=[0.0])
        assert full.outcome == alone.outcome == outcome
        assert full.notes == alone.notes
        for key in ("witnesses", "failed_at"):
            assert full.evidence.get(key) == alone.evidence.get(key)

    def test_grid_without_a_survivor_is_inconclusive(self):
        eq = SecondOrderSpec(parse_text("1"), parse_text("0"), parse_text("2.25"),
                             parse_text("sin(t)"))
        sys_spec = reduce_equation(eq)
        horizon = (0.0, 10.0 * math.pi)
        grid = Grid.uniform(*horizon, DEFAULT_GRID_NODES)
        base = alpha_lambda(sys_spec, 0.0, grid)
        assert _shift_windows(base, [1.0, -2.0]).lams == []
        verdict = check_oscillation(sys_spec, horizon, lambda_grid=[1.0, -2.0])
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.evidence == {"witnesses": [], "failed_at": 0.0}

    def test_dropped_lams_miss_a_sign_on_bursty_systems(self):
        rng = np.random.default_rng(17)
        dropped = kept = 0
        for _ in range(6):
            height, power = rng.uniform(40.0, 160.0), int(rng.integers(8, 17))
            a, b = rng.uniform(0.3, 0.7), rng.uniform(0.4, 0.8)
            sys_spec = make_system(q=f"0.05 + {height!r} * ((1 - cos(2 * t)) / 2)^{power}",
                                   r="-1", f=f"{a!r} * cos(t) + {b!r} * exp(-t)",
                                   g="sin(t)")
            grid = Grid.uniform(0.0, 3.0 * math.pi, DEFAULT_GRID_NODES)
            base = alpha_lambda(sys_spec, 0.0, grid)
            lams = default_lambda_grid(sys_spec, grid, base) + [-1.5, -0.5, 0.5, 1.5]
            survivors = _shift_windows(base, lams).lams
            kept += len(survivors)
            for lam in set(lams) - set(survivors):
                dropped += 1
                alpha = alpha_lambda(sys_spec, lam, grid).alpha
                assert not np.any(alpha >= -SIGN_SLACK) or not np.any(-alpha >= -SIGN_SLACK)
        assert dropped and kept


class TestVariationalFunctional:
    def test_balanced_half_sine(self):
        u = half_sine_bridge(0.0, math.pi)
        value = variational_functional(parse_text("1"), parse_text("1"), u)
        assert abs(value) <= 1e-8

    def test_stiff_restoring_term(self):
        u = half_sine_bridge(0.0, math.pi)
        value = variational_functional(parse_text("1"), parse_text("4"), u)
        assert value == pytest.approx(3.0 * math.pi / 2.0, abs=1e-6)

    def test_quadratic_homogeneity(self):
        u = half_sine_bridge(0.0, math.pi)
        doubled = TestFunction(Mul(Constant(2.0), u.u), u.interval)
        a, c = parse_text("1"), parse_text("3")
        single = variational_functional(a, c, u)
        assert variational_functional(a, c, doubled) == pytest.approx(
            4.0 * single, rel=1e-12)

    def test_invalid_test_function_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            TestFunction(parse_text("1 + t"), (0.0, 1.0))
        with pytest.raises(ValueError, match="identically"):
            TestFunction(parse_text("0"), (0.0, 1.0))


class TestUndampedCheck:
    def equation(self, a="1", b="0", c="1", d="sin(t)"):
        return SecondOrderSpec(parse_text(a), parse_text(b), parse_text(c),
                               parse_text(d), 0.0)

    def test_forced_harmonic_equation(self):
        verdict = check_undamped_equation(self.equation(), (0.0, 8.0 * math.pi))
        assert verdict.outcome == OSCILLATORY
        first = verdict.evidence["records"][0]
        (s1, t1), (s2, t2) = first["windows"]
        expected = (math.pi, 2 * math.pi, 2 * math.pi, 3 * math.pi)
        assert np.max(np.abs(np.array([s1, t1, s2, t2]) - np.array(expected))) < 1e-6
        assert min(first["functionals"]) >= -1e-9

    def test_single_signed_forcing_inconclusive(self):
        verdict = check_undamped_equation(self.equation(c="-1", d="-exp(-t)"),
                                          (0.0, 20.0))
        assert verdict.outcome == INCONCLUSIVE

    def test_zero_restoring_coefficient_inconclusive(self):
        verdict = check_undamped_equation(self.equation(c="0"), (0.0, 8.0 * math.pi))
        assert verdict.outcome == INCONCLUSIVE

    def test_empty_scan_raises(self):
        eq = self.equation(c="-1", d="-exp(-t)")
        with pytest.raises(ValueError, match="scan"):
            check_undamped_equation(eq, (0.0, 30.0), scan=[])

    def test_damped_equation_inconclusive(self):
        verdict = check_undamped_equation(self.equation(b="1"), (0.0, 10.0))
        assert verdict.outcome == INCONCLUSIVE
        assert "damping" in verdict.notes

    @pytest.mark.parametrize("T", [-5.0, 8.0 * math.pi, 60.0])
    def test_reference_time_outside_horizon_raises(self, T):
        # both checks share one window scan and with it its range check
        horizon = (0.0, 8.0 * math.pi)
        with pytest.raises(ValueError, match="reference time"):
            check_undamped_equation(self.equation(), horizon, scan=[T])
        with pytest.raises(ValueError, match="reference time"):
            check_oscillation(reduce_equation(self.equation()), horizon, scan=[T])

    def test_generalization_on_forced_harmonic(self):
        # when the variational test certifies the equation, the system-level
        # witness search with lam = 0 must certify the reduction as well
        eq = self.equation()
        horizon = (0.0, 8.0 * math.pi)
        assert check_undamped_equation(eq, horizon).outcome == OSCILLATORY
        sys = reduce_equation(eq)
        verdict = check_oscillation(sys, horizon)
        assert verdict.outcome == OSCILLATORY


class TestPruferDirectEquivalence:
    def test_random_homogeneous_systems(self):
        rng = np.random.default_rng(20240815)
        for _ in range(10):
            q0 = rng.uniform(0.2, 1.5)
            q1 = rng.uniform(0.0, 0.9) * q0
            r0, r1 = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.0)
            p0, s0 = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
            w = rng.uniform(0.5, 2.0)
            sys = make_system(
                p=f"{p0} * cos({w} * t)",
                q=f"{q0} + {q1} * sin({w} * t)",
                r=f"{r0} + {r1} * cos(t)",
                s=f"{s0} * sin(t)",
            )
            crossings = angle_line_crossings(sys, (0.0, 20.0), theta0=0.0)
            traj = integrate_ode(sys.field(), [1.0, 0.0], (0.0, 20.0),
                                 events=[zero_crossing(0)])
            direct = [ev.time for ev in traj.events if ev.kind == "zero-crossing"]
            assert len(crossings) == len(direct), (crossings, direct)


class TestVerdictType:
    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            Verdict("maybe", (0.0, 1.0))

    def test_decisive_needs_evidence(self):
        with pytest.raises(ValueError, match="evidence"):
            Verdict(OSCILLATORY, (0.0, 1.0))
