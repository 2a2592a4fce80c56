"""Quadrature, adaptive integration, events, escapes, root refinement.

Expected values are frozen from closed forms: antiderivatives for the
quadrature cases, exp/rotation/tan solutions for the integrator.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq

from oscillint import numerics
from oscillint.numerics import (
    CubicHermiteCurve,
    Event,
    Grid,
    IntegrationError,
    RootBracketError,
    Tolerances,
    Trajectory,
    cumulative_integral,
    definite_simpson,
    integrate_ode,
    refine_root,
    refine_roots,
    zero_crossing,
)
from oscillint.numerics import _bisect_event, _hermite_rate, _subsamples
from oscillint.oracle import Ensemble, simulate_ensemble
from oscillint.expr import parse_text
from oscillint.transform import SystemSpec

# phi' = -psi, psi' = phi: the oracle's form of the rotation field below
ROTATION = SystemSpec(*(parse_text(c) for c in ("0", "-1", "1", "0", "0", "0")))


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(0.0, 1.0, 11)
        assert len(g) == 11
        assert g.span == (0.0, 1.0)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 2.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, np.inf]))


class TestCumulativeIntegral:
    def test_cos_on_quarter_period(self):
        # antiderivative sin: integral of cos over [0, pi/2] is 1
        g = Grid.uniform(0.0, math.pi / 2, 1001)
        vals = np.cos(g.nodes)
        out = cumulative_integral(vals, g)
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(1.0, abs=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = Grid.uniform(0.0, 3.0, 257)
        u = rng.normal(size=len(g))
        v = rng.normal(size=len(g))
        a, b = 2.5, -1.25
        lhs = cumulative_integral(a * u + b * v, g)
        rhs = a * cumulative_integral(u, g) + b * cumulative_integral(v, g)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 513, 2048])
    def test_equals_scipy_cumulative_simpson(self, n):
        # random uneven grids: the numpy rule keeps scipy's operation order
        rng = np.random.default_rng(n)
        g = Grid(np.cumsum(rng.uniform(1e-3, 1.0, n)))
        vals = rng.normal(size=n)
        np.testing.assert_array_equal(cumulative_integral(vals, g),
                                      cumulative_simpson(vals, x=g.nodes, initial=0.0))

    def test_nonfinite_sample_rejected(self):
        g = Grid.uniform(0.0, 1.0, 5)
        vals = np.array([0.0, 1.0, np.nan, 1.0, 0.0])
        with pytest.raises(IntegrationError):
            cumulative_integral(vals, g)

    def test_definite_simpson_zero_functional(self):
        # integral of -cos(2t) over [0, pi] vanishes
        out = definite_simpson(lambda ts: -np.cos(2 * ts), 0.0, math.pi)
        assert abs(out) < 1e-10


class TestIntegrator:
    def test_exponential_growth(self):
        traj = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0))
        assert traj.states[-1, 0] == pytest.approx(math.e, rel=1e-7)

    def test_rotation_zero_crossings(self):
        # (cos t, -sin t): first component vanishes at pi/2 + k*pi
        field = lambda t, y: np.array([-y[1], y[0]])
        traj = integrate_ode(field, [1.0, 0.0], (0.0, 8.0), events=[zero_crossing(0)])
        times = [ev.time for ev in traj.events if ev.kind == "zero-crossing"]
        expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(times) == 3
        for got, want in zip(times, expected):
            assert got == pytest.approx(want, abs=1e-6)

    def test_crossing_directions_alternate(self):
        field = lambda t, y: np.array([-y[1], y[0]])
        traj = integrate_ode(field, [1.0, 0.0], (0.0, 8.0), events=[zero_crossing(0)])
        dirs = [ev.direction for ev in traj.events if ev.kind == "zero-crossing"]
        assert dirs == [-1, 1, -1]

    def test_event_completeness_high_frequency(self):
        # y = cos(5t): exactly 20 zeros in [0, 4*pi]
        n_zeros = 20
        field = lambda t, y: np.array([-5.0 * y[1], 5.0 * y[0]])
        horizon = (n_zeros - 0.5) * math.pi / 5 + math.pi / 10
        traj = integrate_ode(field, [1.0, 0.0], (0.0, horizon), events=[zero_crossing(0)])
        times = [ev.time for ev in traj.events if ev.kind == "zero-crossing"]
        assert len(times) == n_zeros
        for j, te in enumerate(times):
            assert te == pytest.approx((2 * j + 1) * math.pi / 10, abs=1e-6)

    def test_escape_of_riccati_blowup(self):
        # y' = 1 + y^2, y(0)=0 -> y = tan t, escapes at pi/2
        traj = integrate_ode(lambda t, y: np.array([1.0 + y[0] ** 2]), [0.0], (0.0, 3.0))
        te = traj.escape_time()
        assert te is not None
        assert te == pytest.approx(math.pi / 2, abs=1e-4)
        assert traj.events[-1].kind == "escape"

    def test_no_crossing_recorded_past_escape(self):
        # a growing spiral: with loose tolerances the step in which |y|
        # passes 1.5 also holds a zero of phi after the escape time
        field = lambda t, y: np.array([0.1 * y[0] - y[1], y[0] + 0.1 * y[1]])
        tol = Tolerances(rel_tol=1e-4, escape_magnitude=1.5)
        traj = integrate_ode(field, [0.8, 0.0], (0.0, 30.0), tol,
                             events=[zero_crossing(0)])
        te = traj.escape_time()
        assert te is not None
        assert traj.events[-1].kind == "escape"
        assert all(ev.time <= te for ev in traj.events)

    def test_no_escape_for_bounded_solution(self):
        traj = integrate_ode(lambda t, y: np.array([math.sin(t)]), [0.0], (0.0, 10.0))
        assert traj.escape_time() is None
        assert traj.grid.nodes[-1] == pytest.approx(10.0, abs=1e-9)

    def test_tolerance_halving_does_not_worsen_error(self):
        errs = []
        for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            tol = Tolerances(rel_tol=rel, abs_tol=1e-12)
            traj = integrate_ode(lambda t, y: y, [1.0], (0.0, 2.0), tolerances=tol)
            errs.append(abs(traj.states[-1, 0] - math.exp(2.0)))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15

    def test_dense_output_accuracy(self):
        # cubic Hermite between nodes is one order below the nodal solution;
        # on a y-independent field steps grow to max_step, so expect ~h^4/384
        traj = integrate_ode(lambda t, y: np.array([math.cos(t)]), [0.0], (0.0, 6.0))
        ts = np.linspace(0.3, 5.7, 40)
        vals = traj.component(0)(ts)
        assert np.max(np.abs(vals - np.sin(ts))) < 1e-4
        nodal = traj.states[:, 0]
        assert np.max(np.abs(nodal - np.sin(traj.grid.nodes))) < 1e-8

    def test_field_error_at_start_raises(self):
        def bad(t, y):
            raise ValueError("nope")
        with pytest.raises(IntegrationError):
            integrate_ode(bad, [1.0], (0.0, 1.0))

    def test_events_inside_span_only(self):
        field = lambda t, y: np.array([-y[1], y[0]])
        traj = integrate_ode(field, [1.0, 0.0], (0.0, 1.0), events=[zero_crossing(0)])
        assert [ev for ev in traj.events if ev.kind == "zero-crossing"] == []

    def test_crossing_has_sign_change(self):
        field = lambda t, y: np.array([-y[1], y[0]])
        traj = integrate_ode(field, [1.0, 0.0], (0.0, 4.0), events=[zero_crossing(0)])
        curve = traj.component(0)
        for ev in traj.events:
            if ev.kind != "zero-crossing":
                continue
            before = float(curve(ev.time - 1e-5))
            after = float(curve(ev.time + 1e-5))
            assert before * after < 0
            assert np.sign(after - before) == ev.direction


class TestMemberAxis:
    """integrate_ode solves one (dim,) start. The members of an ensemble are
    the oracle's: they share each chunk's series solve, and nothing else."""

    rotation = staticmethod(lambda t, y: np.array([-y[1], y[0]]))

    @staticmethod
    def ensemble(*starts):
        return Ensemble(tuple(starts), 0, (0.0, 30.0))

    def test_quiet_members_do_not_dilute_error(self):
        # chunks are accepted on the system alone, so zero members padding
        # the ensemble leave the moving member bit for bit where it is
        alone = simulate_ensemble(ROTATION, self.ensemble((1.0, 0.0), (0.0, 1.0)))[0]
        padded = simulate_ensemble(ROTATION, self.ensemble((1.0, 0.0), *[(0.0, 0.0)] * 15))[0]
        np.testing.assert_array_equal(padded.grid.nodes, alone.grid.nodes)
        np.testing.assert_array_equal(padded.states, alone.states)
        assert padded.events == alone.events

    def test_single_member_batch_matches_plain_solve(self):
        member = simulate_ensemble(ROTATION, self.ensemble((1.0, 0.0), (0.0, 1.0)))[0]
        plain = integrate_ode(self.rotation, [1.0, 0.0], (0.0, 30.0),
                              events=[zero_crossing(0)])
        np.testing.assert_allclose([ev.time for ev in member.events],
                                   [ev.time for ev in plain.events], rtol=0, atol=1e-7)
        assert [ev.direction for ev in member.events] == [ev.direction for ev in plain.events]
        ts = member.grid.nodes
        np.testing.assert_allclose(member.states, np.array([np.cos(ts), np.sin(ts)]).T,
                                   rtol=0, atol=1e-8)

    def test_plain_solve_is_not_a_batch(self):
        # the field sees the plain (2,) state and the result reads as one
        # solution: (n, 2) states, no member tags, no member split
        shapes = set()

        def rotation(t, y):
            shapes.add(y.shape)
            return np.array([-y[1], y[0]])
        plain = integrate_ode(rotation, [1.0, 0.0], (0.0, 8.0), events=[zero_crossing(0)])
        assert shapes == {(2,)}
        assert plain.states.shape[1:] == (2,)
        assert len(plain.events) == 3
        for traj in (plain, integrate_ode(lambda t, y: -y, [1.0], (0.0, 1.0))):
            assert not hasattr(traj, "ends") and not hasattr(traj, "members")
            assert not any(hasattr(ev, "member") for ev in traj.events)

    def test_start_state_of_rank_three_rejected(self):
        for start in (np.ones((2, 2, 2)), np.ones((2, 3))):
            with pytest.raises(ValueError, match="shape"):
                integrate_ode(self.rotation, start, (0.0, 1.0))


def _bisected_crossings(member: Trajectory, component: int, tol: float) -> list:
    """(time, direction) of each zero crossing of the component that
    scanning and bisecting the member's own cubic, one step and one
    crossing at a time, finds; the scan's end values are the step's nodes."""
    curve = member.component(component)

    def g(tq):
        return float(curve(tq))
    out = []
    nodes, values = member.grid.nodes, member.states[:, component]
    for t0, t1, y0, y1 in zip(nodes[:-1], nodes[1:], values[:-1], values[1:]):
        samples = _subsamples(t0, t1)
        vals = [y0, *map(g, samples[1:-1]), y1]
        for a, b, ga, gb in zip(samples, samples[1:], vals, vals[1:]):
            if ga != 0.0 and (ga < 0 < gb or gb < 0 < ga or gb == 0.0):
                out.append((_bisect_event(g, a, b, tol), 1 if gb > ga else -1))
    return out


class TestEventLanes:
    """Zero crossings of one component of a float or an array state, each
    bisected on the cubic of the step that finds it."""

    rotation = staticmethod(lambda t, y: np.array([-y[1], y[0]]))

    def test_scalar_bisection_cases(self):
        # _bisect_event on a cubic whose only root c it brackets: a zero at
        # the bracket start or at the first midpoint is returned exactly;
        # otherwise the bracket shrinks to tol, or stops after 128 halvings
        # when it is too wide to get there, and its midpoint is returned
        rng = np.random.default_rng(7)
        for c, a in zip((0.25, -1.5, 2.0, 0.7), (1.0, 2.5, 0.3, 0.1)):
            calls = []

            def g(x):
                calls.append(x)
                return a * (x - c) ** 3 + (x - c)
            for tol in (1e-9, 0.0):
                for lo, hi, evals in ((c, c + 1.0, 1), (c - 1.0, c + 1.0, 2)):
                    calls.clear()
                    assert _bisect_event(g, lo, hi, tol) == c
                    assert len(calls) == evals
                calls.clear()
                got = _bisect_event(g, -1e30, 1e30, tol)
                assert len(calls) == 129  # the start, then one per halving
                assert abs(got - c) <= 1e30 * 2.0 ** -128
            for lo, hi in rng.uniform(1e-6, 2.0, (20, 2)):
                assert abs(_bisect_event(g, c - lo, c + hi, 1e-9) - c) <= 0.5e-9
                assert abs(_bisect_event(g, c - lo, c + hi, 0.0) - c) <= 4 * np.spacing(2.0)

    @pytest.mark.parametrize("component", [0, 1], ids=["zero_crossing", "second_component"])
    def test_batch_times_equal_member_bisection(self, component):
        # a solve's crossings equal a scan and bisection of each step's
        # cubic alone, rebuilt from the nodes. At rest at t = 0 the first
        # step falls back to width / 100, and the error stays so small that
        # every step is max_step = 2**-5: each node is exact and each step's
        # width is its nodes' difference
        field = lambda t, y: t * np.array([-y[1], y[0]])
        tol = Tolerances(rel_tol=1e-6, abs_tol=1e-8)
        step = 2.0 ** -5
        for j, phase in enumerate(np.linspace(0.3, 5.9, 6)):
            start = 2.0 * np.array([np.cos(phase), np.sin(phase)])
            traj = integrate_ode(field, start, (0.0, 4.0), tol,
                                 events=[zero_crossing(component)], max_step=step)
            np.testing.assert_array_equal(traj.grid.nodes, np.arange(129) * step)
            got = [(ev.time, ev.direction) for ev in traj.events]
            assert len(got) >= 2
            assert got == _bisected_crossings(traj, component, tol.root_tol), j

    def test_scalar_start_equals_member_bisection(self):
        # a scalar start is a float in the step loop, and its one component
        # is 0; at rest at t = 0 every step is max_step, as above
        field = lambda t, y: math.cos(3.0 * t) * t - 0.1 * y
        tol = Tolerances(rel_tol=1e-6, abs_tol=1e-8)
        step = 2.0 ** -5
        traj = integrate_ode(field, 0.0, (0.0, 4.0), tol, events=[zero_crossing(0)],
                             max_step=step)
        np.testing.assert_array_equal(traj.grid.nodes, np.arange(129) * step)
        got = [(ev.time, ev.direction) for ev in traj.events]
        assert len(got) >= 2
        assert got == _bisected_crossings(traj, 0, tol.root_tol)

    @pytest.mark.parametrize("start, component", [
        (1.0, 1), (1.0, -1), ([1.0, 2.0], 2), ([1.0, 2.0], 5), ([1.0, 2.0], -1),
    ])
    def test_component_outside_the_state_rejected(self, start, component):
        # before any field call, let alone a step
        calls = []

        def field(t, y):
            calls.append(t)
            return -y
        with pytest.raises(ValueError, match="outside the state"):
            integrate_ode(field, start, (0.0, 1.0), events=[zero_crossing(component)])
        assert calls == []

    def test_no_crossing_recorded_past_escape(self):
        # the solution spirals out past 1.5 inside a step that also holds
        # one of its zeros
        field = lambda t, y: np.array([0.1 * y[0] - y[1], y[0] + 0.1 * y[1]])
        escaping = integrate_ode(field, [0.8, 0.0], (0.0, 30.0),
                                 Tolerances(rel_tol=1e-4, escape_magnitude=1.5),
                                 events=[zero_crossing(0)])
        unbounded = integrate_ode(field, [0.8, 0.0], (0.0, 30.0), Tolerances(rel_tol=1e-4),
                                  events=[zero_crossing(0)])
        end = escaping.escape_time()
        assert escaping.span[1] == end
        # the two solves share every step up to the escape's
        k = len(escaping.grid) - 1
        np.testing.assert_array_equal(unbounded.grid.nodes[:k], escaping.grid.nodes[:k])
        later = [ev.time for ev in unbounded.events if end < ev.time <= unbounded.grid.nodes[k]]
        assert later, "the escape step holds no later zero"
        assert all(ev.time <= end for ev in escaping.events if ev.kind == "zero-crossing")

    def test_two_events_share_one_batch(self):
        # one solve records the zeros of both components, merged in time;
        # events do not steer the steps, so they equal, bit for bit, what
        # two solves with one event each record
        specs = [zero_crossing(0), zero_crossing(1)]
        tol = Tolerances(rel_tol=1e-12, abs_tol=1e-14)
        for phase in (0.2, 1.9, 3.0, 4.4):
            start = [math.cos(phase), math.sin(phase)]
            both = integrate_ode(self.rotation, start, (0.0, 10.0), tol, events=specs)
            times = [ev.time for ev in both.events]
            assert len(times) >= 6 and times == sorted(times), phase
            apart = [ev for spec in specs for ev in
                     integrate_ode(self.rotation, start, (0.0, 10.0), tol, events=[spec]).events]
            assert both.events == sorted(apart, key=lambda ev: ev.time), phase

    @pytest.mark.parametrize("start", [1.0, [1.0, 2.0, 3.0]], ids=["scalar", "array"])
    def test_step_boundaries_evaluated_once(self, start, monkeypatch):
        # y never reaches 0, so the cubic is evaluated only by the scan:
        # at the 5 samples inside each step, its ends being its own states
        calls, hermite = [], numerics._hermite

        def counted(s, *rest):
            calls.append(s)
            return hermite(s, *rest)
        monkeypatch.setattr(numerics, "_hermite", counted)
        traj = integrate_ode(lambda t, y: y, start, (0.0, 2.0), events=[zero_crossing(0)])
        steps = len(traj.grid) - 1
        assert traj.events == []
        assert len(calls) == 5 * steps
        assert all(0.0 < s < 1.0 for s in calls)


class TestFailedFieldAtEnd:
    """A field that fails exactly where the solution escapes leaves the
    cubic's own slope as the last derivative."""

    @pytest.mark.parametrize("array_state", [False, True])
    def test_escape(self, array_state):
        # tan t passes 1.5 at atan 1.5, where its slope is 1 + 1.5^2; the
        # array case solves it twice over, as a (2,) state
        def tangent(t, y):
            if abs(t - math.atan(1.5)) < 1e-6:
                raise ValueError("no field here")
            return 1.0 + y * y
        traj = integrate_ode(tangent, [0.0, 0.0] if array_state else 0.0, (0.0, 3.0),
                             Tolerances(escape_magnitude=1.5))
        assert traj.escape_time() == pytest.approx(math.atan(1.5), abs=1e-5)
        assert traj.derivs[-1, 0] == pytest.approx(3.25, abs=1e-3)


def _log_to_ceiling(t, y):
    # math.log raises from t = 1.3 on, so every stage past it fails
    return y * 0.0 + math.log(1.3 - t)


class TestScalarLoop:
    """A scalar start state is a Python float in the step loop, and its
    field is called on floats; the same equation as a (1,) start, or twice
    over as a (2,) state of equal components, is a numpy array in the same
    loop and gives the same solve bit for bit: stage sums run left to right
    for all three, and the RMS of equal components is their magnitude."""

    zeros = (zero_crossing(0),)
    CASES = {
        "smooth": (lambda t, y: np.sin(t) - y, 1.0, (0.0, 10.0), Tolerances(), ()),
        # angle of phi'' + 4 phi = 0: theta' = -(4 cos^2 + sin^2)
        "angle": (lambda t, y: -(4.0 * np.cos(y) ** 2 + np.sin(y) ** 2), math.pi / 2,
                  (0.0, 12.0), Tolerances(), zeros),
        # y = (0.1 cos 3t + 3 sin 3t - 0.1 e^(-0.1 t)) / 9.01 from rest
        "wave": (lambda t, y: np.cos(3.0 * t) - 0.1 * y, 0.0, (0.0, 10.0), Tolerances(), zeros),
        "tangent": (lambda t, y: 1.0 + y * y, 0.0, (0.0, 3.0), Tolerances(), ()),
        "field_raises": (_log_to_ceiling, 0.0, (0.0, 3.0), Tolerances(), ()),
        "starts_escaped": (lambda t, y: -y, 2e8, (0.0, 1.0), Tolerances(), ()),
        # steps grow to max_step, so the escape is refined inside a long step
        "linear_escape": (lambda t, y: 1.0 + 0.0 * y, 0.0, (0.0, 4.0),
                          Tolerances(escape_magnitude=1.5), ()),
        "nan_field": (lambda t, y: y * (math.nan if t > 0.5 else 1.0), 1.0, (0.0, 1.0),
                      Tolerances(), ()),
        # a finite jump no step can resolve: every step across t = 0.5 is
        # rejected until the step size collapses
        "jump": (lambda t, y: 0.0 * y + (1e200 if t > 0.5 else 0.0), 0.0, (0.0, 1.0),
                 Tolerances(), ()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_numpy_loop(self, case):
        field, y0, span, tol, events = self.CASES[case]
        starts = {"scalar": y0, "single": [y0], "pair": [y0, y0]}
        calls = dict.fromkeys(starts, 0)

        def counted(kind):
            def fn(t, y):
                calls[kind] += 1
                return field(t, y)
            return fn
        scalar, single, pair = (integrate_ode(counted(kind), start, span, tol, events=events)
                                for kind, start in starts.items())
        # the same steps, retries and refinements cost the same evaluations
        assert calls["scalar"] == calls["single"] == calls["pair"]
        assert scalar.states.shape == (len(scalar.grid), 1)
        assert scalar.derivs.shape == scalar.states.shape
        for other, columns in ((single, (0,)), (pair, (0, 1))):
            np.testing.assert_array_equal(scalar.grid.nodes, other.grid.nodes)
            for column in columns:
                np.testing.assert_array_equal(scalar.states[:, 0], other.states[:, column])
                np.testing.assert_array_equal(scalar.derivs[:, 0], other.derivs[:, column])
            assert scalar.events == other.events
            assert scalar.end_reason == other.end_reason

    def test_cases_end_as_intended(self):
        ends = {}
        for case, (field, y0, span, tol, events) in self.CASES.items():
            traj = integrate_ode(field, y0, span, tol, events=events)
            ends[case] = (traj.span[1], traj.escape_time(), len(traj.events), traj.end_reason)
        assert ends["smooth"] == (10.0, None, 0, "horizon")
        assert ends["angle"][:2] == (12.0, None)
        assert ends["angle"][2:] == (1, "horizon")  # theta falls through 0 once
        assert ends["wave"][:2] == (10.0, None)
        assert ends["wave"][2:] == (9, "horizon")  # zeros pi/3 apart past the start
        assert ends["tangent"][1] == pytest.approx(math.pi / 2, abs=1e-4)
        assert ends["tangent"][3] == "escape_magnitude"
        assert ends["field_raises"][1] == pytest.approx(1.3, abs=1e-6)
        assert ends["field_raises"][3] == "field_failure"
        assert ends["starts_escaped"][1] == 0.0
        assert ends["starts_escaped"][3] == "escape_magnitude"
        assert ends["linear_escape"][1] == pytest.approx(1.5, abs=1e-9)
        assert ends["linear_escape"][3] == "escape_magnitude"
        assert ends["nan_field"][1] == pytest.approx(0.5, abs=1e-6)
        assert ends["nan_field"][3] == "field_failure"
        assert ends["jump"][1] == pytest.approx(0.5, abs=1e-6)
        assert ends["jump"][3] == "step_collapse"

    def test_scalar_start_takes_the_scalar_loop(self):
        # the field of a scalar start sees Python floats, never arrays;
        # y = e^-t - 1/2 falls through 0 at log 2
        seen = set()

        def field(t, y):
            seen.add((type(t), type(y)))
            return -y - 0.5
        tol = Tolerances(rel_tol=1e-10)
        bare = integrate_ode(field, 0.5, (0.0, 1.0), tol, events=[zero_crossing(0)])
        assert seen == {(float, float)}
        listed = integrate_ode(lambda t, y: -y - 0.5, [0.5], (0.0, 1.0), tol,
                               events=[zero_crossing(0)])
        np.testing.assert_array_equal(bare.states, listed.states)
        assert bare.events == listed.events
        assert bare.states.shape == (len(bare.grid), 1)
        assert bare.states[-1, 0] == pytest.approx(math.exp(-1.0) - 0.5, rel=1e-7)
        assert [ev.direction for ev in bare.events] == [-1]
        assert bare.events[0].time == pytest.approx(math.log(2.0), abs=1e-8)

    def test_scalar_field_may_return_numpy_scalars(self):
        # a numpy scalar or a 0-d array is converted to the float it holds
        solves = [integrate_ode(field, 1.0, (0.0, 2.0)) for field in
                  (lambda t, y: -y, lambda t, y: np.float64(-y), lambda t, y: np.array(-y))]
        for other in solves[1:]:
            np.testing.assert_array_equal(solves[0].grid.nodes, other.grid.nodes)
            np.testing.assert_array_equal(solves[0].states, other.states)

    @pytest.mark.parametrize("start, bad", [
        ([1.0], lambda t, y: np.array([1.0, 2.0])),
        ([1.0], lambda t, y: np.array(1.0)),  # a 0-d result is not a (1,) state
        ([1.0, 2.0], lambda t, y: np.array([1.0, 2.0, 3.0])),
        ([1.0, 2.0], lambda t, y: np.array(1.0)),
        ([1.0, 2.0], lambda t, y: np.array([1.0, math.nan])),
        # a scalar equation's field returns a real number, nothing else
        (1.0, lambda t, y: np.array([1.0])),
        (1.0, lambda t, y: np.array([1.0, 2.0])),
        (1.0, lambda t, y: math.nan),
        (1.0, lambda t, y: "1.0"),
    ], ids=["1_gets_2", "1_gets_0d", "2_gets_3", "2_gets_0d", "2_gets_nan",
            "scalar_gets_1", "scalar_gets_2", "scalar_gets_nan", "scalar_gets_str"])
    def test_field_of_wrong_shape_rejected(self, start, bad):
        with pytest.raises(IntegrationError):
            integrate_ode(bad, start, (0.0, 1.0))

    def test_field_buffer_reused_for_every_call(self):
        # a field that fills and returns one buffer solves as one that
        # returns fresh arrays: no stored state or derivative aliases it
        buffer = np.empty(2)

        def in_place(t, y):
            buffer[0], buffer[1] = -y[1], y[0] - 0.1 * y[1]
            return buffer

        def fresh(t, y):
            return np.array([-y[1], y[0] - 0.1 * y[1]])
        start, span = [1.0, 0.5], (0.0, 10.0)
        events = [zero_crossing(0)]
        shared = integrate_ode(in_place, start, span, events=events)
        own = integrate_ode(fresh, start, span, events=events)
        assert len(shared.grid) > 10 and len(shared.events) >= 2
        np.testing.assert_array_equal(shared.grid.nodes, own.grid.nodes)
        np.testing.assert_array_equal(shared.states, own.states)
        np.testing.assert_array_equal(shared.derivs, own.derivs)
        assert shared.events == own.events


class TestRefineRoot:
    def test_cos_root(self):
        got = refine_root(math.cos, 1.0, 2.0, tol=1e-12)
        assert got == pytest.approx(math.pi / 2, abs=1e-10)

    def test_endpoint_zero(self):
        assert refine_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change_rejected(self):
        with pytest.raises(RootBracketError):
            refine_root(lambda x: 1.0 + x * x, 0.0, 1.0)


class TestRefineRoots:
    """The vectorised Brent solve against scipy's brentq, lane by lane."""

    @staticmethod
    def cubic(a, b, c):
        # a (x - c)^3 + b (x - c): b << a makes a near-triple root that Brent
        # reaches in many steps, b >> a one it reaches in a few secants
        def fn(x):
            d = x - c
            return a * d * d * d + b * d
        return fn

    @staticmethod
    def lanes_of(a, b, c):
        # the cubic of each bracket, called on the brackets still open
        return lambda x, lanes: TestRefineRoots.cubic(a[lanes], b[lanes], c[lanes])(x)

    @pytest.mark.parametrize("tol", [1e-13, 1e-9])
    def test_bit_identical_to_refine_root(self, tol):
        rng = np.random.default_rng(3)
        n = 400
        c = rng.uniform(-5.0, 5.0, n)
        a = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
        b = a * 10.0 ** rng.uniform(-4.0, 2.0, n)
        lo = c - rng.uniform(1e-6, 4.0, n)
        hi = c + rng.uniform(1e-6, 4.0, n)
        lo[:5] = c[:5]  # zero exactly at the left end
        hi[5:10] = c[5:10]  # and at the right end
        got = refine_roots(self.lanes_of(a, b, c), lo, hi, tol=tol)
        for i in range(n):
            fn = self.cubic(float(a[i]), float(b[i]), float(c[i]))
            x_lo, x_hi = float(lo[i]), float(hi[i])
            if fn(x_lo) == 0.0 or fn(x_hi) == 0.0:
                expected = x_lo if fn(x_lo) == 0.0 else x_hi
            else:
                expected = brentq(fn, x_lo, x_hi, xtol=tol)
            assert got[i] == expected, i
            # refine_root is one lane of the same solve
            assert refine_root(fn, x_lo, x_hi, tol=tol) == expected, i
        assert np.all(got[:5] == lo[:5]) and np.all(got[5:10] == hi[5:10])

    def test_one_call_per_iteration(self):
        # slow and fast lanes: each iteration calls fn once, on the brackets
        # still open, and a bracket that has converged is never passed again
        rng = np.random.default_rng(5)
        n = 60
        c = rng.uniform(-1.0, 1.0, n)
        a = np.ones(n)
        b = 10.0 ** rng.uniform(-4.0, 2.0, n)
        lo, hi = c - rng.uniform(0.1, 2.0, n), c + rng.uniform(0.1, 2.0, n)
        hi[:3] = c[:3]  # converged before the first iteration
        calls = []
        cubic = self.lanes_of(a, b, c)

        def fn(x, lanes):
            assert len(x) == len(lanes) and np.all(np.diff(lanes) > 0)
            calls.append(lanes.copy())
            return cubic(x, lanes)
        roots = refine_roots(fn, lo, hi, tol=1e-12)
        assert roots == pytest.approx(c, abs=1e-10)
        np.testing.assert_array_equal(calls[0], np.arange(n))
        np.testing.assert_array_equal(calls[1], np.arange(n))
        assert not np.isin(np.arange(3), calls[2]).any()
        # every later call passes a subset of the one before it
        for before, after in zip(calls[2:], calls[3:]):
            assert np.isin(after, before).all() and len(after) <= len(before)
        assert len(calls[2]) > len(calls[-1]) >= 1
        # a lane stays until its root is final: it is in as many calls as
        # its own one-lane solve makes
        for i in range(n):
            own = []
            refine_roots(lambda x, lanes: own.append(1) or cubic(x, lanes + i),
                         lo[i:i + 1], hi[i:i + 1], tol=1e-12)
            assert sum(i in lanes for lanes in calls) == len(own), i

    def test_bracket_values_the_caller_holds(self):
        # given fn's values at the bracket ends, the solve starts from them:
        # the same roots, two calls fewer, and the sign test reads them
        rng = np.random.default_rng(7)
        n = 50
        a, b, c = np.ones(n), 10.0 ** rng.uniform(-4.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
        lo, hi = c - rng.uniform(0.1, 2.0, n), c + rng.uniform(0.1, 2.0, n)
        hi[:3] = c[:3]
        cubic, calls = self.lanes_of(a, b, c), []
        counted = lambda x, lanes: calls.append(1) or cubic(x, lanes)
        every = np.arange(n)
        ends = cubic(lo, every), cubic(hi, every)
        alone = refine_roots(counted, lo, hi, tol=1e-12)
        made = len(calls)
        np.testing.assert_array_equal(refine_roots(counted, lo, hi, tol=1e-12, ends=ends), alone)
        assert len(calls) - made == made - 2
        with pytest.raises(RootBracketError, match="sign change"):
            refine_roots(cubic, lo, hi, ends=(ends[0], ends[0]))

    def test_empty_bracket_rejected(self):
        with pytest.raises(RootBracketError, match="empty"):
            refine_roots(lambda x, lanes: x, [0.0, 1.0], [1.0, 1.0])

    def test_no_sign_change_rejected(self):
        with pytest.raises(RootBracketError, match="sign change"):
            refine_roots(lambda x, lanes: x - 0.5, [0.0, 0.6], [1.0, 0.9])


class TestTrajectory:
    def test_state_grid_length_mismatch(self):
        g = Grid.uniform(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Trajectory(g, np.zeros((3, 2)))

    def test_event_outside_span_rejected(self):
        g = Grid.uniform(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Trajectory(g, np.zeros((4, 1)), [Event("zero-crossing", 2.0, 1)])

    def test_hermite_curve_reproduces_cubic(self):
        ts = np.linspace(0.0, 2.0, 5)
        vals = ts**3 - ts
        ders = 3 * ts**2 - 1
        curve = CubicHermiteCurve(ts, vals, ders)
        tq = np.linspace(0.0, 2.0, 33)
        assert np.allclose(curve(tq), tq**3 - tq, atol=1e-12)

    def test_hermite_rate_is_exact_for_cubic(self):
        # t^3 - t on one step [0, 2]: values 0 and 6, slopes -1 and 11
        tq = np.linspace(0.0, 2.0, 33)
        assert np.allclose(_hermite_rate(tq / 2.0, 2.0, 0.0, 6.0, -1.0, 11.0),
                           3 * tq**2 - 1, atol=1e-12)
        assert _hermite_rate(0.25, 2.0, 0.0, 6.0, -1.0, 11.0) == pytest.approx(
            3 * 0.25 - 1, abs=1e-12)

    def test_hermite_rate_converges_for_sine(self):
        ts = np.linspace(0.0, np.pi, 201)
        mids = 0.5 * (ts[:-1] + ts[1:])
        rate = _hermite_rate(0.5, ts[1] - ts[0], np.sin(ts[:-1]), np.sin(ts[1:]),
                             np.cos(ts[:-1]), np.cos(ts[1:]))
        assert np.max(np.abs(rate - np.cos(mids))) < 1e-6


class TestTolerances:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(rel_tol=-1e-8)

    def test_rejects_below_double_precision(self):
        with pytest.raises(ValueError):
            Tolerances(rel_tol=1e-16)
