"""Riccati solver and comparison certificate tests against closed forms."""

import math

import numpy as np
import pytest

from corpus import random_comparison_instance
from oscillint.expr import parse_text
from oscillint.numerics import Tolerances, integrate_ode, zero_crossing
from oscillint.riccati import (
    ComparisonInstance,
    comparison_certificate,
    comparison_validate,
    hypothesis_residuals,
    solve_riccati,
)
from oscillint.transform import RiccatiProblem, SystemSpec, riccati_of_system


def constant_problem(fc, gc, hc, span):
    return RiccatiProblem(lambda t: fc, lambda t: gc, lambda t: hc, span)


def slope(curve, t, step=1e-6):
    """Central difference of a dense-output curve at t."""
    return (float(curve(t + step)) - float(curve(t - step))) / (2.0 * step)


class TestSolve:
    def test_tangent_blowup(self):
        prob = constant_problem(1.0, 0.0, 1.0, (0.0, 3.0))
        sol = solve_riccati(prob, 0.0)
        assert sol.escaped()
        assert sol.escape_time == pytest.approx(math.pi / 2, abs=1e-4)
        # trajectory ends where the escape was detected
        assert sol.escape_time <= sol.end_time <= 3.0

    def test_pure_square_decay(self):
        prob = constant_problem(1.0, 0.0, 0.0, (0.0, 10.0))
        sol = solve_riccati(prob, 1.0)
        assert not sol.escaped()
        assert float(sol.value_at(10.0)) == pytest.approx(1.0 / 11.0, abs=1e-7)

    def test_zero_equilibrium(self):
        prob = constant_problem(1.0, 0.5, 0.0, (0.0, 5.0))
        sol = solve_riccati(prob, 0.0)
        assert np.allclose(sol.trajectory.states[:, 0], 0.0, atol=1e-14)

    def test_solution_values_match_tanh(self):
        # y' + y^2 - 1 = 0 from 0 is tanh; nodal accuracy is one order
        # better than sampling between nodes through the interpolant
        prob = constant_problem(1.0, 0.0, -1.0, (0.0, 2.0))
        sol = solve_riccati(prob, 0.0)
        nodes = sol.trajectory.grid.nodes
        assert np.max(np.abs(sol.trajectory.states[:, 0] - np.tanh(nodes))) < 1e-7
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        assert np.max(np.abs(np.atleast_1d(sol.value_at(mids)) - np.tanh(mids))) < 1e-5

    def test_escape_matches_first_zero_of_linear_system(self):
        # homogeneous harmonic pair: phi = cos vanishes where y = psi/phi blows up
        sys = SystemSpec(*(parse_text(s) for s in ("0", "1", "-1", "0", "0", "0")), 0.0)
        traj = integrate_ode(sys.field(), [1.0, 0.0], (0.0, 3.0),
                             events=[zero_crossing(0)])
        first_zero = traj.events[0].time
        sol = solve_riccati(riccati_of_system(sys, span=(0.0, 3.0)), 0.0)
        assert sol.escape_time == pytest.approx(first_zero, abs=1e-4)

    @pytest.mark.parametrize("k, y0", [(0.5, 0.0), (1.0, 2.0), (1.0, -3.0),
                                       (2.0, 0.5), (3.0, 10.0)])
    def test_escape_time_matches_closed_form(self, k, y0):
        # y' = -(y^2 + k^2) is y = k tan(atan(y0/k) - k t), which falls to
        # -infinity at (pi/2 + atan(y0/k))/k; |y| passes 1e8 about 1e-8 earlier.
        # The end state is the dense output there, steep enough that a time
        # refined to root_tol leaves it a few percent off the threshold
        prob = constant_problem(1.0, 0.0, k * k, (0.0, 4.0 / k))
        sol = solve_riccati(prob, y0)
        assert sol.escaped()
        blowup = (math.pi / 2 + math.atan(y0 / k)) / k
        assert sol.escape_time == pytest.approx(blowup, abs=1e-6)
        assert sol.end_time == sol.escape_time
        assert sol.trajectory.states[-1, 0] == pytest.approx(-1e8, rel=0.05)

    def test_residual_vanishes_at_nodes(self):
        prob = RiccatiProblem(lambda t: 1.0, lambda t: 0.3 * math.cos(t),
                              lambda t: -0.5, (0.0, 3.0))
        sol = solve_riccati(prob, 0.2)
        ts = sol.trajectory.grid.nodes
        ys = sol.trajectory.states[:, 0]
        rates = sol.trajectory.derivs[:, 0]
        rhs = prob.field()
        residual = [dy - rhs(t, y) for t, y, dy in zip(ts, ys, rates)]
        assert np.max(np.abs(residual)) < 1e-12

    def test_residual_small_between_nodes(self):
        prob = RiccatiProblem(lambda t: 1.0, lambda t: 0.3 * math.cos(t),
                              lambda t: -0.5, (0.0, 3.0))
        sol = solve_riccati(prob, 0.2)
        curve = sol.trajectory.component(0)
        nodes = sol.trajectory.grid.nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        rhs = prob.field()
        residual = [slope(curve, t) - rhs(t, float(curve(t))) for t in mids]
        assert np.max(np.abs(residual)) < 1e-3


class TestInstanceValidation:
    def test_gamma_outside_range_rejected(self):
        prob = constant_problem(1.0, 0.0, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError, match="gamma"):
            ComparisonInstance(prob, prob, y2_start=0.0, span=(0.0, 1.0), gamma=5.0)

    def test_start_above_eta_rejected(self):
        prob = constant_problem(1.0, 0.0, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError, match="y2_start"):
            ComparisonInstance(prob, prob, y2_start=3.0, span=(0.0, 1.0),
                               eta1=lambda t: 0.0, eta2=lambda t: 0.0)

    def test_negative_quadratic_coefficient_rejected(self):
        bad = constant_problem(-1.0, 0.0, 0.0, (0.0, 1.0))
        good = constant_problem(1.0, 0.0, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            ComparisonInstance(bad, good, y2_start=0.0, span=(0.0, 1.0))

    @pytest.mark.parametrize("fcoef, message", [
        (lambda t: 1.0 / t, "float division by zero at t=0.0"),
        (lambda t: math.exp(1000.0 * t), "math range error at t=0.7109375"),
        (lambda t: math.sqrt(t - 0.5), "math domain error at t=0.0"),
    ])
    def test_coefficient_failure_names_the_time(self, fcoef, message):
        good = constant_problem(1.0, 0.0, 0.0, (0.0, 1.0))
        bad = RiccatiProblem(fcoef, lambda t: 0.0, lambda t: 0.0, (0.0, 1.0))
        with pytest.raises(ValueError) as caught:
            ComparisonInstance(bad, good, y2_start=0.0, span=(0.0, 1.0))
        assert str(caught.value) == message

    def test_defaults_are_filled(self):
        prob = constant_problem(1.0, 0.0, 0.0, (0.0, 1.0))
        inst = ComparisonInstance(prob, prob, y2_start=-0.25, span=(0.0, 1.0))
        assert inst.gamma == -0.25
        assert inst.eta1(0.5) == 1.0  # max(y2_start, 0) + offset 1
        assert inst.eta2(0.7) == 1.0


class TestCertificate:
    def test_identical_problems_give_zero_trace(self):
        prob = constant_problem(1.0, 0.1, -0.3, (0.0, 2.0))
        inst = ComparisonInstance(prob, prob, y2_start=0.0, span=(0.0, 2.0))
        report = comparison_certificate(inst)
        assert np.allclose(report.phi_trace, 0.0, atol=1e-12)
        assert report.holds

    def test_positive_gap_trace_increases(self):
        p1 = constant_problem(1.0, 0.0, -1.0, (0.0, 2.0))
        p2 = constant_problem(1.0, 0.0, 0.0, (0.0, 2.0))  # h2 - h1 = 1
        inst = ComparisonInstance(p1, p2, y2_start=0.0, span=(0.0, 2.0))
        report = comparison_certificate(inst)
        assert report.holds
        assert np.all(np.diff(report.phi_trace) > 0.0)

    def test_negative_gap_fails(self):
        p1 = constant_problem(1.0, 0.0, 0.0, (0.0, 2.0))
        p2 = constant_problem(1.0, 0.0, -1.0, (0.0, 2.0))  # h2 - h1 = -1
        inst = ComparisonInstance(p1, p2, y2_start=0.0, span=(0.0, 2.0))
        report = comparison_certificate(inst)
        assert not report.holds
        assert report.min_value < -1e-6

    def test_monotone_in_gamma(self):
        p1 = constant_problem(1.0, 0.0, 0.2, (0.0, 2.0))
        p2 = constant_problem(1.0, 0.0, 0.0, (0.0, 2.0))  # h2 - h1 = -0.2
        minima = []
        for gamma in np.linspace(0.0, 1.0, 6):
            inst = ComparisonInstance(p1, p2, y2_start=0.0, span=(0.0, 2.0),
                                      gamma=float(gamma))
            minima.append(comparison_certificate(inst).min_value)
        assert np.all(np.diff(minima) > 0.0)

    def test_truncated_at_escape(self):
        prob = constant_problem(1.0, 0.0, 1.0, (0.0, 3.0))
        inst = ComparisonInstance(prob, prob, y2_start=0.0, span=(0.0, 3.0))
        report = comparison_certificate(inst)
        assert report.escape_time == pytest.approx(math.pi / 2, abs=1e-4)
        assert report.grid.nodes[-1] < 3.0
        assert report.holds

    def test_squared_variant_changes_gap_weighting(self):
        # f2 - f1 = 2 so the squared bracket doubles the quadratic term
        p1 = RiccatiProblem(lambda t: 0.0, lambda t: 0.0, lambda t: 0.5, (0.0, 1.0))
        p2 = RiccatiProblem(lambda t: 2.0, lambda t: 0.0, lambda t: 0.5, (0.0, 1.0))
        inst = ComparisonInstance(p1, p2, y2_start=1.0, span=(0.0, 1.0),
                                  eta1=lambda t: 1.0, eta2=lambda t: 1.0)
        plain = comparison_certificate(inst, squared_variant=False)
        squared = comparison_certificate(inst, squared_variant=True)
        assert squared.phi_trace[-1] > plain.phi_trace[-1] > 0.0


class TestValidate:
    def test_identical_problems(self):
        prob = constant_problem(1.0, 0.0, -1.0, (0.0, 2.0))
        inst = ComparisonInstance(prob, prob, y2_start=0.0, span=(0.0, 2.0),
                                  eta1=lambda t: 0.0, eta2=lambda t: 0.0)
        report = comparison_validate(inst)
        assert report.passed
        assert report.min_difference == pytest.approx(0.0, abs=1e-9)

    def test_tanh_pair_ordering(self):
        # y2' = 1 - y2^2 from 0 is tanh; y1' = 2 - y1^2 from 1 stays above it
        p1 = constant_problem(1.0, 0.0, -2.0, (0.0, 2.0))
        p2 = constant_problem(1.0, 0.0, -1.0, (0.0, 2.0))
        inst = ComparisonInstance(p1, p2, y2_start=0.0, span=(0.0, 2.0))
        cert = comparison_certificate(inst)
        assert cert.holds  # h2 - h1 = 1 > 0
        report = comparison_validate(inst)
        assert report.passed and report.y1_exists

        t2 = report.y2.trajectory.grid.nodes
        y2_vals = report.y2.trajectory.states[:, 0]
        assert np.max(np.abs(y2_vals - np.tanh(t2))) < 1e-7
        shift = np.arctanh(1.0 / math.sqrt(2.0))
        t1 = report.y1.trajectory.grid.nodes
        expected_y1 = math.sqrt(2.0) * np.tanh(math.sqrt(2.0) * t1 + shift)
        y1_vals = report.y1.trajectory.states[:, 0]
        assert np.max(np.abs(y1_vals - expected_y1)) < 1e-7

    def test_linear_equation_solves_first_inequality(self):
        # with f1 >= 0, zeta' + g1 zeta + h1 = 0 gives inequality residual
        # f1 zeta^2 >= 0
        g1 = lambda t: 0.4 * math.cos(t)
        h1 = lambda t: -0.3
        f1 = lambda t: math.sin(t) ** 2
        zeta = integrate_ode(lambda t, y: np.array([-g1(t) * y[0] - h1(t)]),
                             [0.5], (0.0, 4.0), Tolerances(rel_tol=1e-10))
        curve = zeta.component(0)
        p1 = RiccatiProblem(f1, g1, h1, (0.0, 4.0))
        p2 = constant_problem(1.0, 0.0, 0.0, (0.0, 4.0))
        inst = ComparisonInstance(
            p1, p2, y2_start=0.0, span=(0.0, 4.0),
            eta1=lambda t: float(curve(t)),
            eta1_rate=lambda t: -g1(t) * float(curve(t)) - h1(t),
            eta2=lambda t: 1.0, eta2_rate=lambda t: 0.0)
        res1, _ = hypothesis_residuals(inst)
        assert res1 >= -1e-9

    def test_solution_of_second_solves_its_inequality(self):
        # a solution of equation 2 satisfies its inequality with equality
        p2 = RiccatiProblem(lambda t: 1.0, lambda t: 0.3 * math.cos(t),
                            lambda t: -0.5, (0.0, 3.0))
        sol = solve_riccati(p2, 0.2, Tolerances(rel_tol=1e-10))
        curve = sol.trajectory.component(0)
        p1 = constant_problem(1.0, 0.0, 0.0, (0.0, 3.0))
        inst = ComparisonInstance(
            p1, p2, y2_start=0.2, span=(0.0, 3.0),
            eta1=lambda t: 2.0, eta1_rate=lambda t: 0.0,
            eta2=lambda t: float(curve(t)),
            eta2_rate=lambda t: slope(curve, t))
        _, res2 = hypothesis_residuals(inst)
        assert abs(res2) < 1e-3

    def test_random_instances_pass(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            inst = random_comparison_instance(rng)
            report = comparison_validate(inst)
            assert report.passed, (report.min_difference, report.y1_exists)
            assert report.eta1_residual_min >= -1e-9
            assert report.eta2_residual_min >= -1e-9

    def test_determinism(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        r1 = comparison_validate(random_comparison_instance(rng1))
        r2 = comparison_validate(random_comparison_instance(rng2))
        assert r1.min_difference == r2.min_difference
