"""Transform module tests against closed forms and independent integrations."""

import numpy as np
import pytest

from oscillint.expr import Constant, parse_text, print_expr, sample
from oscillint.numerics import Grid, Tolerances, integrate_ode
from oscillint.transform import (
    AlphaTrace,
    SecondOrderSpec,
    SystemSpec,
    TransformError,
    alpha_lambda,
    reduce_equation,
    riccati_of_system,
    shift_system,
)


def make_system(p="0", q="0", r="0", s="0", f="0", g="0", t0=0.0):
    return SystemSpec(parse_text(p), parse_text(q), parse_text(r), parse_text(s),
                      parse_text(f), parse_text(g), t0)


class TestAlphaLambda:
    def test_constant_when_unforced_and_driftless(self):
        sys = make_system(r="1", g="cos(t)")
        grid = Grid.uniform(0.0, 5.0, 257)
        trace = alpha_lambda(sys, 3.0, grid)
        assert np.allclose(trace.alpha, 3.0, atol=1e-12)
        assert np.allclose(trace.growth, 1.0, atol=1e-12)

    def test_linear_growth_under_unit_forcing(self):
        sys = make_system(f="1")
        grid = Grid.uniform(0.0, 4.0, 257)
        trace = alpha_lambda(sys, 0.0, grid)
        assert np.allclose(trace.alpha, grid.nodes, atol=1e-9)

    def test_exponential_closed_form(self):
        # alpha solves alpha' = alpha with alpha(0) = 2, so alpha = 2 e^t
        sys = make_system(p="1")
        grid = Grid.uniform(0.0, 3.0, 2048)
        trace = alpha_lambda(sys, 2.0, grid)
        expected = 2.0 * np.exp(grid.nodes)
        assert np.max(np.abs(trace.alpha - expected) / expected) < 1e-6

    def test_matches_direct_ode_integration(self):
        # quadrature trace vs integrating alpha' = p alpha + f directly
        sys = make_system(p="cos(t)", f="exp(-t/2)")
        grid = Grid.uniform(0.0, 5.0, 2048)
        trace = alpha_lambda(sys, 0.3, grid)
        field = lambda t, y: np.array([np.cos(t) * y[0] + np.exp(-t / 2.0)])
        traj = integrate_ode(field, [0.3], (0.0, 5.0), Tolerances(rel_tol=1e-10))
        probe = grid.nodes[::64]
        direct = np.array([float(traj.component(0)(t)) for t in probe])
        assert np.max(np.abs(trace.alpha_at(probe) - direct)) < 1e-6

    def test_affine_in_shift_parameter(self):
        sys = make_system(p="sin(t)", r="t", f="cos(t)", g="1")
        grid = Grid.uniform(0.0, 6.0, 513)
        base = alpha_lambda(sys, 0.0, grid)
        shifted = alpha_lambda(sys, 1.7, grid)
        assert np.allclose(shifted.alpha, base.growth * 1.7 + base.alpha,
                           rtol=0.0, atol=1e-11 * np.max(np.abs(shifted.alpha)))

    def test_derived_trace_is_bit_identical(self):
        # another lam's trace is read off the samples and integrals of the
        # first, with the same arithmetic as a fresh alpha_lambda
        sys = make_system(p="sin(t)", r="t - 2", f="cos(3 * t)", g="exp(-t)")
        grid = Grid.uniform(0.0, 6.0, 2048)
        base = alpha_lambda(sys, 0.0, grid)
        for lam in (-3.25, -0.0, 0.1, 1.7, 1e6):
            derived, fresh = base.at(lam), alpha_lambda(sys, lam, grid)
            assert derived.lam == fresh.lam
            for name in ("alpha", "g_lambda", "alpha_rate"):
                assert getattr(derived, name).tobytes() == getattr(fresh, name).tobytes(), name
        rows = base.alpha_rows([0.5, -2.0])
        assert rows.shape == (2, 2048)
        assert np.array_equal(rows[1], base.growth * -2.0 + base.alpha)

    def test_nonnegative_forcing_keeps_alpha_nonnegative(self):
        sys = make_system(p="sin(t)", f="t^2 * abs(sin(t))")
        grid = Grid.uniform(0.0, 8.0, 1025)
        trace = alpha_lambda(sys, 0.7, grid)
        assert np.min(trace.alpha) >= -1e-12

    def test_forcing_trace_combines_quotient_and_offset(self):
        sys = make_system(f="1", r="1")
        grid = Grid.uniform(0.0, 4.0, 257)
        trace = alpha_lambda(sys, 0.0, grid)
        assert np.allclose(trace.g_lambda, grid.nodes, atol=1e-9)

    def test_continuous_evaluation_between_nodes(self):
        sys = make_system(p="1")
        grid = Grid.uniform(0.0, 3.0, 2048)
        trace = alpha_lambda(sys, 2.0, grid)
        mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        expected = 2.0 * np.exp(mids)
        assert np.max(np.abs(trace.alpha_at(mids) - expected) / expected) < 1e-6
        t_probe = float(mids[100])
        scalar = trace.g_lambda_at(t_probe)
        vector = trace.g_lambda_at(np.array([t_probe]))[0]
        assert scalar == pytest.approx(vector, abs=0.0)

    def test_grid_must_start_at_t0(self):
        sys = make_system(p="1", t0=0.0)
        with pytest.raises(ValueError, match="start"):
            alpha_lambda(sys, 0.0, Grid.uniform(1.0, 2.0, 65))


class TestReduceEquation:
    def equation(self, a, b, c, d, t0=0.0):
        return SecondOrderSpec(parse_text(a), parse_text(b), parse_text(c),
                               parse_text(d), t0)

    def test_harmonic_forced(self):
        sys = reduce_equation(self.equation("1", "0", "1", "sin(t)"))
        forms = [print_expr(e) for e in (sys.p, sys.q, sys.r, sys.s, sys.f, sys.g)]
        assert forms == ["0", "1", "-1", "0", "0", "sin(t)"]

    def test_sign_flip_of_restoring_coefficient(self):
        sys = reduce_equation(self.equation("1", "0", "-1", "-exp(-t)"))
        assert print_expr(sys.r) == "1"
        assert print_expr(sys.g) == "-exp(-t)"

    def test_constant_leading_coefficient_folds(self):
        sys = reduce_equation(self.equation("2", "0", "1", "0"))
        assert isinstance(sys.q, Constant) and sys.q.value == 0.5

    def test_variable_leading_coefficient_values(self):
        sys = reduce_equation(self.equation("exp(t)", "1", "t", "0"))
        ts = np.linspace(0.0, 2.0, 41)
        assert np.allclose(sample(sys.q, ts), np.exp(-ts), atol=1e-14)
        assert np.allclose(sample(sys.s, ts), -np.exp(-ts), atol=1e-14)
        assert np.allclose(sample(sys.r, ts), -ts, atol=1e-14)

    def test_reduced_system_reproduces_equation_solution(self):
        # integrate the reduced system and, separately, the scalar equation
        # phi'' = (d - (a' + b) phi' - c phi) / a; the phi components must agree
        eq = self.equation("exp(t)", "1", "t", "0")
        sys = reduce_equation(eq)
        traj = integrate_ode(sys.field(), [1.0, 0.5], (0.0, 2.0),
                             Tolerances(rel_tol=1e-10))

        def scalar_field(t, y):
            a = np.exp(t)
            return np.array([y[1], (0.0 - (a + 1.0) * y[1] - t * y[0]) / a])

        ref = integrate_ode(scalar_field, [1.0, 0.5], (0.0, 2.0),
                            Tolerances(rel_tol=1e-10))
        probe = np.linspace(0.0, 2.0, 21)
        ours = np.array([float(traj.component(0)(t)) for t in probe])
        theirs = np.array([float(ref.component(0)(t)) for t in probe])
        assert np.max(np.abs(ours - theirs)) < 1e-6

    def test_rejects_nonpositive_leading_coefficient(self):
        with pytest.raises(TransformError, match="positive"):
            self.equation("cos(t)", "0", "1", "0").validate_on(Grid.uniform(0.0, 3.0, 257))

    def test_rejects_zero_constant_leading_coefficient(self):
        with pytest.raises(TransformError):
            reduce_equation(self.equation("0", "0", "1", "0"))


class TestShiftSystem:
    def test_unforced_shift_is_identity(self):
        sys = make_system(q="1", r="t + 1", g="cos(t)")
        grid = Grid.uniform(0.0, 5.0, 257)
        shifted = shift_system(sys, 0.0, grid)
        assert np.allclose(shifted.trace.alpha, 0.0, atol=1e-15)
        assert np.allclose(shifted.trace.g_lambda, np.cos(grid.nodes), atol=1e-15)

    def test_forced_harmonic_keeps_sine_forcing(self):
        eq = SecondOrderSpec(parse_text("1"), parse_text("0"), parse_text("1"),
                             parse_text("sin(t)"), 0.0)
        sys = reduce_equation(eq)
        grid = Grid.uniform(0.0, 10.0, 513)
        shifted = shift_system(sys, 0.0, grid)
        assert np.allclose(shifted.trace.g_lambda, np.sin(grid.nodes), atol=1e-15)

    def test_first_equation_forcing_migrates(self):
        sys = make_system(f="1", r="1")
        grid = Grid.uniform(0.0, 4.0, 257)
        shifted = shift_system(sys, 0.0, grid)
        assert np.allclose(shifted.trace.g_lambda_at(grid.nodes), grid.nodes, atol=1e-9)

    def test_field_matches_trace(self):
        sys = make_system(p="0", q="1", r="-1", s="0", f="sin(t)", g="1")
        grid = Grid.uniform(0.0, 4.0, 513)
        shifted = shift_system(sys, 0.5, grid)
        rhs = shifted.field()(1.3, np.array([2.0, -1.0]))
        expected_second = -2.0 + shifted.trace.g_lambda_at(1.3)
        assert rhs[0] == pytest.approx(-1.0)
        assert rhs[1] == pytest.approx(expected_second)


class TestRiccatiCorrespondence:
    def test_homogeneous_harmonic_coefficients(self):
        sys = make_system(q="1", r="-1")
        prob = riccati_of_system(sys, span=(0.0, 1.0))
        for t in (0.0, 0.3, 0.9):
            assert prob.fcoef(t) == 1.0
            assert prob.gcoef(t) == 0.0
            assert prob.hcoef(t) == 1.0

    def test_pure_square_case(self):
        sys = make_system(q="1")
        prob = riccati_of_system(sys, span=(0.0, 2.0))
        assert prob.hcoef(1.0) == 0.0
        assert prob.field()(1.0, 2.0) == -4.0

    def test_span_required_without_trace(self):
        with pytest.raises(TypeError, match="span"):
            riccati_of_system(make_system(q="1"))


class TestValidation:
    def test_system_validation_reports_bad_coefficient(self):
        sys = make_system(q="log(t - 1)")
        with pytest.raises(TransformError, match="coefficient q"):
            sys.validate_on(Grid.uniform(0.0, 2.0, 65))

    def test_system_validation_passes_smooth_coefficients(self):
        sys = make_system(p="sin(t)", q="exp(-t)", r="t^2", g="sqrt(t + 1)")
        sys.validate_on(Grid.uniform(0.0, 5.0, 65))

    def test_alpha_trace_exposes_system(self):
        sys = make_system(f="1", r="1")
        grid = Grid.uniform(0.0, 1.0, 65)
        trace = alpha_lambda(sys, 0.0, grid)
        assert isinstance(trace, AlphaTrace)
        assert trace.system is sys
