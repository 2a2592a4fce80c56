"""oscillint: oscillation and non-oscillation evidence for forced 2x2
linear first-order ODE systems and the second-order equations they absorb.

The package decides, with numerical certificates, whether every solution of

    phi' = p(t) phi + q(t) psi + f(t)
    psi' = r(t) phi + s(t) psi + g(t)

keeps vanishing arbitrarily late (oscillatory) or eventually stops
(non-oscillatory), and cross-checks each verdict by direct simulation.
"""

__version__ = "0.1.0"

from .expr import (
    DomainError,
    Expr,
    ExprError,
    ParseError,
    differentiate,
    eval_expr,
    parse_text,
    print_expr,
    sample,
)
from .numerics import (
    CubicHermiteCurve,
    EventSpec,
    Grid,
    IntegrationError,
    Tolerances,
    Trajectory,
    cumulative_integral,
    definite_simpson,
    integrate_ode,
    refine_root,
    zero_crossing,
)
from .transform import (
    AlphaTrace,
    RiccatiProblem,
    SecondOrderSpec,
    ShiftedSystem,
    SystemSpec,
    TransformError,
    alpha_lambda,
    reduce_equation,
    riccati_of_system,
    shift_system,
)
from .riccati import (
    CertificateReport,
    ComparisonInstance,
    RiccatiSolution,
    ValidationReport,
    comparison_certificate,
    comparison_validate,
    solve_riccati,
)
from .criteria import (
    INCONCLUSIVE,
    NON_OSCILLATORY,
    OSCILLATORY,
    HalfSine,
    IntervalWitness,
    Verdict,
    angle_line_crossings,
    check_nonoscillation,
    check_oscillation,
    check_undamped_equation,
    find_interval_witness,
    half_sine_bridge,
    lambda_feasibility,
    variational_functional,
)
from .oracle import (
    EmpiricalVerdict,
    Ensemble,
    default_ensemble,
    empirical_classification,
    export_trace,
    member_zero_times,
    simulate_ensemble,
)
from .cli import ProblemConfig, Report, load_config, run

__all__ = [name for name in dir() if not name.startswith("_")]
