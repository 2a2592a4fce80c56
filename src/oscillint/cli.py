"""Command line front end: JSON configuration in, verdict and reports out.

Subcommands
    analyze   run the non-oscillation check, then the oscillation check,
              then cross-validate against a simulated ensemble
    oracle    simulation only
    riccati   solve the scalar quadratic problem matched to the system
    reduce    print the first-order system equivalent to an equation input
    wong      variational oscillation check for undamped equations
    compare   evaluate the comparison certificate between two scalar problems
    sweep     dump the shift-parameter feasibility landscape

Exit codes: 10 oscillatory, 20 non-oscillatory, 30 inconclusive, 0 ran
without a verdict (riccati/reduce/compare/sweep), 1 error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import (
    INCONCLUSIVE,
    NON_OSCILLATORY,
    OSCILLATORY,
    SIGN_SLACK,
    DEFAULT_LAMBDA_POINTS,
    IntervalWitness,
    Verdict,
    check_nonoscillation,
    check_oscillation,
    check_undamped_equation,
    default_lambda_grid,
    lambda_feasibility,
)
from .expr import DomainError, Expr, ExprError, compile_scalar, parse_text, print_expr
from .numerics import Grid, IntegrationError, Tolerances
from .oracle import (
    DEFAULT_ENSEMBLE_SIZE,
    DEFAULT_FINAL_WINDOW_FRACTION,
    DEFAULT_SEED,
    NONOSCILLATORY_OBSERVED,
    OSCILLATORY_OBSERVED,
    EmpiricalVerdict,
    default_ensemble,
    empirical_classification,
    export_trace,
    simulate_ensemble,
)
from .riccati import (
    CertificateReport,
    CoefficientError,
    ComparisonInstance,
    ValidationReport,
    comparison_certificate,
    comparison_validate,
    solve_riccati,
)
from .transform import (
    DEFAULT_GRID_NODES,
    PROBE_POINTS,
    RiccatiProblem,
    SecondOrderSpec,
    SystemSpec,
    TransformError,
    alpha_lambda,
    probe_failure,
    reduce_equation,
    riccati_of_system,
)

SUBCOMMANDS = ("analyze", "oracle", "riccati", "reduce", "wong", "compare", "sweep")

EXIT_RAN = 0
EXIT_ERROR = 1
EXIT_OSCILLATORY = 10
EXIT_NON_OSCILLATORY = 20
EXIT_INCONCLUSIVE = 30

_OUTCOME_EXIT = {
    OSCILLATORY: EXIT_OSCILLATORY,
    NON_OSCILLATORY: EXIT_NON_OSCILLATORY,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}
_OBSERVED_EXIT = {
    OSCILLATORY_OBSERVED: EXIT_OSCILLATORY,
    NONOSCILLATORY_OBSERVED: EXIT_NON_OSCILLATORY,
}


class ConfigError(ValueError):
    """Bad configuration; the message names the offending field path."""


# ---------------------------------------------------------------------------
# configuration loading


def _ensure_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown field '{key}'")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number")
    return number


def _integer(value, path: str) -> int:
    _number(value, path)
    if float(value) != int(value):
        raise ConfigError(f"{path}: expected an integer")
    return int(value)


def _expression(value, path: str) -> Expr:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected an expression string")
    try:
        return parse_text(value)
    except ExprError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _number_list(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty array of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _number_pair(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lo, hi]")
    return _number_list(value, path)


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _between(low: int, high: int):
    def check(value, read):
        if value < low:
            return f"must be at least {low}"
        return None if value <= high else f"must be at most {high}"
    return check


def _in_horizon(values, read):
    """Each reference time must lie in [t0, horizon)."""
    for i, t in enumerate(values):
        if not read["t0"] <= t < read["horizon"]:
            raise ConfigError(f"scan.values[{i}]: must lie in [t0, horizon)")


def _span_error(lo: float, hi: float, unordered: str, width: str) -> str | None:
    """hi must exceed lo by a finite width, so that grids on [lo, hi] hold
    finite times."""
    if not hi > lo:
        return unordered
    return None if math.isfinite(hi - lo) else f"{width} must be finite"


_REQUIRED = object()

# One row per setting: (path, reader, default, check).  A check takes the
# value and the settings read before it and returns an error text or None;
# a check of a list's elements raises the error itself, naming the element.
# A default of None makes the setting optional; null then stays null.
# A section that holds a required setting is itself required, except the
# problem block that is not given and an absent or null `compare`, whose
# settings are skipped.  The echo lists the settings in this order.
_SETTINGS = (
    *((f"system.{k}", _expression, "0", None) for k in "pqrsfg"),
    ("equation.a", _expression, "1", None),
    *((f"equation.{k}", _expression, "0", None) for k in "bcd"),
    ("t0", _number, 0.0, None),
    ("horizon", _number, _REQUIRED,
     lambda value, read: _span_error(read["t0"], value, "must exceed t0", "horizon - t0")),
    # the upper bounds keep the witness search's (4 x lambda values, grid
    # nodes) margins to about 256 MiB and the oracle's arrays small
    ("grid_nodes", _integer, DEFAULT_GRID_NODES, _between(64, 16384)),
    *((f"tolerances.{f.name}", _number, f.default, None) for f in fields(Tolerances)),
    ("lambda.values", _number_list, None,
     lambda value, read: None if len(value) <= 512 else "must hold at most 512 values"),
    ("lambda.points", _integer, DEFAULT_LAMBDA_POINTS, _between(2, 512)),
    ("scan.values", _number_list, None, _in_horizon),
    ("periodic", _number, None,
     lambda value, read: None if value > 0 else "must be positive"),
    ("oracle.seed", _integer, DEFAULT_SEED, None),
    ("oracle.size", _integer, DEFAULT_ENSEMBLE_SIZE, _between(2, 1024)),
    ("oracle.final_window_fraction", _number, DEFAULT_FINAL_WINDOW_FRACTION,
     lambda value, read: None if 0.0 < value <= 1.0 else "must lie in (0, 1]"),
    ("riccati.y0", _number, 0.0, None),
    *((f"compare.{p}.{k}", _expression, _REQUIRED, None)
      for p in ("problem1", "problem2") for k in "fgh"),
    ("compare.span", _number_pair, _REQUIRED,
     lambda value, read: _span_error(*value, "must be a finite increasing pair", "hi - lo")),
    ("compare.y2_start", _number, _REQUIRED, None),
    ("compare.gamma", _number, None, None),
    ("compare.eta_offset", _number, 1.0, None),
    ("compare.squared_variant", _flag, False, None),
)


def _keys_by_section() -> dict:
    """The keys each section may hold, nested sections included; the
    top level is the section ''."""
    keys = {}
    for path, *_ in _SETTINGS:
        parts = path.split(".")
        for depth, part in enumerate(parts):
            keys.setdefault(".".join(parts[:depth]), {})[part] = None
    return keys


_SECTION_KEYS = _keys_by_section()
_REQUIRED_SECTIONS = {path.rpartition(".")[0]
                      for path, _, default, _ in _SETTINGS if default is _REQUIRED}


@dataclass(frozen=True, eq=False)
class ProblemConfig:
    """Validated run inputs with every default materialized.

    `effective` is the JSON-ready echo of the whole configuration; feeding
    it back through load_config reproduces this object and hence the report.
    Each setting outside the problem block, `tolerances` and the comparison
    instance is the field named by its path, with '.' read as '_'.
    """

    system: SystemSpec | None
    equation: SecondOrderSpec | None
    t0: float
    horizon: float
    grid_nodes: int
    tolerances: Tolerances
    lambda_values: tuple | None
    lambda_points: int
    scan_values: tuple | None
    periodic: float | None
    oracle_seed: int
    oracle_size: int
    oracle_final_window_fraction: float
    riccati_y0: float
    compare: ComparisonInstance | None
    effective: dict = field(repr=False)
    compare_squared_variant: bool = False

    def working_system(self) -> SystemSpec:
        if self.system is not None:
            return self.system
        return reduce_equation(self.equation)

    def span(self) -> tuple:
        return (self.t0, self.horizon)


def _echo(given, value):
    """JSON form of a setting: expressions as written, arrays as lists."""
    if isinstance(value, Expr):
        return given
    return list(value) if isinstance(value, tuple) else value


def _group(read: dict, section: str) -> dict:
    """Remove one section's settings from `read`, keyed by field name."""
    return {key: read.pop(f"{section}.{key}") for key in _SECTION_KEYS[section]}


def _comparison(read: dict) -> ComparisonInstance:
    """Remove the comparison instance's settings from `read` and build it;
    each coefficient must evaluate at the probe points of the span."""
    span = read.pop("compare.span")
    problems = []
    for name in ("problem1", "problem2"):
        paths = [f"compare.{name}.{k}" for k in "fgh"]
        for path in paths:
            try:
                probe_failure(read[path], *span)
            except DomainError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        problems.append(RiccatiProblem(*(compile_scalar(read.pop(path)) for path in paths),
                                       span))
    try:
        return ComparisonInstance(*problems, read.pop("compare.y2_start"), span,
                                  gamma=read.pop("compare.gamma"),
                                  eta_offset=read.pop("compare.eta_offset"))
    except ValueError as exc:
        raise ConfigError(f"compare: {exc}") from None


def config_from_dict(raw: dict) -> ProblemConfig:
    raw = _ensure_mapping(raw, "config")
    _reject_unknown(raw, _SECTION_KEYS[""], "config")
    if ("system" in raw) == ("equation" in raw):
        raise ConfigError("config: exactly one of 'system' and 'equation' "
                          "must be present")
    skipped = {name for name in ("system", "equation") if name not in raw}
    if raw.get("compare") is None:
        skipped.add("compare")

    read = {}
    effective = {}
    for path, reader, default, check in _SETTINGS:
        if path.partition(".")[0] in skipped:
            continue
        *names, key = path.split(".")
        given_in, echo_in = raw, effective
        for depth, name in enumerate(names, 1):
            section = ".".join(names[:depth])
            if name not in given_in and section in _REQUIRED_SECTIONS:
                raise ConfigError(f"{section}: required")
            given_in = _ensure_mapping(given_in.get(name, {}), section)
            _reject_unknown(given_in, _SECTION_KEYS[section], section)
            echo_in = echo_in.setdefault(name, {})
        given = given_in.get(key, default)
        if given is _REQUIRED:
            raise ConfigError(f"{path}: required")
        value = None
        if given is not None or default is not None:
            value = reader(given, path)
            error = check and check(value, read)
            if error:
                raise ConfigError(f"{path}: {error}")
        read[path] = value
        echo_in[key] = _echo(given, value)

    system = equation = None
    if "system" in raw:
        system = SystemSpec(**_group(read, "system"), t0=read["t0"])
    else:
        equation = SecondOrderSpec(**_group(read, "equation"), t0=read["t0"])
    try:
        tolerances = Tolerances(**_group(read, "tolerances"))
    except ValueError as exc:
        raise ConfigError(f"tolerances: {exc}") from None
    compare = None if "compare" in skipped else _comparison(read)
    return ProblemConfig(system=system, equation=equation,
                         tolerances=tolerances, compare=compare,
                         effective=effective,
                         **{path.replace(".", "_"): value
                            for path, value in read.items()})


def _read_config(path) -> dict:
    """Read a JSON configuration file; returns its top-level object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    return _ensure_mapping(raw, "config")


def load_config(path) -> ProblemConfig:
    """Read, parse, and validate a JSON configuration file."""
    return config_from_dict(_read_config(path))


# ---------------------------------------------------------------------------
# reports


def to_jsonable(obj):
    """Flatten result objects into JSON-ready primitives.

    Non-finite floats become the strings "inf"/"-inf"/"nan" since JSON has
    no spelling for them.
    """
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        # cast: np.float64 subclasses float but repr()s differently
        if math.isfinite(obj):
            return float(obj)
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Verdict):
        return {"outcome": obj.outcome, "horizon": to_jsonable(obj.horizon),
                "notes": obj.notes, "evidence": to_jsonable(obj.evidence)}
    if isinstance(obj, IntervalWitness):
        return to_jsonable(asdict(obj))
    if isinstance(obj, EmpiricalVerdict):
        return {"outcome": obj.outcome,
                "window": to_jsonable(obj.window),
                "zero_counts": to_jsonable(obj.zero_counts),
                "last_zero_per_member": to_jsonable(obj.last_zero_per_member),
                "trivial_members": to_jsonable(obj.trivial_members)}
    if isinstance(obj, CertificateReport):
        return {"holds": obj.holds,
                "min_value": to_jsonable(obj.min_value),
                "final_value": to_jsonable(float(obj.phi_trace[-1])),
                "slack": obj.slack,
                "escape_time": to_jsonable(obj.escape_time),
                "squared_variant": obj.squared_variant,
                "grid_nodes": len(obj.grid)}
    if isinstance(obj, ValidationReport):
        return {"passed": obj.passed, "y1_exists": obj.y1_exists,
                "min_difference": to_jsonable(obj.min_difference),
                "eta1_residual_min": to_jsonable(obj.eta1_residual_min),
                "eta2_residual_min": to_jsonable(obj.eta2_residual_min),
                "span_checked": to_jsonable(obj.span_checked),
                "y1_end_time": to_jsonable(obj.y1.end_time),
                "y2_end_time": to_jsonable(obj.y2.end_time)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, list):
        return "[]"
    return str(value)


def _dump_lines(obj, indent: int) -> list:
    pad = "  " * indent
    out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                out.append(f"{pad}{key}:")
                out.extend(_dump_lines(value, indent + 1))
            else:
                out.append(f"{pad}{key}: {_scalar_text(value)}".rstrip())
    else:
        for value in obj:
            if isinstance(value, (dict, list)) and value:
                out.append(f"{pad}-")
                out.extend(_dump_lines(value, indent + 1))
            else:
                out.append(f"{pad}- {_scalar_text(value)}")
    return out


@dataclass(eq=False)
class Report:
    """Everything one run produced; text and JSON renderings carry the
    same facts because both are generated from to_dict()."""

    subcommand: str
    verdict: Verdict | None = None
    empirical: EmpiricalVerdict | None = None
    certificate: CertificateReport | None = None
    validation: ValidationReport | None = None
    details: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {"subcommand": self.subcommand}
        for name in ("verdict", "empirical", "certificate", "validation"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = to_jsonable(value)
        if self.details:
            doc["details"] = to_jsonable(self.details)
        doc["provenance"] = to_jsonable(self.provenance)
        return doc

    def render_text(self) -> str:
        lines = [f"oscillint {__version__} - {self.subcommand}"]
        lines.extend(_dump_lines(self.to_dict(), 0))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def exit_code(self) -> int:
        if self.verdict is not None:
            return _OUTCOME_EXIT[self.verdict.outcome]
        if self.empirical is not None:
            return _OBSERVED_EXIT.get(self.empirical.outcome,
                                      EXIT_INCONCLUSIVE)
        return EXIT_RAN


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _report_paths(out_path) -> tuple:
    """The text report's path and its JSON sibling's."""
    out_path = Path(out_path)
    json_path = out_path.with_suffix(".json")
    if json_path == out_path:
        json_path = out_path.with_name(out_path.name + ".json")
    return out_path, json_path


def write_report(report: Report, out_path) -> tuple:
    """Write the text report and its JSON sibling atomically."""
    out_path, json_path = _report_paths(out_path)
    _atomic_write(out_path, report.render_text())
    _atomic_write(json_path, report.render_json())
    return out_path, json_path


# ---------------------------------------------------------------------------
# subcommands


def _simulate(config: ProblemConfig, sys_spec: SystemSpec, dump_traces):
    ens = default_ensemble(config.span(), seed=config.oracle_seed,
                           size=config.oracle_size)
    trajectories = simulate_ensemble(sys_spec, ens, config.tolerances)
    verdict = empirical_classification(trajectories,
                                       config.oracle_final_window_fraction)
    names = []
    if dump_traces is not None:
        directory = Path(dump_traces)
        directory.mkdir(parents=True, exist_ok=True)
        for idx, traj in enumerate(trajectories):
            name = f"member_{idx:02d}.csv"
            export_trace(traj, directory / name)
            names.append(name)
    return verdict, names


def _validate_problem(config: ProblemConfig) -> None:
    probe = Grid.uniform(config.t0, config.horizon, PROBE_POINTS)
    (config.system or config.equation).validate_on(probe)


def _run_analyze(config: ProblemConfig, dump_traces) -> Report:
    sys_spec = config.working_system()
    horizon = config.span()
    non = check_nonoscillation(sys_spec, horizon, config.grid_nodes,
                               config.tolerances)
    details = {}
    if non.outcome == NON_OSCILLATORY:
        verdict = non
    else:
        osc = check_oscillation(sys_spec, horizon, scan=config.scan_values,
                                lambda_grid=config.lambda_values,
                                lambda_points=config.lambda_points,
                                grid_nodes=config.grid_nodes,
                                periodic=config.periodic,
                                tol=config.tolerances)
        if osc.outcome == OSCILLATORY:
            verdict = osc
            details["nonoscillation_notes"] = non.notes
        else:
            verdict = Verdict(
                INCONCLUSIVE, horizon,
                notes=f"neither direction certified; non-oscillation: "
                      f"{non.notes}; oscillation: {osc.notes}")

    empirical, names = _simulate(config, sys_spec, dump_traces)
    if names:
        details["trace_files"] = names
    agrees = None
    if verdict.outcome == OSCILLATORY:
        agrees = empirical.outcome != NONOSCILLATORY_OBSERVED
    elif verdict.outcome == NON_OSCILLATORY:
        agrees = empirical.outcome != OSCILLATORY_OBSERVED
    if agrees is not None:
        details["oracle_agrees"] = agrees
    return Report("analyze", verdict=verdict, empirical=empirical,
                  details=details)


def _run_oracle(config: ProblemConfig, dump_traces) -> Report:
    empirical, names = _simulate(config, config.working_system(), dump_traces)
    details = {"trace_files": names} if names else {}
    return Report("oracle", empirical=empirical, details=details)


def _run_riccati(config: ProblemConfig) -> Report:
    sys_spec = config.working_system()
    if sys_spec.is_forced():
        raise ConfigError(
            "riccati: the scalar correspondence needs an unforced system "
            "(f = 0, g = 0); use 'compare' for forced scalar problems")
    prob = riccati_of_system(sys_spec, config.span())
    sol = solve_riccati(prob, config.riccati_y0, config.tolerances)
    details = {
        "y0": config.riccati_y0,
        "end_time": sol.end_time,
        "escape_time": sol.escape_time,
        "blew_up": sol.escaped(),
        "end_reason": sol.trajectory.end_reason,
        "final_value": float(sol.trajectory.states[-1, 0]),
        "steps": len(sol.trajectory.grid),
    }
    return Report("riccati", details=details)


def _run_reduce(config: ProblemConfig) -> Report:
    if config.equation is None:
        raise ConfigError("reduce: an 'equation' input is required")
    sys_spec = reduce_equation(config.equation)
    details = {"system": {name: print_expr(coef) for name, coef
                          in sys_spec.coefficients().items()}}
    return Report("reduce", details=details)


def _run_wong(config: ProblemConfig) -> Report:
    if config.equation is None:
        raise ConfigError("wong: an 'equation' input is required")
    verdict = check_undamped_equation(config.equation, config.span(),
                                      scan=config.scan_values,
                                      grid_nodes=config.grid_nodes)
    return Report("wong", verdict=verdict)


def _run_compare(config: ProblemConfig) -> Report:
    if config.compare is None:
        raise ConfigError("compare: a 'compare' section is required")
    try:
        cert = comparison_certificate(config.compare,
                                      squared_variant=config.compare_squared_variant,
                                      grid_nodes=config.grid_nodes,
                                      tol=config.tolerances)
    except CoefficientError as exc:  # fails between the probe points of the load
        raise ConfigError(f"compare.{exc}") from None
    val = comparison_validate(config.compare, tol=config.tolerances, y2=cert.y2)
    details = {"agreement": cert.holds == val.passed}
    return Report("compare", certificate=cert, validation=val, details=details)


def _run_sweep(config: ProblemConfig) -> Report:
    sys_spec = config.working_system()
    grid = Grid.uniform(config.t0, config.horizon, config.grid_nodes)
    base = alpha_lambda(sys_spec, 0.0, grid)
    interval = lambda_feasibility(sys_spec, grid, base)
    lams = (list(config.lambda_values) if config.lambda_values is not None
            else default_lambda_grid(sys_spec, grid, base,
                                     config.lambda_points))
    alphas = base.alpha_rows(lams)
    rows = []
    for lam, alpha, coupling in zip(lams, alphas, base.r * alphas + base.g):
        margin_alpha = float(np.min(alpha))
        margin_coupling = float(np.min(coupling))
        rows.append({"lam": lam, "alpha_margin": margin_alpha,
                     "coupling_margin": margin_coupling,
                     "feasible": bool(min(margin_alpha, margin_coupling)
                                      >= -SIGN_SLACK and lam >= 0.0)})
    details = {"feasible_interval": interval, "rows": rows}
    return Report("sweep", details=details)


def run(subcommand: str, config: ProblemConfig, dump_traces=None) -> Report:
    """Dispatch one subcommand on a validated configuration."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    _validate_problem(config)
    if subcommand == "analyze":
        report = _run_analyze(config, dump_traces)
    elif subcommand == "oracle":
        report = _run_oracle(config, dump_traces)
    elif subcommand == "riccati":
        report = _run_riccati(config)
    elif subcommand == "reduce":
        report = _run_reduce(config)
    elif subcommand == "wong":
        report = _run_wong(config)
    elif subcommand == "compare":
        report = _run_compare(config)
    else:
        report = _run_sweep(config)
    report.provenance = {"tool_version": __version__, "config": config.effective}
    return report


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillint",
        description="Oscillation and non-oscillation evidence for forced "
                    "2x2 linear first-order systems.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="JSON problem configuration")
    parser.add_argument("--horizon", type=float, metavar="T",
                        help="override the configured horizon")
    parser.add_argument("--periodic", type=float, metavar="P",
                        help="treat coefficients as P-periodic")
    parser.add_argument("--dump-traces", metavar="DIR",
                        help="write one CSV per ensemble member")
    parser.add_argument("--out", metavar="FILE",
                        help="write the text report here plus a .json sibling")
    parser.add_argument("--version", action="version",
                        version=f"oscillint {__version__}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None and Path(args.config).resolve() in \
            [path.resolve() for path in _report_paths(args.out)]:
        print(f"oscillint: error: --out {args.out} would write a report over "
              f"the config {args.config}", file=sys.stderr)
        return EXIT_ERROR
    try:
        raw = _read_config(args.config)
        if args.horizon is not None:
            raw["horizon"] = args.horizon
        if args.periodic is not None:
            raw["periodic"] = args.periodic
        config = config_from_dict(raw)
        report = run(args.subcommand, config, dump_traces=args.dump_traces)
    except (ConfigError, ExprError, TransformError, IntegrationError,
            ValueError, OSError) as exc:
        print(f"oscillint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    output = report.render_text()
    sys.stdout.write(output)
    if args.out is not None:
        write_report(report, args.out)
    return report.exit_code()


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
