"""Spans and counters around oscillint's public functions, from outside.

`Tracer.install()` replaces each traced function wherever the package has
bound it: the defining module, every module that imported it by name (for
example `criteria.integrate_ode`, `oracle.integrate_ode`,
`transform.sample`) and the package namespace.  `uninstall()` puts the
originals back.  Spans (name, start, end, parent, problem id) stay in
memory in flat arrays and are written out once, at the end.

A span's self time is its duration minus the time its child spans cover.
Functions that are only counted (compiled scalar closures, Hermite
evaluation, field builds) open no span, so their time stays with the
caller.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from oscillint import cli, criteria, expr, numerics, oracle, riccati, transform
import oscillint

MODULES = {"oscillint": oscillint, "cli": cli, "criteria": criteria,
           "expr": expr, "numerics": numerics, "oracle": oracle,
           "riccati": riccati, "transform": transform}

# (defining module, function name, span name)
SPANNED = [
    ("expr", "sample", "expr.sample"),
    ("numerics", "refine_root", "numerics.refine_root"),
    ("numerics", "cumulative_integral", "numerics.cumulative_integral"),
    ("transform", "alpha_lambda", "transform.alpha_lambda"),
    ("criteria", "check_nonoscillation", "criteria.check_nonoscillation"),
    ("criteria", "check_oscillation", "criteria.check_oscillation"),
    ("criteria", "find_interval_witness", "criteria.find_interval_witness"),
    ("criteria", "check_undamped_equation",
     "criteria.check_undamped_equation"),
    ("oracle", "simulate_ensemble", "oracle.simulate_ensemble"),
    ("oracle", "empirical_classification", "oracle.empirical_classification"),
    ("riccati", "solve_riccati", "riccati.solve_riccati"),
    ("riccati", "comparison_certificate", "riccati.comparison_certificate"),
    ("riccati", "comparison_validate", "riccati.comparison_validate"),
    ("riccati", "hypothesis_residuals", "riccati.hypothesis_residuals"),
    ("cli", "config_from_dict", "cli.config_from_dict"),
    ("cli", "run", "cli.run"),
]

class Tracer:
    def __init__(self):
        self.names: list = []
        self._ix: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.problem = array("q")
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.problem_id = -1
        self._stack: list = []
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def _index(self, name: str) -> int:
        if name not in self._ix:
            self._ix[name] = len(self.names)
            self.names.append(name)
        return self._ix[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        ix = self._index(name)
        stack = self._stack
        i = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(ix)
        self.problem.append(self.problem_id)
        self.counts[name + ".calls"] += 1
        frame = [i, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.start[i] = t0
            self.end[i] = t1
            self.self_s[name] += (t1 - t0) - frame[1]
            if stack:
                stack[-1][1] += t1 - t0

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- wrappers with counters ----------------------------------------------

    def _sample(self, fn):
        def sample(e, ts):
            self.counts["expr.sample.points"] += int(np.size(ts))
            return self.call("expr.sample", fn, e, ts)
        return sample

    def _refine_root(self, fn):
        def refine_root(f, lo, hi, *args, **kwargs):
            def counted(t):
                self.counts["numerics.refine_root.fn_evals"] += 1
                return f(t)
            return self.call("numerics.refine_root", fn, counted, lo, hi,
                             *args, **kwargs)
        return refine_root

    def _find_interval_witness(self, fn):
        def find_interval_witness(*args, **kwargs):
            out = self.call("criteria.find_interval_witness", fn,
                            *args, **kwargs)
            if out is not None:
                self.counts["criteria.find_interval_witness.found"] += 1
            return out
        return find_interval_witness

    def _simulate_ensemble(self, fn):
        def simulate_ensemble(sys, ens, *args, **kwargs):
            self.counts["oracle.simulate_ensemble.members"] += len(ens)
            return self.call("oracle.simulate_ensemble", fn, sys, ens,
                             *args, **kwargs)
        return simulate_ensemble

    def _solve_riccati(self, fn):
        def solve_riccati(*args, **kwargs):
            sol = self.call("riccati.solve_riccati", fn, *args, **kwargs)
            if sol.escaped():
                self.counts["riccati.solve_riccati.escapes"] += 1
            return sol
        return solve_riccati

    def _integrate_ode(self, fn, site: str):
        """One wrapper per import site, so each site's solves are told apart."""
        default_tol = inspect.signature(fn).parameters["tolerances"].default
        counts = self.counts

        def integrate_ode(field_fn, y0, span, tolerances=default_tol,
                          events=(), max_step=None):
            kind = "numerics.ode_events" if events else "numerics.ode_plain"
            evals = [0]

            def counted(t, y):
                evals[0] += 1
                return field_fn(t, y)

            traj = self.call(kind, fn, counted, y0, span, tolerances,
                             events, max_step)
            accepted = len(traj.grid) - 1
            counts[kind + ".accepted_steps"] += accepted
            # each accepted or rejected step costs 6 evaluations (FSAL), plus
            # one at the start; a failed stage or a blow-up refinement adds
            # fewer than 6, which the floor drops
            counts[kind + ".rejected_steps"] += max(
                0, (evals[0] - 1 - 6 * accepted) // 6)
            counts[kind + ".field_evals"] += evals[0]
            counts[kind + ".events"] += len(traj.events)
            if site == "criteria":
                counts["criteria.angle_solves"] += 1
            elif site == "oracle":
                counts["oracle.accepted_steps"] += accepted
                counts["oracle.zero_crossings"] += sum(
                    ev.kind == "zero-crossing" for ev in traj.events)
            return traj
        return integrate_ode

    def _compile_scalar(self, fn):
        depth = [0]
        counts = self.counts

        def compile_scalar(e):
            depth[0] += 1
            try:
                closure = fn(e)
            finally:
                depth[0] -= 1
            counts["expr.compile_scalar.closures"] += 1
            if depth[0]:
                return closure

            def evaluated(t):
                counts["expr.scalar_evals"] += 1
                return closure(t)
            return evaluated
        return compile_scalar

    # -- installation --------------------------------------------------------

    def _bind_everywhere(self, home: str, attr: str, make) -> None:
        original = getattr(MODULES[home], attr)
        for site, module in MODULES.items():
            if getattr(module, attr, None) is original:
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original, site))

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        special = {
            "sample": lambda fn, site: self._sample(fn),
            "refine_root": lambda fn, site: self._refine_root(fn),
            "find_interval_witness":
                lambda fn, site: self._find_interval_witness(fn),
            "simulate_ensemble": lambda fn, site: self._simulate_ensemble(fn),
            "solve_riccati": lambda fn, site: self._solve_riccati(fn),
        }
        for home, attr, name in SPANNED:
            make = special.get(attr,
                               lambda fn, site, name=name:
                               self.spanned(name, fn))
            self._bind_everywhere(home, attr, make)
        self._bind_everywhere("numerics", "integrate_ode",
                              lambda fn, site: self._integrate_ode(fn, site))
        self._bind_everywhere("expr", "compile_scalar",
                              lambda fn, site: self._compile_scalar(fn))

        counts = self.counts
        hermite = numerics.CubicHermiteCurve.__call__

        def hermite_call(curve, t):
            counts["numerics.hermite.calls"] += 1
            counts["numerics.hermite.points"] += int(np.size(t))
            return hermite(curve, t)
        self._patch_method(numerics.CubicHermiteCurve, "__call__",
                           hermite_call)

        g_lambda_at = transform.AlphaTrace.g_lambda_at
        self._patch_method(
            transform.AlphaTrace, "g_lambda_at",
            lambda trace, t: self.call("transform.g_lambda_at", g_lambda_at,
                                       trace, t))

        for cls in (transform.SystemSpec, transform.ShiftedSystem,
                    transform.RiccatiProblem):
            build = cls.field

            def field(spec, build=build):
                counts["transform.field_builds"] += 1
                return build(spec)
            self._patch_method(cls, "field", field)

        render = cli.Report.render_json
        self._patch_method(
            cli.Report, "render_json",
            lambda report: self.call("cli.render", render, report))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def root_wall(self) -> float:
        roots = np.frombuffer(self.parent, dtype=np.int64) == -1
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return float(np.sum(end[roots] - start[roots]))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 problem=np.frombuffer(self.problem, dtype=np.int64))
