"""One-command benchmark for oscillint.

    python3 bench/run.py --workload referee --seed 1 --seconds 40 --trace 0

Runs one workload (referee, certify or riccati_compare; see workloads.py)
as a closed loop: a single client in one process submits seeded problems
back to back for --seconds, then checks every output against its known
answer.  The library is imported from this checkout's src/.

--trace 0 prints the end-to-end metrics.  Times are wall seconds divided
by the run's machine slowdown: the median time of a fixed gauge kernel
(reference.py) sampled between problems, over its time on the reference
machine.  The figures as measured are printed too.

--trace 1 runs every problem twice, once plain and once inside the tracer
(alternating which goes first), and prints the per-layer metrics, per
traced problem, with the tracing overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when every
check passed and 1 otherwise; a checkout without src/oscillint exits 1
before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# setup_s is the median over this many child interpreters plus this process
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# seconds of problems between two runs of the machine-speed gauge, and
# gauge runs right after each setup sample
GAUGE_EVERY_S = 0.5
SETUP_GAUGES = 3


def _import_library() -> float:
    """Import oscillint from this checkout; returns the import wall time."""
    if not (SRC / "oscillint" / "__init__.py").is_file():
        raise SystemExit(f"bench: no oscillint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import oscillint.cli
    elapsed = time.perf_counter() - t0
    if Path(oscillint.__file__).resolve().parent != SRC / "oscillint":
        raise SystemExit(f"bench: imported oscillint from {oscillint.__file__}"
                         f", not from {SRC}")
    return elapsed


def _setup_sample(workload: str, seed: int, import_s: float) -> list:
    """Import time plus parsing and validating the first block's inputs,
    and the machine slowdown gauged right after."""
    import reference
    import workloads
    block = workloads.block(workload, seed, 0)
    t0 = time.perf_counter()
    for problem in block:
        workloads.prepare(workload, problem)
    setup = import_s + time.perf_counter() - t0
    gauge = statistics.median(reference.kernel() for _ in range(SETUP_GAUGES))
    return [setup, gauge / reference.REFERENCE_S]


def _probe_setup(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count()}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _run_one(workload: str, problem, tracer=None):
    """Solve one problem; returns (seconds, output, error text or None)."""
    import workloads

    def work():
        return workloads.solve(workload, problem,
                               workloads.prepare(workload, problem))
    if tracer is not None:
        tracer.problem_id = problem.pid
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = work() if tracer is None else tracer.call("bench.problem", work)
        err = None
    except Exception as exc:  # a failed problem is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return elapsed, out, err


def _check_all(workload: str, runs: list) -> list:
    """(certified, failed) per run; each failure is printed to stderr."""
    import workloads
    outcomes = []
    for problem, out, err in runs:
        if err is not None:
            ok, failures = False, [err]
        else:
            ok, failures = workloads.check(workload, problem, out)
        if failures:
            print(f"FAILED problem {problem.pid} ({problem.family}, "
                  f"params {problem.params}): {'; '.join(failures)}",
                  file=sys.stderr)
        outcomes.append((ok, bool(failures)))
    return outcomes


def timed_run(workload: str, seed: int, seconds: float,
              setup_first: list) -> tuple:
    import reference
    import workloads
    setups = [setup_first] + [_probe_setup(workload, seed)
                              for _ in range(SETUP_PROBES)]
    stream = workloads.problems(workload, seed)
    latencies, runs, gauge = [], [], []
    since_gauge = GAUGE_EVERY_S
    begin, cpu_begin = time.perf_counter(), time.process_time()
    while time.perf_counter() - begin < seconds:
        if since_gauge >= GAUGE_EVERY_S:
            gauge.append(reference.kernel())
            since_gauge = 0.0
        problem = next(stream)
        elapsed, out, err = _run_one(workload, problem)
        latencies.append(elapsed)
        since_gauge += elapsed
        runs.append((problem, out, err))
    wall = time.perf_counter() - begin - sum(gauge)
    cpu = time.process_time() - cpu_begin
    # > 1 when this machine is running slower than the reference one
    slowdown = statistics.median(gauge) / reference.REFERENCE_S
    n = len(runs)
    # the ratio counts whole blocks only, so every run sees the same mix
    whole = n - n % len(workloads.BLOCKS[workload]) or n
    outcomes = _check_all(workload, runs)
    certified = sum(ok for ok, _ in outcomes[:whole])
    failed = sum(bad for _, bad in outcomes)

    p75 = (statistics.quantiles(latencies, n=4, method="inclusive")[2]
           if n > 1 else latencies[0])
    metrics = {
        "problems_per_s": _metric(n / wall * slowdown, "1/s"),
        "latency_p50_s": _metric(statistics.median(latencies) / slowdown,
                                 "s"),
        "latency_p75_s": _metric(p75 / slowdown, "s"),
        "certified_ratio": _metric(certified / whole, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(s / g for s, g in setups), "s"),
    }
    notes = {"latency_p50_s": f"n={n}", "latency_p75_s": f"n={n}",
             "certified_ratio": f"over {whole} problems",
             "setup_s": f"median of {len(setups)}"}
    raw_setup = statistics.median(s for s, _ in setups)
    print(f"workload {workload}, seed {seed}: {n} problems in {wall:.2f} s "
          f"({cpu:.2f} s CPU), closed loop, 1 client; machine slowdown "
          f"{slowdown:.4f} (median of {len(gauge)} gauge runs); as measured: "
          f"{n / wall:.6g} problems/s, p50 {statistics.median(latencies):.6g}"
          f" s, p75 {p75:.6g} s, setup {raw_setup:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}"
              f"  {notes.get(name, '')}".rstrip())
    print(f"  {'failed_ratio':<16} {failed / n:.6g} ratio  ({failed}/{n})")
    return n, failed, metrics


# per-layer metrics: counts and self times are divided by traced problems
COUNTS = [
    "expr.sample.calls", "expr.sample.points",
    "expr.compile_scalar.closures", "expr.scalar_evals",
    *(f"numerics.{kind}.{what}" for kind in ("ode_events", "ode_plain")
      for what in ("calls", "accepted_steps", "rejected_steps",
                   "field_evals", "events")),
    "numerics.refine_root.calls", "numerics.refine_root.fn_evals",
    "numerics.hermite.calls", "numerics.hermite.points",
    "numerics.cumulative_integral.calls",
    "transform.alpha_lambda.calls", "transform.g_lambda_at.calls",
    "transform.field_builds",
    "criteria.find_interval_witness.calls", "criteria.angle_solves",
    "oracle.simulate_ensemble.calls", "oracle.simulate_ensemble.members",
    "oracle.zero_crossings",
    "riccati.solve_riccati.calls", "riccati.solve_riccati.escapes",
]
SELF_TIMES = [
    "expr.sample", "numerics.ode_events", "numerics.ode_plain",
    "numerics.refine_root", "numerics.cumulative_integral",
    "transform.alpha_lambda", "transform.g_lambda_at",
    "criteria.check_nonoscillation", "criteria.check_oscillation",
    "criteria.find_interval_witness", "criteria.check_undamped_equation",
    "oracle.simulate_ensemble", "oracle.empirical_classification",
    "riccati.solve_riccati", "riccati.comparison_certificate",
    "riccati.comparison_validate", "riccati.hypothesis_residuals",
    "cli.config_from_dict", "cli.run", "cli.render",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer, n: int) -> dict:
    c, s = tracer.counts, tracer.self_s
    out = {name: _metric(c[name] / n, "count/problem") for name in COUNTS}
    out.update({f"{name}.self_s": _metric(s[name] / n, "s/problem")
                for name in SELF_TIMES})
    out["expr.sample.points_per_call"] = _metric(
        _ratio(c["expr.sample.points"], c["expr.sample.calls"]), "points/call")
    for kind in ("ode_events", "ode_plain"):
        name = f"numerics.{kind}"
        out[f"{name}.steps_per_s"] = _metric(
            _ratio(c[f"{name}.accepted_steps"], s[name]), "steps/s")
    out["criteria.witness_found_ratio"] = _metric(
        _ratio(c["criteria.find_interval_witness.found"],
               c["criteria.find_interval_witness.calls"]), "ratio")
    out["oracle.steps_per_member"] = _metric(
        _ratio(c["oracle.accepted_steps"],
               c["oracle.simulate_ensemble.members"]), "steps/member")
    return out


def traced_run(workload: str, seed: int, seconds: float) -> tuple:
    import workloads
    from tracer import Tracer
    tracer = Tracer()
    stream = workloads.problems(workload, seed)
    plain_s = traced_s = 0.0
    runs = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        problem = next(stream)
        # alternate which copy runs first so warm caches favour neither
        order = (None, tracer) if problem.pid % 2 == 0 else (tracer, None)
        for which in order:
            elapsed, out, err = _run_one(workload, problem, which)
            runs.append((problem, out, err))
            if which is None:
                plain_s += elapsed
            else:
                traced_s += elapsed
    n = len(runs) // 2
    failed = sum(bad for _, bad in _check_all(workload, runs))
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.npz"
    tracer.write(span_file)

    metrics = _layer_metrics(tracer, n)
    root_wall = tracer.root_wall()
    metrics.update({
        "trace.problems": _metric(n, "count"),
        "trace.problem_s": _metric(root_wall / n, "s/problem"),
        "trace.unattributed_s": _metric(tracer.self_s["bench.problem"] / n,
                                        "s/problem"),
        "trace.problems_per_s": _metric(n / traced_s, "1/s"),
        "trace.untraced_problems_per_s": _metric(n / plain_s, "1/s"),
        "trace.overhead_problems_per_s": _metric(
            n / plain_s - n / traced_s, "1/s"),
        "trace.overhead_ratio": _metric(traced_s / plain_s - 1.0, "ratio"),
    })
    print(f"workload {workload}, seed {seed}: {n} problems traced and "
          f"untraced; spans in {span_file.relative_to(ROOT)}")
    print(f"  tracing overhead {metrics['trace.overhead_ratio']['value']:.3%}"
          f", failed {failed}/{len(runs)}")
    return len(runs), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("referee", "certify", "riccati_compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = _import_library()
    if args.setup_probe:
        print(json.dumps(_setup_sample(args.workload, args.seed, import_s)))
        return 0
    setup_first = (_setup_sample(args.workload, args.seed, import_s)
                   if not args.trace else None)

    import selfcheck
    mismatches = selfcheck.known_answers(ROOT, OUT)
    for line in mismatches:
        print(f"FAILED known answer: {line}", file=sys.stderr)

    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed,
                                                args.seconds)
    else:
        attempted, failed, metrics = timed_run(args.workload, args.seed,
                                               args.seconds, setup_first)
    print("environment " + json.dumps(_environment()))
    correct = failed == 0 and not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
