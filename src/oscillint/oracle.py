"""Ground truth by simulation.

The analytic checks in `criteria` decide oscillation from coefficient data
alone. This module takes the opposite route: integrate a finite ensemble of
initial conditions, record where each first component actually vanishes, and
summarize what was observed. Ensemble verdicts never override analytic ones;
they exist to catch bugs in the analytic path (and vice versa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Tolerances, Trajectory, integrate_ode, zero_crossing
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

    All members are integrated in one solve of the stacked (2, m) state, so
    coefficients are evaluated once per stage for the whole ensemble and
    every member shares one step grid. Error is still held per member: a
    step is accepted only when each member's own error is within
    tolerance, and each member's zeros are refined on its own dense
    output. A member that escapes ends there on its own while the others
    run on. Order of the result matches the ensemble.
    """
    start = np.array(ens.initial_conditions).T
    batch = integrate_ode(sys.field(), start, ens.span, tol, events=[zero_crossing(0)])
    return batch.members()


def member_zero_times(traj: Trajectory) -> list[float]:
    return [ev.time for ev in traj.events if ev.kind == "zero-crossing"]


def _is_trivial(traj: Trajectory) -> bool:
    # the zero solution stays exactly zero under the stepper
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
