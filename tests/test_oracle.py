"""Oracle tests against closed-form solutions and seeded ensembles."""

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebvander
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from oscillint import numerics
from oscillint.cli import config_from_dict, load_config, run
from oscillint.numerics import STEP_COLLAPSE, Tolerances, integrate_ode, zero_crossing
from oscillint import oracle
from oscillint.oracle import (
    _AT_NODES,
    _DEGREE,
    _NODES,
    _RATE,
    MIXED_OBSERVED,
    NONOSCILLATORY_OBSERVED,
    OSCILLATORY_OBSERVED,
    Ensemble,
    EnsembleRun,
    angle_walk,
    default_ensemble,
    empirical_classification,
    export_trace,
    member_zero_times,
    simulate_ensemble,
    _chunk_series,
    _resolved,
)
from oscillint.expr import parse_text
from oscillint.transform import SystemSpec


def make_system(p="0", q="0", r="0", s="0", f="0", g="0", t0=0.0):
    return SystemSpec(parse_text(p), parse_text(q), parse_text(r), parse_text(s),
                      parse_text(f), parse_text(g), t0)


def harmonic(g="0"):
    return make_system(q="1", r="-1", g=g)


class TestEnsembleConstruction:
    def test_default_shape(self):
        ens = default_ensemble((0.0, 30.0))
        assert len(ens) == 16
        assert ens.initial_conditions[0] == (1.0, 0.0)
        assert ens.initial_conditions[1] == (0.0, 1.0)
        for phi0, psi0 in ens.initial_conditions[2:]:
            assert math.hypot(phi0, psi0) == pytest.approx(1.0, abs=1e-12)

    def test_seed_reproducibility(self):
        a = default_ensemble((0.0, 10.0), seed=42)
        b = default_ensemble((0.0, 10.0), seed=42)
        assert a.initial_conditions == b.initial_conditions
        c = default_ensemble((0.0, 10.0), seed=43)
        assert c.initial_conditions != a.initial_conditions

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="two members"):
            Ensemble(((1.0, 0.0),), 0, (0.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            Ensemble(((1.0, 0.0), (0.0, 1.0)), 0, (1.0, 1.0))


class TestSimulation:
    def test_harmonic_cosine_zeros(self):
        ens = Ensemble(((1.0, 0.0), (0.0, 1.0)), 0, (0.0, 30.0))
        trajs = simulate_ensemble(harmonic(), ens)
        zeros = member_zero_times(trajs[0])
        expected = [math.pi / 2 + k * math.pi for k in range(10)]
        assert len(zeros) == len(expected)
        assert np.max(np.abs(np.array(zeros) - np.array(expected))) < 1e-6

    def test_trivial_member_records_no_crossings(self):
        ens = Ensemble(((1.0, 0.0), (0.0, 0.0)), 0, (0.0, 20.0))
        trajs = simulate_ensemble(harmonic(), ens)
        assert member_zero_times(trajs[1]) == []
        assert not np.any(trajs[1].states)

    def test_forced_harmonic_against_closed_form(self):
        # phi'' + phi = sin t from (1, 0):
        # phi = cos t + (sin t - t cos t) / 2
        ens = Ensemble(((1.0, 0.0), (0.0, 1.0)), 0, (0.0, 20.0))
        trajs = simulate_ensemble(harmonic(g="sin(t)"), ens)
        ts = np.linspace(0.0, 20.0, 400)
        phi = trajs[0].component(0)(ts)
        exact = np.cos(ts) + 0.5 * (np.sin(ts) - ts * np.cos(ts))
        assert np.max(np.abs(phi - exact)) < 1e-5


class TestMembersEndIndependently:
    def test_escape_ends_only_its_member(self):
        # phi'' = phi: (1, 0) is cosh t and escapes at acosh(1e8); (1, -1)
        # is exp(-t) and must still reach the horizon
        sys = make_system(q="1", r="1")
        ens = Ensemble(((1.0, 0.0), (1.0, -1.0)), 0, (0.0, 30.0))
        grows, decays = simulate_ensemble(sys, ens)
        assert grows.escape_time() == pytest.approx(math.acosh(1e8), abs=1e-4)
        assert grows.span[1] == grows.escape_time()
        assert decays.escape_time() is None
        assert decays.span[1] == 30.0
        assert np.all(np.abs(decays.states) <= 1.0 + 1e-9)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestBatchedOracleAgainstReferences:
    """Each member of the series ensemble against a step-loop solve of its
    own and against scipy's RK45 event roots."""

    @pytest.mark.parametrize("name", ["forced_harmonic", "bursty_coupling",
                                      "decaying_forcing"])
    def test_member_zero_times(self, name):
        config = load_config(CONFIG_DIR / f"{name}.json")
        sys_spec = config.working_system()
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        members = simulate_ensemble(sys_spec, ens, config.tolerances)
        field = sys_spec.field()
        size = len(ens)
        # one stacked scipy solve with an event per member; scipy counts a
        # start value of exactly 0 as a root, the oracle does not
        reference = solve_ivp(
            lambda t, y: field(t, y.reshape(2, size)).reshape(-1), ens.span,
            np.array(ens.initial_conditions).T.reshape(-1), method="RK45",
            rtol=1e-11, atol=1e-13,
            events=[lambda t, y, j=j: y[j] for j in range(size)])
        for j, (start, traj) in enumerate(zip(ens.initial_conditions, members)):
            zeros = np.array(member_zero_times(traj))
            alone = integrate_ode(field, start, ens.span, config.tolerances,
                                  events=[zero_crossing(0)])
            separate = np.array(member_zero_times(alone))
            assert len(zeros) == len(separate), j
            assert np.all(np.abs(zeros - separate) <= 1e-6), j
            roots = reference.t_events[j]
            roots = roots[roots > ens.span[0]]
            assert len(zeros) == len(roots), j
            assert np.all(np.abs(zeros - roots) <= 2e-6), j

    def test_decaying_forcing_zeros_against_closed_form(self):
        # phi'' - phi = -exp(-t) from (a, b) is C1 e^t + C2 e^-t + (t/2) e^-t
        # with C1 = (a + b - 1/2)/2 and C2 = (a - b + 1/2)/2: it vanishes
        # where C1 e^2t + C2 + t/2 does
        config = load_config(CONFIG_DIR / "decaying_forcing.json")
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        members = simulate_ensemble(config.working_system(), ens, config.tolerances)
        zeros = 0
        for (a, b), traj in zip(ens.initial_conditions, members):
            c1, c2 = (a + b - 0.5) / 2, (a - b + 0.5) / 2
            for t in member_zero_times(traj):
                exact = brentq(lambda s: c1 * math.exp(2 * s) + c2 + s / 2,
                               t - 1e-6, t + 1e-6, xtol=1e-15, rtol=1e-15)
                assert abs(t - exact) <= 1e-11, (a, b, t)
                zeros += 1
        assert zeros > 0

    def test_event_calls_per_solve(self, monkeypatch):
        # a member's own solve bisects each crossing once, in the step that
        # finds it, and records as many as the oracle's member
        config = load_config(CONFIG_DIR / "forced_harmonic.json")
        sys_spec = config.working_system()
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        oracle = simulate_ensemble(sys_spec, ens, config.tolerances)
        assert sum(len(member_zero_times(m)) for m in oracle) > 100
        bisect = numerics._bisect_event
        for start, member in zip(ens.initial_conditions, oracle):
            brackets = []

            def counted(g, a, b, tol):
                brackets.append((a, b))
                return bisect(g, a, b, tol)
            monkeypatch.setattr(numerics, "_bisect_event", counted)
            alone = integrate_ode(sys_spec.field(), start, ens.span, config.tolerances,
                                  events=[zero_crossing(0)])
            zeros = member_zero_times(alone)
            assert len(brackets) == len(zeros) == len(member_zero_times(member))
            assert all(a <= te <= b for (a, b), te in zip(brackets, zeros))


class TestSeriesOracle:
    """Endings and zeros read off the Chebyshev series of each chunk."""

    def test_escape_found_on_the_series(self):
        # phi'' = phi: from (1, 0) the state is (cosh t, sinh t) and from
        # (0, 1) it is (sinh t, cosh t); both pass 1e3 at acosh(1e3)
        ens = Ensemble(((1.0, 0.0), (0.0, 1.0)), 0, (0.0, 30.0))
        for traj in simulate_ensemble(make_system(q="1", r="1"), ens,
                                      Tolerances(escape_magnitude=1e3)):
            assert traj.escape_time() == pytest.approx(math.acosh(1e3), abs=1e-8)
            assert traj.span[1] == traj.escape_time()
            assert np.abs(traj.states[-1]).max() == pytest.approx(1e3, rel=1e-8)
            assert member_zero_times(traj) == []

    def test_zero_start_records_no_zero_at_start(self):
        # the (0, 1) member of phi'' + phi = 0 is sin t, which starts at 0
        ens = Ensemble(((0.0, 1.0), (1.0, 0.0)), 0, (0.0, 10.0))
        zeros = member_zero_times(simulate_ensemble(harmonic(), ens)[0])
        np.testing.assert_allclose(zeros, [math.pi, 2 * math.pi, 3 * math.pi],
                                   rtol=0, atol=1e-8)

    def test_singular_coefficient_ends_every_member(self):
        # r = -1/(t - 3.3)^2 cannot be resolved up to t = 3.3: every member
        # ends there with an escape; its zeros accumulate at 3.3, so their
        # counts are artefacts of where the solve stops
        config = config_from_dict({"system": {"q": "1", "r": "-1/(t-3.3)^2"},
                                   "horizon": 6})
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        for traj in simulate_ensemble(config.working_system(), ens, config.tolerances):
            assert traj.escape_time() == pytest.approx(3.3, abs=1e-6)
            assert traj.span[1] == traj.escape_time()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("analyze", config).exit_code() == 30
            assert run("oracle", config).exit_code() == 10


    def test_zeros_refined_where_series_and_nodes_disagree(self, monkeypatch):
        # the zero scan reads phi at the nodes (the angle walk reads rho),
        # the refinement the series between them. With the series shifted
        # up by 10 no node gap's series ends straddle zero; each zero still
        # comes back, inside the node gap that holds it
        ens = Ensemble(((1.0, 0.0), (0.6, 0.8)), 0, (0.0, 30.0))
        want = [member_zero_times(m) for m in simulate_ensemble(harmonic(), ens)]
        walk = angle_walk(harmonic(), 0.0, 30.0, 1e-8)
        want_alone = walk.level_crossings(0.0, 1e-9)  # from (1, 0)
        chunk_at = oracle._chunk_at
        monkeypatch.setattr(oracle, "_chunk_at", lambda *a: chunk_at(*a) + 10.0)
        members = simulate_ensemble(harmonic(), ens)
        alone = walk.level_crossings(0.0, 1e-9)
        for zeros, exact, nodes in [*((member_zero_times(m), w, m.grid.nodes)
                                      for m, w in zip(members, want)),
                                    (alone, want_alone, walk.nodes)]:
            assert len(zeros) == len(exact) > 0
            gap = np.searchsorted(nodes, exact)
            assert np.all((nodes[gap - 1] <= zeros) & (zeros <= nodes[gap]))


def unshared_chunk_loop(sys_spec, ens, tol):
    """simulate_ensemble as it was written before its chunk loop was shared
    with the angle walk, chunks at most span/16 wide, kept as the reference."""
    lo, hi = ens.span
    start = np.array(ens.initial_conditions).T
    state, m = start, start.shape[1]
    live = np.abs(start).max(axis=0) <= tol.escape_magnitude
    escaped = ~live
    last = np.zeros(m, dtype=int)
    blowup = np.full(m, -1)
    chunks = []
    t, h = lo, hi - lo
    while live.any() and t < hi:
        h = min(h, hi - t, (hi - lo) / 16.0)
        if hi - t - h < 0.5 * h:
            h = hi - t
        if h < STEP_COLLAPSE * (hi - lo):
            last[live] = len(chunks) * _NODES
            escaped |= live
            break
        coef = _chunk_series(sys_spec, t, h)
        if coef is None or not _resolved(coef, tol.rel_tol, 3):
            h *= 0.5
            continue
        series = coef @ np.vstack((np.where(live, state, 0.0), np.ones(m)))
        states = _AT_NODES @ series
        end = series.sum(axis=1)
        states[:, 0], states[:, -1] = state, end
        over = (np.abs(states[:, 1:]).max(axis=0) > tol.escape_magnitude) & live
        blown = over.any(axis=0)
        blowup[blown] = len(chunks) * _NODES + over.argmax(axis=0)[blown]
        last[blown] = blowup[blown] + 1
        escaped |= blown
        live &= ~blown
        t_end = hi if h == hi - t else t + h
        chunks.append((t, t_end, h, series, states))
        state, t, h = end, t_end, 2.0 * h
    else:
        last[live] = len(chunks) * _NODES
    return EnsembleRun(chunks, start, ens.span, last, escaped, blowup, tol)


def shipped_or_edge_config(name):
    if name == "escapes":  # every member blows up before the end
        return config_from_dict({"system": {"q": "1", "r": "1"}, "horizon": 30,
                                 "tolerances": {"escape_magnitude": 1e3}})
    if name == "singular":  # the walk stops early
        return config_from_dict({"system": {"q": "1", "r": "-1/(t-3.3)^2"}, "horizon": 6})
    if name == "huge_forcing":  # every member blows up in its first node gap, refined to t0
        return config_from_dict({"equation": {"a": "1", "c": "1", "d": "1e308*sin(t)"},
                                 "horizon": 30})
    return load_config(CONFIG_DIR / f"{name}.json")


def chunk_solves(monkeypatch, solve, rel_tol):
    """The _chunk_series calls solve() makes, its collocation solves (a
    walk calls it only for a chunk it has no solve of), how many of them
    pass the oracle's chunk test (a chunk, unless its zero check then
    halves it), and what solve() returns."""
    calls = []
    series = oracle._chunk_series
    counted = lambda *a: calls.append(series(*a)) or calls[-1]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_chunk_series", counted)
        patch.setitem(globals(), "_chunk_series", counted)  # unshared_chunk_loop's
        out = solve()
    kept = sum(coef is not None and _resolved(coef, rel_tol, 3) for coef in calls)
    return len(calls), kept, out


class TestSharedChunkWalk:
    """The oracle walks chunks as wide as the series resolves, through the
    chunk walk it shares with the angle walk; its members keep what the
    former loop, with chunks of at most a sixteenth of the span, found."""

    @pytest.mark.parametrize("name", ["forced_harmonic", "bursty_coupling",
                                      "decaying_forcing", "harmonic_riccati",
                                      "riccati_comparison", "escapes", "singular"])
    def test_members_bit_identical_to_the_unshared_loop(self, name):
        # the name is the former test's; the members now agree with the
        # span/16 loop's in every event, their times within root_tol
        config = shipped_or_edge_config(name)
        tol = config.tolerances
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        sys_spec = config.working_system()
        shared = simulate_ensemble(sys_spec, ens, tol)
        own = unshared_chunk_loop(sys_spec, ens, tol)
        assert len(shared) == len(own) == len(ens)
        mine, theirs = empirical_classification(shared), empirical_classification(own)
        assert mine.outcome == theirs.outcome
        assert mine.zero_counts == theirs.zero_counts
        for a, b in zip(shared, own):
            assert [(ev.kind, ev.direction) for ev in a.events] \
                == [(ev.kind, ev.direction) for ev in b.events]
            assert (a.escape_time() is None) == (b.escape_time() is None)
            np.testing.assert_allclose([ev.time for ev in a.events],
                                       [ev.time for ev in b.events], rtol=0, atol=tol.root_tol)

    @pytest.mark.parametrize("name", ["forced_harmonic", "bursty_coupling", "decaying_forcing"])
    def test_fewer_chunk_solves_and_nodes_at_most_span_over_1024_apart(self, monkeypatch, name):
        config = shipped_or_edge_config(name)
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        sys_spec = config.working_system()
        rel_tol = config.tolerances.rel_tol
        solves, kept, members = chunk_solves(monkeypatch, lambda: simulate_ensemble(
            sys_spec, ens, config.tolerances), rel_tol)
        former, former_kept, _ = chunk_solves(monkeypatch, lambda: unshared_chunk_loop(
            sys_spec, ens, config.tolerances), rel_tol)
        if name == "bursty_coupling":
            # q's bursts, pi apart, cap its chunks near pi/2: it keeps as
            # many chunks as the former loop, but its solves are not pinned,
            # since the walk tries the span and twice each kept width first
            assert kept <= former_kept
        else:
            assert solves <= 0.5 * former
        lo, hi = config.span()
        for member in members:
            assert member.grid.nodes[0] == lo and member.grid.nodes[-1] == hi
            assert np.diff(member.grid.nodes).max() <= (hi - lo) / 1024 * (1.0 + 1e-12)

    def test_matrices_are_numpy_polynomials(self):
        # oracle builds its Chebyshev matrices without numpy.polynomial
        # (importing it costs 0.8 MB resident); they are that package's own
        for x in (oracle._X, np.linspace(-1.0, 1.0, _NODES + 1)):
            for n in (_DEGREE - 1, _DEGREE):
                np.testing.assert_array_equal(oracle._chebvander(x, n), chebvander(x, n))
        np.testing.assert_array_equal(_RATE, chebder(np.eye(_DEGREE + 1)))
        for n in range(_NODES, 1024 + 1, _NODES):  # the oracle's node counts
            np.testing.assert_array_equal(
                oracle._at_nodes(n), chebvander(np.linspace(-1.0, 1.0, n + 1), _DEGREE))


class TestRunRecord:
    """simulate_ensemble returns one record of the run. The classification
    reads each member's facts from it and builds no Trajectory; from the
    Trajectories the record builds it reads the same facts."""

    @staticmethod
    def assert_same_verdict(members, fraction=0.5):
        from_record = empirical_classification(members, fraction)
        from_list = empirical_classification(list(members), fraction)
        for field in ("outcome", "last_zero_per_member", "zero_counts", "window",
                      "trivial_members"):
            # repr tells a float from a numpy float, as the JSON report does
            assert repr(getattr(from_record, field)) == repr(getattr(from_list, field)), field
        return from_record

    @pytest.mark.parametrize("name", ["forced_harmonic", "bursty_coupling",
                                      "decaying_forcing", "harmonic_riccati",
                                      "riccati_comparison", "escapes", "singular",
                                      "huge_forcing"])
    def test_record_and_trajectories_agree(self, name):
        config = shipped_or_edge_config(name)
        ens = default_ensemble(config.span(), seed=config.oracle_seed,
                               size=config.oracle_size)
        members = simulate_ensemble(config.working_system(), ens, config.tolerances)
        verdict = self.assert_same_verdict(members, config.oracle_final_window_fraction)
        assert verdict.window[1] == max(member.span[1] for member in members)
        if name == "huge_forcing":
            # each member ends at t0, on Trajectory.from_nodes' degenerate span
            assert all(member.escape_time() == 0.0 for member in members)
            assert verdict.window == pytest.approx((1.5e-14, 3e-14), rel=1e-12)
            assert all(member.span == (0.0, verdict.window[1]) for member in members)

    @pytest.mark.parametrize("forcing, starts, trivial", [
        ("0", ((1.0, 0.0), (0.0, 0.0), (0.0, 1.0)), (1,)),
        ("0", ((0.0, 0.0), (0.0, 0.0)), (0, 1)),
        ("sin(t)", ((0.0, 0.0), (1.0, 0.0)), ()),  # forced from rest: not trivial
    ], ids=["trivial_member", "all_trivial", "forced_from_rest"])
    def test_trivial_members_agree(self, forcing, starts, trivial):
        members = simulate_ensemble(harmonic(g=forcing), Ensemble(starts, 0, (0.0, 30.0)))
        assert self.assert_same_verdict(members).trivial_members == trivial

    def test_trajectories_built_when_read(self, monkeypatch):
        built = []
        post_init = numerics.Trajectory.__post_init__
        monkeypatch.setattr(numerics.Trajectory, "__post_init__",
                            lambda traj: built.append(traj) or post_init(traj))
        ens = default_ensemble((0.0, 30.0), size=4)
        members = simulate_ensemble(harmonic(g="sin(t)"), ens)
        empirical_classification(members)
        assert built == []
        second = members[1]
        assert len(built) == 1 and built[0] is second
        assert members[1] is second and members[-3] is second
        assert len(list(members)) == 4 == len(built)
        with pytest.raises(IndexError):
            members[4]


class TestClassification:
    def test_harmonic_oscillatory_observed(self):
        ens = default_ensemble((0.0, 30.0))
        verdict = empirical_classification(simulate_ensemble(harmonic(), ens))
        assert verdict.outcome == OSCILLATORY_OBSERVED
        assert all(n >= 8 for n in verdict.zero_counts)

    def test_decaying_forced_nonoscillatory_observed(self):
        # phi'' - phi = -exp(-t): the (1,0) member grows like e^t, no zeros
        sys = make_system(q="1", r="1", g="-exp(-t)")
        ens = default_ensemble((0.0, 30.0))
        tol = Tolerances(escape_magnitude=1e15)
        verdict = empirical_classification(simulate_ensemble(sys, ens, tol))
        assert verdict.outcome == NONOSCILLATORY_OBSERVED
        assert verdict.zero_counts[0] == 0

    def test_escape_counts_as_nonoscillation_witness(self):
        # same growth but with the default escape ceiling: the trajectory
        # stops early, sign-definite, and still reads as non-oscillating
        sys = make_system(q="1", r="1", g="-exp(-t)")
        ens = default_ensemble((0.0, 30.0))
        verdict = empirical_classification(simulate_ensemble(sys, ens))
        assert verdict.outcome == NONOSCILLATORY_OBSERVED

    def test_empty_zero_lists_everywhere(self):
        sys = make_system(q="1", r="1")
        ens = Ensemble(((1.0, 0.0), (1.0, 1.0)), 0, (0.0, 10.0))
        verdict = empirical_classification(simulate_ensemble(sys, ens))
        assert verdict.outcome == NONOSCILLATORY_OBSERVED
        assert verdict.zero_counts == (0, 0)
        assert verdict.last_zero_per_member == (None, None)

    def test_trivial_member_does_not_block_oscillatory(self):
        ens = Ensemble(((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)), 0, (0.0, 30.0))
        verdict = empirical_classification(simulate_ensemble(harmonic(), ens))
        assert verdict.outcome == OSCILLATORY_OBSERVED
        assert verdict.trivial_members == (2,)

    def test_all_trivial_is_mixed(self):
        ens = Ensemble(((0.0, 0.0), (0.0, 0.0)), 0, (0.0, 5.0))
        verdict = empirical_classification(simulate_ensemble(harmonic(), ens))
        assert verdict.outcome == MIXED_OBSERVED

    def test_window_fraction_validated(self):
        ens = Ensemble(((1.0, 0.0), (0.0, 1.0)), 0, (0.0, 5.0))
        trajs = simulate_ensemble(harmonic(), ens)
        with pytest.raises(ValueError, match="fraction"):
            empirical_classification(trajs, final_window_fraction=0.0)

    def test_mismatched_starts_rejected(self):
        a = simulate_ensemble(harmonic(), Ensemble(((1.0, 0.0), (0.0, 1.0)),
                                                   0, (0.0, 5.0)))
        shifted = make_system(q="1", r="-1", t0=1.0)
        b = simulate_ensemble(shifted, Ensemble(((1.0, 0.0), (0.0, 1.0)),
                                                0, (1.0, 5.0)))
        with pytest.raises(ValueError, match="starting time"):
            empirical_classification([a[0], b[0]])


class TestSturmSurrogate:
    def count_in(self, traj, lo, hi):
        return sum(1 for t in member_zero_times(traj) if lo <= t <= hi)

    def test_zero_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(20240816)
        for _ in range(6):
            q0 = rng.uniform(0.3, 1.5)
            q1 = rng.uniform(0.0, 0.8) * q0
            sys = make_system(
                p=f"{rng.uniform(-0.3, 0.3)} * sin(t)",
                q=f"{q0} + {q1} * cos(t)",
                r=f"{rng.uniform(-1.5, 0.5)} + {rng.uniform(0.0, 0.5)} * sin(2 * t)",
                s=f"{rng.uniform(-0.3, 0.3)} * cos(t)",
            )
            ens = default_ensemble((0.0, 22.0), seed=7, size=8)
            trajs = simulate_ensemble(sys, ens)
            counts = [self.count_in(traj, 1.0, 21.0) for traj in trajs]
            assert max(counts) - min(counts) <= 1, counts


class TestDeterminism:
    def test_same_seed_same_verdict(self):
        sys = harmonic(g="sin(t)")
        first = empirical_classification(
            simulate_ensemble(sys, default_ensemble((0.0, 25.0), seed=99)))
        second = empirical_classification(
            simulate_ensemble(sys, default_ensemble((0.0, 25.0), seed=99)))
        assert first.outcome == second.outcome
        assert first.zero_counts == second.zero_counts
        assert first.last_zero_per_member == second.last_zero_per_member


class TestTraceExport:
    def test_roundtrip(self, tmp_path):
        ens = Ensemble(((1.0, 0.0), (0.0, 1.0)), 0, (0.0, 5.0))
        traj = simulate_ensemble(harmonic(), ens)[0]
        path = tmp_path / "member_00.csv"
        export_trace(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "t,phi,psi"
        assert len(lines) == len(traj.grid.nodes) + 1
        t, phi, psi = (float(v) for v in lines[3].split(","))
        assert t == traj.grid.nodes[2]
        assert phi == traj.states[2, 0]
        assert psi == traj.states[2, 1]

    def test_dimension_checked(self, tmp_path):
        from oscillint.numerics import integrate_ode
        traj = integrate_ode(lambda t, y: -y, [1.0], (0.0, 1.0))
        with pytest.raises(ValueError, match="two-component"):
            export_trace(traj, tmp_path / "bad.csv")
