import inspect
import math
import sys
import threading

import numpy as np
import pytest

from frontlab import engine, gumbel_exact, noise, profile
from frontlab.engine import initial_state, lse_front
from frontlab.noise import BernoulliLaw, GumbelLaw, LatticeLaw, SandwichedGumbelLaw
from frontlab.profile import (
    ProfileSample,
    centered_ks,
    conditional_tail,
    empirical_profile,
    fluctuation_experiment,
    gumbel_wave,
    marginal_gumbel_test,
    wave_derivative,
)

from conftest import FailingUniforms, make_rng
from wave_oracles import reaction_term, traveling_wave_residual, wave_curvature

THREE_ATOM = LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.3), (-3, 0.2)))


def gumbel_state(n, t, seed):
    rng = make_rng(seed)
    state = initial_state(n)
    for _ in range(t):
        state = engine.step_gumbel_exact(state, GumbelLaw(), rng)
    return state


# ---------------------------------------------------------------------------
# empirical profile


def test_empirical_profile_hand_case():
    state = engine.ParticleState(np.array([0.0, 1.0, 2.0]), t=1, prev_front=0.0)
    prof = empirical_profile(state, [-0.5, 0.5, 1.5, 2.5])
    np.testing.assert_allclose(prof.values, [1.0, 2 / 3, 1 / 3, 0.0])
    assert prof.n == 3 and prof.t == 1


def test_empirical_profile_center_shift():
    # the profile is centered on the state's previous front
    state = engine.ParticleState(np.array([0.0, 1.0, 2.0]), t=1, prev_front=0.0)
    shifted = engine.ParticleState(state.positions, t=1, prev_front=1.0)
    a = empirical_profile(shifted, [-0.5, 0.5])
    b = empirical_profile(state, [0.5, 1.5]).values
    np.testing.assert_array_equal(a.values, b)
    assert a.center == 1.0


def test_empirical_profile_counts_strictly_above():
    state = engine.ParticleState(np.array([0.0, 0.0, 1.0]), t=1, prev_front=0.0)
    prof = empirical_profile(state, [0.0, 1.0])
    np.testing.assert_allclose(prof.values, [1 / 3, 0.0])


def test_empirical_profile_refuses_a_nonfinite_center():
    # a state at t = 0 carries prev_front = nan: no front to center on
    for state in (initial_state(3),
                  engine.ParticleState(np.zeros(3), t=1, prev_front=math.inf)):
        with pytest.raises(ValueError, match="center must be finite"):
            empirical_profile(state, [0.0, 1.0])


def test_profile_sample_validation():
    with pytest.raises(ValueError):
        ProfileSample(grid=np.array([0.0, 0.0]), values=np.array([1.0, 0.5]),
                      center=0.0, n=2, t=1)
    with pytest.raises(ValueError):
        ProfileSample(grid=np.array([0.0, 1.0]), values=np.array([0.2, 0.5]),
                      center=0.0, n=2, t=1)


# ---------------------------------------------------------------------------
# wave shape and derivatives


def test_wave_endpoints_and_value_at_loc():
    assert gumbel_wave(-40.0) == pytest.approx(1.0)
    assert gumbel_wave(40.0) == pytest.approx(0.0, abs=1e-15)
    assert gumbel_wave(0.7, loc=0.7) == pytest.approx(-math.expm1(-1.0))


def test_wave_monotone_decreasing():
    x = np.linspace(-15, 15, 400)
    assert np.all(np.diff(gumbel_wave(x, rate=1.3, loc=-0.4)) <= 0)
    core = np.linspace(-2, 8, 200)  # saturation flattens the far tails
    assert np.all(np.diff(gumbel_wave(core, rate=1.3, loc=-0.4)) < 0)


def test_wave_rate_is_a_rescaling():
    z = np.linspace(-4, 4, 60)
    np.testing.assert_allclose(gumbel_wave(z / 2.0, rate=2.0),
                               gumbel_wave(z, rate=1.0), rtol=1e-12)


@pytest.mark.parametrize("rate,loc", [(1.0, 0.0), (2.0, -0.5), (0.5, 1.0)])
def test_wave_derivatives_match_finite_differences(rate, loc):
    x = np.linspace(-4, 4, 33)
    h = 1e-6
    fd1 = (gumbel_wave(x + h, rate, loc) - gumbel_wave(x - h, rate, loc)) / (2 * h)
    np.testing.assert_allclose(wave_derivative(x, rate, loc), fd1,
                               rtol=2e-8, atol=1e-10)
    fd2 = (wave_derivative(x + h, rate, loc)
           - wave_derivative(x - h, rate, loc)) / (2 * h)
    np.testing.assert_allclose(wave_curvature(x, rate, loc), fd2,
                               rtol=2e-8, atol=1e-10)


def test_wave_far_left_is_finite():
    # the clamp keeps the w -> inf regime from overflowing
    for f in (gumbel_wave, wave_derivative):
        out = f(np.array([-800.0, -1200.0]))
        assert np.all(np.isfinite(out))
    assert gumbel_wave(-800.0) == 1.0


# ---------------------------------------------------------------------------
# centered profile distance


def test_centered_ks_gumbel_exact_stepping():
    # exact stepping leaves i.i.d. Gumbel positions; sqrt(N) KS ~ 0.8 typical
    state = gumbel_state(10_000, 3, seed=42)
    ks = centered_ks(state)
    assert ks * math.sqrt(10_000) < 1.95  # p ~ 0.001 Kolmogorov quantile


def test_centered_ks_detects_wrong_center():
    state = gumbel_state(10_000, 3, seed=42)
    assert centered_ks(state, loc=1.0) > 0.3


def test_centered_ks_requires_stepped_state():
    with pytest.raises(ValueError):
        centered_ks(initial_state(10))


# ---------------------------------------------------------------------------
# conditional one-step tail


def test_conditional_tail_matches_product_formula(rng):
    pos = np.array([0.0, -1.0, 2.0])
    state = engine.ParticleState(pos, t=1, prev_front=0.0)
    for law in (GumbelLaw(), THREE_ATOM, SandwichedGumbelLaw(-0.3, 0.3)):
        x = np.linspace(-2, 6, 23)
        got = conditional_tail(state, law, x)
        want = [1.0 - math.exp(sum(float(law.log_cdf(xi - p)) for p in pos))
                for xi in x]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_conditional_tail_gumbel_shift_identity():
    # for Gumbel noise the product collapses to one shifted Gumbel tail
    pos = np.array([0.3, -0.7, 1.1, 0.0])
    state = engine.ParticleState(pos, t=1, prev_front=0.0)
    phi = engine.log_sum_exp(pos, 1.0)
    x = np.array([-1.0, 0.5, 2.0, 5.0])
    want = -np.expm1(-np.exp(-(x - phi)))
    np.testing.assert_allclose(conditional_tail(state, GumbelLaw(), x), want,
                               rtol=1e-12)


def test_conditional_tail_is_one_below_support():
    state = engine.ParticleState(np.array([0.0, 1.0]), t=1, prev_front=0.0)
    got = conditional_tail(state, BernoulliLaw(0.5), [-0.5])
    assert got[0] == 1.0


# ---------------------------------------------------------------------------
# marginal law of centered coordinates


def test_marginal_gumbel_positive_control():
    rep = marginal_gumbel_test(GumbelLaw(), 300, 2, make_rng(61),
                               k=3, replicas=200)
    band = math.sqrt(math.log(2 / 1e-3) / (2 * 200))
    assert np.all(rep.ks < band)
    assert rep.max_corr < 3.0 / math.sqrt(200)


def test_marginal_gumbel_negative_control():
    # a Gumbel shifted by a uniform on [4, 6] is no shifted Gumbel: the
    # target is the unit Gumbel, and the centered coordinates miss it by a
    # mile
    rep = marginal_gumbel_test(SandwichedGumbelLaw(4.0, 6.0), 300, 2,
                               make_rng(67), k=2, replicas=100)
    assert np.all(rep.ks > 0.5)


@pytest.mark.parametrize("law", [GumbelLaw(loc=5.0),
                                 SandwichedGumbelLaw(5.0, 5.0)])
def test_marginal_shifted_gumbel_positive_control(law):
    # the point-width sandwiched law is the unit Gumbel shifted by 5, the
    # same law as GumbelLaw(loc=5.0), and is tested against it
    assert profile._gumbel_target(law) == (1.0, 5.0)
    rep = marginal_gumbel_test(law, 300, 2, make_rng(61), k=3, replicas=200)
    band = math.sqrt(math.log(2 / 1e-3) / (2 * 200))
    assert np.all(rep.ks < band)


def test_marginal_lattice_route_runs():
    rep = marginal_gumbel_test(THREE_ATOM, 30, 2, make_rng(71),
                               k=2, replicas=50)
    assert rep.ks.shape == (2,)
    assert np.all((0 <= rep.ks) & (rep.ks <= 1))


def test_marginal_validation():
    with pytest.raises(ValueError):
        marginal_gumbel_test(GumbelLaw(), 10, 1, make_rng(0))
    with pytest.raises(ValueError):
        marginal_gumbel_test(GumbelLaw(), 10, 2, make_rng(0), k=11)
    # one replica has no sample correlation: refused before any step
    for replicas in (0, 1):
        with pytest.raises(ValueError, match="replicas"):
            marginal_gumbel_test(GumbelLaw(), 20, 3, make_rng(0), k=2,
                                 replicas=replicas)


# ---------------------------------------------------------------------------
# replica route: several replicas a unit, on up to two threads, against one
# engine.advance per replica


def advance_replica_runs(law, n, steps, replicas, rng, reduce, rate=None):
    """engine._replica_runs as a loop of engine.advance, one replica a call."""
    front = lse_front(getattr(law, "rate", 1.0) if rate is None else rate)
    for r in range(replicas):
        state = engine.advance(initial_state(n), law, rng, steps, front=front)
        reduce(r, state.positions[None].copy(),
               None if rate is None else np.array([state.prev_front]))


def recorded_runs(runs, law, n, steps, replicas, rng, rate=None):
    """X(steps) and the fronts of X(steps - 1) of every replica, by index."""
    last = np.full((replicas, n), np.nan)
    fronts = np.full(replicas, np.nan)

    def record(i, x, f):
        last[i:i + x.shape[0]] = x
        if f is not None:
            fronts[i:i + x.shape[0]] = f

    runs(law, n, steps, replicas, rng, record, rate)
    return last, fronts


REPLICA_CASES = [
    # one block a replica, units of 109 replicas, the last unit short
    pytest.param(GumbelLaw(), 300, 2, 250, 1.0, id="one-block"),
    # blocks of 3 and 2 rows, one replica a unit, front at another rate
    pytest.param(GumbelLaw(0.5, 2.0), 20_000, 5, 5, 1.5, id="two-blocks"),
    # one-row blocks, one replica a unit
    pytest.param(GumbelLaw(), 70_000, 3, 4, 1.0, id="one-row-blocks"),
    # other laws run one replica after another on the calling thread
    pytest.param(THREE_ATOM, 30, 3, 20, 1.0, id="lattice"),
]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("law,n,t,replicas,rate", REPLICA_CASES)
def test_replica_runs_match_advance(law, n, t, replicas, rate, cpus,
                                    monkeypatch):
    monkeypatch.setattr(noise, "_cpus", lambda: cpus)
    threads = threading.active_count()
    for front_rate in (rate, None):
        rng, ref_rng = make_rng(89), make_rng(89)
        got = recorded_runs(engine._replica_runs, law, n, t, replicas, rng,
                            front_rate)
        want = recorded_runs(advance_replica_runs, law, n, t, replicas,
                             ref_rng, front_rate)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert rng.random() == ref_rng.random()
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("law,n,t,replicas,rate", REPLICA_CASES)
def test_marginal_replica_route_matches_advance(law, n, t, replicas, rate,
                                                cpus, monkeypatch):
    monkeypatch.setattr(noise, "_cpus", lambda: cpus)
    # the target, and so the front's rate, is the law's own
    kw = dict(k=3, replicas=replicas)
    rng, ref_rng = make_rng(97), make_rng(97)
    got = marginal_gumbel_test(law, n, t, rng, **kw)
    with monkeypatch.context() as m:
        m.setattr(engine, "_replica_runs", advance_replica_runs)
        want = marginal_gumbel_test(law, n, t, ref_rng, **kw)
    np.testing.assert_array_equal(got.ks, want.ks)
    assert got.max_corr == want.max_corr
    assert rng.random() == ref_rng.random()


def test_replica_route_runs_large_replicas_in_order(monkeypatch):
    # a replica past noise._BLOCK_ELEMENTS floats runs block by block on the
    # calling thread, with no helper thread, and gives the same numbers
    monkeypatch.setattr(noise, "_cpus", lambda: 2)
    want = recorded_runs(engine._replica_runs, GumbelLaw(), 300, 4, 20,
                         make_rng(101), 1.0)
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(noise.threading, "Thread", Counted)
    monkeypatch.setattr(noise, "_BLOCK_ELEMENTS", 1000)
    got = recorded_runs(engine._replica_runs, GumbelLaw(), 300, 4, 20,
                        make_rng(101), 1.0)
    assert starts == []
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_replica_route_under_thread_stress(monkeypatch):
    # four concurrent calls, each with a helper thread, on units of one
    # replica (blocks of two rows and one) and a short switch interval: a
    # unit drawn out of order or a result written to another unit's rows
    # would change some replica
    monkeypatch.setattr(noise, "_cpus", lambda: 2)
    monkeypatch.setattr(noise, "_UNIT_ELEMENTS", 16)
    args = (GumbelLaw(), 7, 3, 200)
    expected = [recorded_runs(advance_replica_runs, *args, make_rng(s), 1.0)
                for s in range(4)]
    got = [None] * 4

    def call(s):
        got[s] = recorded_runs(engine._replica_runs, *args, make_rng(s), 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(s,), daemon=True)
                   for s in range(4)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g[0], e[0])
        np.testing.assert_array_equal(g[1], e[1])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("where", ["draw", "reduce"])
def test_replica_route_error_propagates(cpus, where, monkeypatch):
    # units of 21 replicas at N = 1000, t = 3: the third unit's draw fails,
    # or the reducer fails on it
    monkeypatch.setattr(noise, "_cpus", lambda: cpus)
    threads = threading.active_count()
    raised = []

    def reduce(i, last, fronts):
        if where == "reduce" and i >= 42:
            raise MemoryError("planted")

    rng = FailingUniforms(3) if where == "draw" else make_rng(13)

    def call():
        try:
            engine._replica_runs(GumbelLaw(), 1000, 3, 100, rng, reduce, 1.0)
        except MemoryError as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "_replica_runs hung after a failure"
    assert [str(e) for e in raised] == ["planted"]
    assert threading.active_count() == threads


def test_replica_route_calls_public_functions_on_the_calling_thread(
        monkeypatch):
    # a tracer wraps the public functions and the laws' sample and log_cdf
    # with one span stack: no helper thread may call them
    monkeypatch.setattr(noise, "_cpus", lambda: 2)
    seen = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            seen.append(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    mods = (noise, engine, gumbel_exact, profile)
    spies = {id(obj): spy(obj) for mod in mods for obj in
             (getattr(mod, name) for name in mod.__all__)
             if inspect.isfunction(obj) and obj.__module__ == mod.__name__}
    for mod in mods:  # where a module imported a function by name too
        for attr, val in list(vars(mod).items()):
            if id(val) in spies:
                monkeypatch.setattr(mod, attr, spies[id(val)])
    for law in (GumbelLaw, BernoulliLaw, LatticeLaw, SandwichedGumbelLaw):
        for method in ("sample", "log_cdf"):
            monkeypatch.setattr(law, method, spy(getattr(law, method)))
    threads = threading.active_count()
    # five units of 21 replicas; one replica a unit at N = 70 000
    marginal_gumbel_test(GumbelLaw(), 1000, 3, make_rng(103), k=2,
                         replicas=100)
    fluctuation_experiment([1000, 70_000], 3, 0.0, make_rng(107),
                           replicas=4, ref_size=100)
    assert seen and set(seen) == {threading.current_thread()}
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# the front equation, through the reaction term of tests/wave_oracles.py


def test_reaction_endpoints_exact():
    out = reaction_term(np.array([0.0, 1.0]), rate=1.3, speed=0.8)
    assert out[0] == 0.0 and out[1] == 0.0


def test_reaction_hand_value():
    # u = 1 - e^{-1} gives w = 1: A = rate e^{-1} speed
    for rate, speed in ((1.0, 1.0), (2.0, 0.5)):
        got = reaction_term(-math.expm1(-1.0), rate, speed)
        assert got == pytest.approx(rate * math.exp(-1.0) * speed, rel=1e-12)


def test_reaction_positive_when_speed_dominates():
    u = np.linspace(1e-6, 1 - 1e-9, 500)
    for rate, speed in ((1.0, 1.0), (0.5, 1.0), (2.0, 2.0)):
        assert np.all(reaction_term(u, rate, speed) > 0.0)


def test_traveling_wave_residual_small():
    grid = np.linspace(-10, 10, 1001)
    for rate in (0.5, 1.0, 2.0):
        for speed in (0.5, 1.0, 2.0):
            res = traveling_wave_residual(rate, speed, grid)
            assert np.max(np.abs(res)) < 1e-8


def test_traveling_wave_residual_loc_invariant():
    a = traveling_wave_residual(1.0, 1.0, np.linspace(-5, 5, 101), loc=0.0)
    b = traveling_wave_residual(1.0, 1.0, np.linspace(-3, 7, 101), loc=2.0)
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# fluctuations


def test_fluctuation_report_shapes():
    rep = fluctuation_experiment([50, 100], 2, 0.0, make_rng(73),
                                 replicas=40, ref_size=2000)
    assert rep.stat_quantiles.shape == (2, 9)
    assert rep.ref_quantiles.shape == (9,)
    np.testing.assert_allclose(rep.sampling_scale,
                               [math.log(50) / math.sqrt(50),
                                math.log(100) / math.sqrt(100)])


def test_fluctuation_t1_reference_degenerates():
    rep = fluctuation_experiment([50], 1, 0.0, make_rng(79),
                                 replicas=30, ref_size=1000)
    np.testing.assert_array_equal(rep.ref_quantiles, 0.0)


def test_fluctuation_median_approaches_reference():
    rep = fluctuation_experiment([300, 3000], 3, 0.0, make_rng(1729),
                                 replicas=150, ref_size=30_000)
    med = rep.stat_quantiles[:, 4]
    ref = rep.ref_quantiles[4]
    assert abs(med[1] - ref) < abs(med[0] - ref)


def advance_stat_quantiles(n_list, t, x, rng, replicas, levels):
    """The statistic's quantiles through engine.advance, one replica a call."""
    law = GumbelLaw()
    u_x = float(gumbel_wave(x))
    out = []
    for n in n_list:
        y = (x + (t - 1) * math.log(gumbel_exact.b_of_N(n))
             + math.log(n))
        stat = [math.log(n)
                * (np.mean(engine.advance(initial_state(n), law, rng,
                                          t).positions > y) - u_x)
                for _ in range(replicas)]
        out.append(np.quantile(stat, levels))
    return np.array(out)


def test_fluctuation_stat_matches_advance(monkeypatch):
    # N = 50 runs its six replicas in one unit of three-row blocks,
    # N = 70 000 one replica a unit in one-row blocks
    want = advance_stat_quantiles([50, 70_000], 3, 0.2, make_rng(83), 6,
                                  profile._LEVELS)
    for cpus in (1, 2):
        monkeypatch.setattr(noise, "_cpus", lambda cpus=cpus: cpus)
        rep = fluctuation_experiment([50, 70_000], 3, 0.2, make_rng(83),
                                     replicas=6, ref_size=100)
        np.testing.assert_array_equal(rep.stat_quantiles, want)


def test_fluctuation_validation():
    with pytest.raises(TypeError):
        fluctuation_experiment([10], 2, 0.0, make_rng(0), law=BernoulliLaw(0.5))
    with pytest.raises(ValueError):
        fluctuation_experiment([10], 0, 0.0, make_rng(0))
    # no replica, or a reference size the exact route does not cover, has
    # no quantiles: refused before any draw, naming the option
    for kw, name in (({"replicas": 0}, "replicas"),
                     ({"replicas": -1}, "replicas"),
                     ({"ref_size": 0}, "ref_size"),
                     ({"ref_size": 2 ** 53 + 1}, "ref_size")):
        rng = make_rng(0)
        with pytest.raises(ValueError, match=name):
            fluctuation_experiment([10], 2, 0.0, rng, **kw)
        assert rng.random() == make_rng(0).random()


def test_fluctuation_reference_is_exact():
    # |u'(x)|/rate times the exact quantiles of the sum of t - 1 centered
    # reciprocal sums; the reference draws nothing from rng
    law = GumbelLaw(0.5, 2.0)
    rng = make_rng(89)
    rep = fluctuation_experiment([50], 3, 0.3, rng, law=law, replicas=5,
                                 ref_size=1000)
    slope = abs(float(wave_derivative(0.3, law.rate, law.loc)))
    np.testing.assert_array_equal(
        rep.ref_quantiles,
        slope / law.rate * gumbel_exact.s_hat_sum_quantiles(
            1000, 2, profile._LEVELS))
    assert np.all(np.diff(rep.ref_quantiles) > 0)
    after = make_rng(89)
    engine._replica_runs(law, 50, 3, 5, after, lambda *a: None)
    assert rng.random() == after.random()


def test_fluctuation_ref_draws_is_deprecated_and_ignored():
    with pytest.warns(DeprecationWarning,
                      match="ref_draws is ignored.*s_hat_sum_quantiles"):
        old = fluctuation_experiment([50], 3, 0.0, make_rng(101), replicas=5,
                                     ref_size=1000, ref_draws=10)
    new = fluctuation_experiment([50], 3, 0.0, make_rng(101), replicas=5,
                                 ref_size=1000)
    np.testing.assert_array_equal(old.ref_quantiles, new.ref_quantiles)
    np.testing.assert_array_equal(old.stat_quantiles, new.stat_quantiles)
