import itertools
import math

import numpy as np
import pytest
from scipy import stats

from frontlab import engine, noise
from frontlab.engine import (
    MAX_FRONT,
    MIN_FRONT,
    FrontFunctional,
    default_burn_in,
    initial_state,
    is_renewal,
    log_sum_exp,
    lse_front,
    order_front,
    run_trajectory,
    step_conditional,
    step_gumbel_exact,
    step_with_noise,
)
from frontlab.noise import BernoulliLaw, GumbelLaw, LatticeLaw, SandwichedGumbelLaw

from conftest import make_rng
from engine_oracles import step

THREE_ATOM = LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.3), (-3, 0.2)))


# ---------------------------------------------------------------------------
# oracle: exhaustive enumeration of one Bernoulli step at N = 3
#
# With p = 1/2 all 2^9 noise matrices are equally likely, so the sorted
# image of a fixed configuration has an exactly computable law; the sampled
# step must reproduce it atom by atom.


def exhaustive_step_law(positions):
    pmf = {}
    for bits in itertools.product((0.0, 1.0), repeat=9):
        noise = np.array(bits).reshape(3, 3)
        out = tuple(np.sort(step_with_noise(positions, noise)))
        pmf[out] = pmf.get(out, 0.0) + 1.0 / 512.0
    return pmf


def test_step_matches_exhaustive_enumeration():
    rng = make_rng(7)
    start = np.array([0.0, -0.5, -2.0])
    pmf = exhaustive_step_law(start)
    assert sum(pmf.values()) == pytest.approx(1.0)

    m = 40_000
    counts = {}
    law = BernoulliLaw(0.5)
    for _ in range(m):
        new = step(initial_state(3, start), law, rng).positions
        key = tuple(np.sort(new))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(pmf)
    for atom, p in pmf.items():
        freq = counts.get(atom, 0) / m
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / m) + 1e-12


def test_new_position_cdf_product_formula(rng):
    # P(X_i' <= y) = prod_j F(y - x_j), checked against sampled steps
    start = np.array([0.0, -0.4, -1.1])
    law = THREE_ATOM
    m = 30_000
    first = np.empty(m)
    for r in range(m):
        first[r] = step(initial_state(3, start), law, rng).positions[0]
    for y in (-1.0, -0.5, 0.0, -2.0):
        exact = math.exp(law.log_cdf(y - start).sum())
        freq = np.mean(first <= y)
        assert abs(freq - exact) < 4 * math.sqrt(exact * (1 - exact) / m) + 1e-9


# ---------------------------------------------------------------------------
# structural properties of the update


def test_step_monotone_in_initial_condition(rng):
    # coupling through a shared noise matrix preserves the partial order
    for _ in range(50):
        x = rng.normal(size=6)
        y = x + rng.random(6)
        noise = rng.gumbel(size=(6, 6))
        assert np.all(step_with_noise(x, noise) <= step_with_noise(y, noise))


def test_step_shift_covariant(rng):
    for _ in range(50):
        x = rng.normal(size=5)
        noise = rng.gumbel(size=(5, 5))
        c = float(rng.normal()) * 10
        np.testing.assert_allclose(step_with_noise(x + c, noise),
                                   step_with_noise(x, noise) + c, rtol=1e-12)


def test_fronts_are_ordered(rng):
    x = rng.normal(size=9)
    lse = lse_front(2.0)
    assert MIN_FRONT(x) <= order_front(5)(x) <= MAX_FRONT(x)
    assert MAX_FRONT(x) <= lse(x) <= MAX_FRONT(x) + math.log(9) / 2.0
    assert order_front(1)(x) == MAX_FRONT(x)
    assert order_front(9)(x) == MIN_FRONT(x)


def test_front_shift_covariance(rng):
    x = rng.normal(size=7)
    for f in (MAX_FRONT, MIN_FRONT, lse_front(0.7), order_front(3)):
        assert f(x + 2.5) == pytest.approx(f(x) + 2.5, rel=1e-12)


def test_front_validation():
    with pytest.raises(ValueError):
        FrontFunctional("median")
    # the rate of an lse front is finite and > 0, as GumbelLaw's is
    for rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite rate > 0"):
            lse_front(rate)
    with pytest.raises(ValueError, match="finite rate > 0"):
        FrontFunctional("lse")
    with pytest.raises(ValueError):
        order_front(0)
    with pytest.raises(ValueError):
        order_front(4)(np.zeros(3))
    # a rank that is not an integer is refused, not truncated
    for rank in (2.7, 2.5, math.inf, math.nan, None):
        with pytest.raises(ValueError, match="integer rank"):
            FrontFunctional("order", rank)
    with pytest.raises(ValueError, match="integer rank"):
        order_front(2.5)
    assert order_front(2.0)(np.arange(5.0)) == 3.0


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 100_000])
def test_fronts_match_numpy_reductions(n):
    # max, min and order fronts read the one-row block of ``rows``
    x = make_rng(9).normal(size=n)
    rank = min(3, n)
    for front, want in ((MAX_FRONT, np.max(x)), (MIN_FRONT, np.min(x)),
                        (order_front(rank), np.partition(x, -rank)[-rank])):
        got = front(x)
        assert type(got) is float and got == want


def test_log_sum_exp_stability():
    x = np.array([1e308, 1e308 - 5.0])
    assert math.isfinite(log_sum_exp(x))
    small = np.array([0.1, -0.2, 0.4])
    naive = math.log(np.exp(small).sum())
    assert log_sum_exp(small) == pytest.approx(naive, rel=1e-12)


def test_initial_state_validation():
    st = initial_state(4)
    np.testing.assert_array_equal(st.positions, np.zeros(4))
    assert st.t == 0 and math.isnan(st.prev_front)
    with pytest.raises(ValueError):
        initial_state(3, np.zeros(5))
    for n in (0, -1):
        with pytest.raises(ValueError, match="N >= 1"):
            initial_state(n)


# ---------------------------------------------------------------------------
# renewal events


def test_is_renewal_hand_cases():
    assert is_renewal(np.array([[1.0, 0.0], [2.0, 0.0]]), leader=0)
    assert not is_renewal(np.array([[0.0, 1.0], [2.0, 0.0]]), leader=0)
    assert is_renewal(np.array([[0.0, 1.0], [0.0, 2.0]]), leader=1)
    # ties attain the max
    assert is_renewal(np.zeros((3, 3)), leader=2)


@pytest.mark.parametrize("law", [GumbelLaw(), BernoulliLaw(0.5)])
def test_is_renewal_stacked_equals_the_scalar_calls(law):
    # Bernoulli noise ties often, and ties count as attainment
    rng = make_rng(11)
    for n in (1, 2, 3, 5):
        noise = law.sample(rng, (400, n, n))
        leaders = rng.integers(0, n, 400)
        got = is_renewal(noise, leaders)
        want = [is_renewal(m, int(k)) for m, k in zip(noise, leaders)]
        assert got.dtype == bool and got.shape == (400,)
        np.testing.assert_array_equal(got, want)
        if n in (2, 3):
            assert 0 < got.sum() < 400  # both outcomes are exercised
    assert type(is_renewal(np.zeros((2, 2)), 1)) is bool


def test_renewal_probability_continuous(rng):
    # each row's max is in the leader column w.p. 1/N, rows independent
    n, m = 2, 20_000
    hits = sum(is_renewal(rng.gumbel(size=(n, n)), 0) for _ in range(m))
    p = hits / m
    assert abs(p - 0.25) < 3 * math.sqrt(0.25 * 0.75 / m)


# ---------------------------------------------------------------------------
# exact one-step samplers


def test_step_gumbel_exact_marginal(rng):
    # new positions are i.i.d. Gumbel around the log-sum-exp front
    law = GumbelLaw(loc=0.0, rate=1.0)
    start = rng.normal(size=20_000)
    state = engine.ParticleState(positions=start, t=3)
    out = step_gumbel_exact(state, law, rng)
    assert out.t == 4
    assert out.prev_front == pytest.approx(log_sum_exp(start, 1.0))
    shifted = out.positions - out.prev_front
    d = stats.kstest(shifted, stats.gumbel_r.cdf).statistic
    assert d < math.sqrt(math.log(2 / 1e-3) / (2 * 20_000))


def test_step_conditional_matches_gumbel_route(rng):
    # FFT-tabulated conditional sampler vs the closed-form Gumbel step
    law = GumbelLaw()
    start = rng.normal(size=10_000) * 2.0
    state = engine.ParticleState(positions=start, t=0)
    out = step_conditional(state, law, rng)
    shifted = out.positions - log_sum_exp(start, 1.0)
    d = stats.kstest(shifted, stats.gumbel_r.cdf).statistic
    # grid_step 2e-3 caps the attainable accuracy below the DKW band
    assert d < math.sqrt(math.log(2 / 1e-3) / (2 * 10_000)) + 2e-3


def test_step_conditional_vs_full_step_two_sample(rng):
    law = SandwichedGumbelLaw(-0.3, 0.3)
    start = np.linspace(-1.5, 0.5, 120)
    a = np.concatenate([
        step(engine.ParticleState(start, 0), law, rng).positions
        for _ in range(40)])
    b = np.concatenate([
        step_conditional(engine.ParticleState(start, 0), law, rng).positions
        for _ in range(40)])
    assert stats.ks_2samp(a, b).pvalue > 1e-3


@pytest.mark.parametrize("stragglers", [0, 10])
def test_step_conditional_law_is_not_fft_round_off(stragglers):
    # one conditional step at N = 10^5 from a spread cloud, against the
    # exact conditional CDF prod_j F(x - X_j) at 200 order statistics. Far
    # sources put log-CDF terms near -1e10 into the convolution; unless
    # they are floored, their round-off bends the sampled law (KS ~0.46
    # for the wide cloud) or leaves no grid point to invert (stragglers)
    law = SandwichedGumbelLaw(-0.5, 0.5)
    start = 1.5 * make_rng(1).gumbel(size=100_000)
    start[:stragglers] = start.min() - 20.0
    out = step_conditional(engine.ParticleState(start, 0), law, make_rng(5))
    idx = np.linspace(0, start.size - 1, 200).astype(int)
    x = np.sort(out.positions)[idx]
    cdf = np.exp(np.array([law.log_cdf(xi - start).sum() for xi in x]))
    gap = np.maximum(np.abs(cdf - idx / start.size),
                     np.abs(cdf - (idx + 1) / start.size)).max()
    assert gap < 0.01  # sampling noise ~0.004, grid_step error < 1e-3


def test_step_conditional_rejects_discrete():
    with pytest.raises(TypeError):
        step_conditional(initial_state(3), BernoulliLaw(0.5), make_rng(0))
    with pytest.raises(TypeError):
        step_conditional(initial_state(3), THREE_ATOM, make_rng(0))


# ---------------------------------------------------------------------------
# speed estimators


def test_single_particle_speed_is_mean_jump():
    # N = 1: front increments are i.i.d. noise, speed = E xi = Euler gamma
    est = engine.estimate_speed(GumbelLaw(), 1, t_run=20_000, rng=make_rng(3))
    assert est.n_blocks == 32
    assert abs(est.value - np.euler_gamma) < 4 * est.std_err
    # per-step variance of a Gumbel is pi^2/6
    assert est.sigma2 == pytest.approx(math.pi ** 2 / 6, rel=0.25)


def test_speed_bernoulli_single_particle():
    est = engine.estimate_speed(BernoulliLaw(0.5), 1, t_run=20_000,
                                rng=make_rng(4))
    assert abs(est.value - 0.5) < 4 * est.std_err


def test_estimate_speed_validation():
    with pytest.raises(ValueError):
        engine.estimate_speed(GumbelLaw(), 2, t_run=50, rng=make_rng(0))
    with pytest.raises(ValueError):
        engine.estimate_speed(GumbelLaw(), 2, t_run=128, n_batches=256,
                              rng=make_rng(0))
    for n_batches in (0, 1):   # no mean, or no batch-means standard error
        with pytest.raises(ValueError, match="n_batches"):
            engine.estimate_speed(GumbelLaw(), 2, t_run=1000,
                                  n_batches=n_batches, rng=make_rng(0))


def test_batch_means_uses_whole_batches():
    # ten steps in three batches of three: the tenth step is left out
    path = 5.0 + np.concatenate(([0.0], np.cumsum(np.arange(10.0))))
    est = engine.batch_means(path, 3)
    assert est.value == 4.0  # mean of the increments 0..8
    assert est.n_blocks == 3 and est.method == "batch_means"
    # batch means 1, 4, 7
    assert est.std_err == pytest.approx(3.0 / math.sqrt(3.0), rel=1e-14)
    assert est.sigma2 == pytest.approx(3 * 9.0, rel=1e-14)


def test_renewal_speed_validation(monkeypatch):
    with pytest.raises(ValueError):
        engine.renewal_speed(GumbelLaw(), 2, n_renewals=5, rng=make_rng(0))
    monkeypatch.setattr(engine, "_STEP_BUDGET", 20)
    with pytest.raises(RuntimeError):
        engine.renewal_speed(GumbelLaw(), 3, n_renewals=100, rng=make_rng(0))


def test_renewal_speed_runs(rng):
    est = engine.renewal_speed(GumbelLaw(), 2, n_renewals=50, rng=rng)
    assert est.method == "regenerative"
    assert est.n_blocks == 50
    assert est.std_err > 0.0


def per_step_renewal(law, n, front, n_renewals, rng, step_budget=10**7):
    # reference: the per-step regenerative estimator, one (N, N) draw, one
    # is_renewal and one step per step; returns the estimate and the step
    # count at the last renewal used
    pos = np.zeros(n)
    disp, dur = [], []
    mark_front, mark_step, steps = None, 0, 0
    while len(disp) < n_renewals:
        if steps >= step_budget:
            raise RuntimeError("budget")
        noise = law.sample(rng, (n, n))
        renew = is_renewal(noise, int(np.argmax(pos)))
        pos = step_with_noise(pos, noise)
        steps += 1
        if renew:
            f = front(pos)
            if mark_front is not None:
                disp.append(f - mark_front)
                dur.append(steps - mark_step)
            mark_front, mark_step = f, steps
    d, ell = np.array(disp), np.array(dur, dtype=float)
    v = d.sum() / ell.sum()
    resid = d - v * ell
    return (v, np.std(resid, ddof=1) / (ell.mean() * math.sqrt(len(d))),
            np.var(resid, ddof=1) / ell.mean()), steps


@pytest.mark.parametrize("law, n, front", [
    (GumbelLaw(), 2, MAX_FRONT), (GumbelLaw(), 2, lse_front(1.0)),
    (GumbelLaw(), 3, MAX_FRONT), (GumbelLaw(), 3, lse_front(1.0)),
    (BernoulliLaw(0.5), 2, MAX_FRONT)])
def test_renewal_speed_is_the_per_step_estimator(law, n, front, monkeypatch):
    # block draws give the same noise stream, so the same renewals; only
    # re-associated sums and vectorized lse fronts may move the last ulps
    est = engine.renewal_speed(law, n, front=front, n_renewals=300,
                               rng=make_rng(51))
    want, last = per_step_renewal(law, n, front, 300, make_rng(51))
    assert est.n_blocks == 300 and est.method == "regenerative"
    np.testing.assert_allclose((est.value, est.std_err, est.sigma2), want,
                               rtol=1e-12, atol=0)
    # the budget is counted in steps: enough at the last renewal used,
    # one step short is not
    monkeypatch.setattr(engine, "_STEP_BUDGET", last)
    at = engine.renewal_speed(law, n, front=front, n_renewals=300,
                              rng=make_rng(51))
    assert at.n_blocks == 300
    np.testing.assert_allclose((at.value, at.std_err, at.sigma2), want,
                               rtol=1e-12, atol=0)
    monkeypatch.setattr(engine, "_STEP_BUDGET", last - 1)
    with pytest.raises(RuntimeError, match="budget exhausted"):
        engine.renewal_speed(law, n, front=front, n_renewals=300,
                             rng=make_rng(51))


def test_default_burn_in():
    assert default_burn_in(1) == 10
    assert default_burn_in(2) == 40
    assert default_burn_in(100) == 10_000


# ---------------------------------------------------------------------------
# trajectories


def test_run_trajectory_columns(rng):
    table = run_trajectory(GumbelLaw(), 5, 40, rng, front=lse_front(1.0))
    assert table.shape == (41, 5)
    np.testing.assert_array_equal(table[:, 0], np.arange(41))
    np.testing.assert_array_equal(table[0], [0, math.log(5), 0, 0, 0])
    assert np.all(table[:, 4] >= 0.0)                 # gap
    assert np.all(table[:, 2] >= table[:, 3])         # max >= min
    assert np.all(table[:, 1] >= table[:, 2] - 1e-12)  # lse dominates max


def test_run_trajectory_max_front_between_bounds(rng):
    table = run_trajectory(THREE_ATOM, 4, 60, rng)
    assert np.all(table[:, 1] == table[:, 2])
    gaps = table[:, 2] - table[:, 3]
    np.testing.assert_allclose(table[:, 4], gaps)


def test_negative_step_counts_are_refused(rng):
    law = BernoulliLaw(0.5)
    with pytest.raises(ValueError, match="t >= 0"):
        run_trajectory(law, 2, -1, rng)
    with pytest.raises(ValueError, match="t_burn must be >= 0"):
        engine.estimate_speed(law, 2, t_burn=-5, rng=rng)
    # zero steps leave the t = 0 row alone
    assert run_trajectory(law, 2, 0, rng).shape == (1, 5)


# ---------------------------------------------------------------------------
# the block-wise stepping core


def per_step_run(law, n, t, rng, front, pos):
    # reference: one noise draw, one full step and one front call per step;
    # returns the fronts and the positions after each step
    fronts, history = np.empty(t), np.empty((t, n))
    for i in range(t):
        history[i] = pos = step_with_noise(pos, law.sample(rng, (n, n)))
        fronts[i] = front(pos)
    return fronts, history


@pytest.mark.parametrize("law, n", [(BernoulliLaw(0.5), 4), (THREE_ATOM, 3)])
@pytest.mark.parametrize("front", [MAX_FRONT, lse_front(1.0)])
def test_full_step_core_is_the_per_step_loop(law, n, front):
    start = np.array([0.0, -0.5, -2.0, 1.0])[:n]
    state = engine.advance(initial_state(n, start), law, make_rng(21), 300,
                           front=front)
    fronts, history = per_step_run(law, n, 300, make_rng(21), front, start)
    np.testing.assert_array_equal(state.positions, history[-1])
    assert state.prev_front == fronts[-2]

    start = np.zeros(n)
    table = run_trajectory(law, n, 300, make_rng(21), front=front)
    fronts, history = per_step_run(law, n, 300, make_rng(21), front, start)
    np.testing.assert_array_equal(table[1:, 1], fronts)
    assert table[0, 1] == front(start)
    # the max and min columns pin the positions bit for bit
    hi, lo = history.max(axis=1), history.min(axis=1)
    np.testing.assert_array_equal(table[1:, 2:], np.column_stack(
        (hi, lo, hi - lo)))

    burn, run, batches = 50, 640, 32
    est = engine.estimate_speed(law, n, front=front, t_burn=burn, t_run=run,
                                rng=make_rng(22), n_batches=batches)
    rng = make_rng(22)
    _, history = per_step_run(law, n, burn, rng, front, start)
    f0 = front(history[-1])
    fronts, _ = per_step_run(law, n, run, rng, front, history[-1])
    length = run // batches
    means = np.diff(np.concatenate(([f0], fronts[length - 1::length]))) \
        / length
    want = ((fronts[-1] - f0) / run,
            np.std(means, ddof=1) / math.sqrt(batches),
            length * np.var(means, ddof=1))
    assert (est.value, est.std_err, est.sigma2) == want


def full_step_positions(law, n, t, rng):
    # the O(N^2) recursion, one reference step per call
    state = initial_state(n)
    out = np.empty((t, n))
    for i in range(t):
        state = step(state, law, rng)
        out[i] = state.positions
    return out


@pytest.mark.parametrize("n, t", [(2, 20_000), (64, 2000)])
def test_exact_gumbel_kernel_matches_full_step_in_law(n, t):
    # X(t) = Phi(X(t-1)) + fresh Gumbel draws, so any front's increments
    # have the same joint law under both kernels; loc and rate are off the
    # defaults so a slip in either shows
    law = GumbelLaw(loc=0.3, rate=1.5)
    full = full_step_positions(law, n, t, make_rng(31))
    for front in (lse_front(law.rate), MAX_FRONT):
        exact = np.diff(run_trajectory(law, n, t, make_rng(32),
                                       front=front)[20:, 1])
        ref = np.diff([front(p) for p in full[19:]])
        p = stats.ks_2samp(exact, ref).pvalue
        lag1 = [np.corrcoef(d[:-1], d[1:])[0, 1] for d in (exact, ref)]
        assert p > 1e-3, (front, p)
        assert abs(lag1[0] - lag1[1]) <= 4 * math.sqrt(2.0 / t), lag1


def test_exact_gumbel_kernel_keeps_the_start():
    # the kernel starts from Phi of the given positions, not of zeros
    law = GumbelLaw()
    start = np.array([5.0, -3.0, 0.5])
    state = engine.advance(initial_state(3, start), law, make_rng(33), 1)
    fresh = law.sample(make_rng(33), (1, 3))[0]
    want = log_sum_exp(start) + log_sum_exp(fresh)
    assert log_sum_exp(state.positions) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("front", [MAX_FRONT, MIN_FRONT, order_front(1),
                                   order_front(3), lse_front(1.0),
                                   lse_front(0.3)])
@pytest.mark.parametrize("n", [1, 3, 257])
def test_front_rows_match_the_scalar_front(front, n, rng):
    if front.kind == "order" and front.param > n:
        with pytest.raises(ValueError):
            front.rows(np.zeros((2, n)))
        return
    block = rng.normal(size=(50, n)) * 5.0
    want = np.array([front(row) for row in block])
    np.testing.assert_array_equal(front.rows(block), want)


def test_advance_is_the_per_step_ladder():
    # at N = 50 every law but the Gumbel takes the full step, bit for bit
    # the step ladder. The Gumbel kernel sums the fresh rows' log-sum-exp
    # fronts by cumsum where the ladder takes the front of each new cloud,
    # so its positions move by round-off only. prev_front is the front of
    # X(t-1), which the first t - 1 steps of the same stream give
    start = initial_state(50)
    for law in (GumbelLaw(rate=1.5), BernoulliLaw(0.3), THREE_ATOM,
                SandwichedGumbelLaw(-0.3, 0.3)):
        prev = engine.advance(start, law, make_rng(41), 2).positions
        for front in (lse_front(2.0), None):
            got = engine.advance(start, law, make_rng(41), 3, front=front)
            rng, want = make_rng(41), start
            for _ in range(3):
                if isinstance(law, GumbelLaw):
                    want = step_gumbel_exact(want, law, rng)
                else:
                    want = step(want, law, rng)
            if isinstance(law, GumbelLaw):
                np.testing.assert_allclose(got.positions, want.positions,
                                           rtol=1e-13, atol=0)
            else:
                np.testing.assert_array_equal(got.positions, want.positions)
            if front is None:
                front = lse_front(getattr(law, "rate", 1.0))
            assert (got.t, got.prev_front) == (3, front(prev))


def test_advance_discrete_runs_the_scan_bit_for_bit():
    # at small N the discrete branch runs the chunked scan; still the ladder
    front = lse_front(1.0)
    start = initial_state(3, [0.0, -0.5, -2.0])
    for law in (BernoulliLaw(0.5), THREE_ATOM):
        for steps in (0, 1, 2, 500):
            got = engine.advance(start, law, make_rng(42), steps, front=front)
            rng, want = make_rng(42), start
            for _ in range(steps):
                want = step(want, law, rng, front=front)
            np.testing.assert_array_equal(got.positions, want.positions)
            assert got.t == want.t
            assert (got.prev_front == want.prev_front
                    or math.isnan(got.prev_front) and steps == 0)


@pytest.mark.parametrize("law, n, kernel", [
    (SandwichedGumbelLaw(-0.3, 0.3), 384, step),
    (SandwichedGumbelLaw(-0.3, 0.3), 385, step_conditional),
    (GumbelLaw(loc=0.3, rate=1.5), 70_000, step_gumbel_exact),
])
def test_position_blocks_is_the_kernel_ladder(law, n, kernel):
    # continuous laws other than the Gumbel take the full step up to
    # N = 384 and the conditional step above it; Gumbel blocks of one row
    # (N > 2^15) are the exact step. Each is its ladder bit for bit
    start = make_rng(43).normal(size=n)
    got = np.vstack(list(engine._position_blocks(law, 3, make_rng(44),
                                                 start)))
    rng, state, want = make_rng(44), initial_state(n, start), []
    for _ in range(3):
        state = kernel(state, law, rng)
        want.append(state.positions)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n, steps", [(1, 70_000), (3, 30_000), (1000, 200),
                                      (1 << 16, 2), ((1 << 16) + 1, 2),
                                      (100_000, 2)])
def test_gumbel_blocks_hold_at_most_2_16_floats(n, steps):
    blocks = list(engine._position_blocks(GumbelLaw(), steps, make_rng(45),
                                          np.zeros(n)))
    assert sum(b.shape[0] for b in blocks) == steps
    for b in blocks:
        assert b.shape[0] >= 1 and b.size <= max(n, 1 << 16)
        assert b.shape[0] == min(steps, max(1, (1 << 16) // n)) \
            or b is blocks[-1]


def test_gumbel_blocks_join_like_one_block(monkeypatch):
    # a block starts from the log-sum-exp of the last positions, where one
    # block goes on with the cumsum of the fresh rows' fronts
    law, n, steps = GumbelLaw(loc=0.3, rate=1.5), 1000, 300
    start = make_rng(46).normal(size=n)
    cut = list(engine._position_blocks(law, steps, make_rng(47), start))
    monkeypatch.setattr(noise, "_UNIT_ELEMENTS", n * steps)
    whole = list(engine._position_blocks(law, steps, make_rng(47), start))
    assert len(cut) == 5 and len(whole) == 1
    np.testing.assert_allclose(np.vstack(cut), whole[0], rtol=1e-13, atol=0)


def test_conditional_step_fronts_match_the_full_step_at_n256():
    """Two-sample KS of lse front increments, conditional against full step.

    Above N = 384 ``estimate_speed`` and ``run_trajectory`` run continuous
    laws other than the Gumbel through ``step_conditional``, so their
    speeds are exact only up to its 2e-3 grid. This pins the conditional
    kernel's front increments to the full step's at N = 256, where the full
    step is cheap enough to serve as the reference (200 steps each).
    """
    law, n, t = SandwichedGumbelLaw(-0.3, 0.3), 256, 200
    full = run_trajectory(law, n, t, make_rng(48), front=lse_front(1.0))
    rng, state, cond = make_rng(49), initial_state(n), []
    for _ in range(t + 1):
        state = step_conditional(state, law, rng)
        cond.append(state.prev_front)    # lse(1) of X(0), ..., X(t)
    p = stats.ks_2samp(np.diff(full[10:, 1]), np.diff(cond[10:])).pvalue
    assert p > 1e-3, p


# ---------------------------------------------------------------------------
# the chunked full step


def per_step_loop(positions, noise):
    out = np.empty((noise.shape[0], positions.size))
    for t in range(noise.shape[0]):
        out[t] = positions = step_with_noise(positions, noise[t])
    return out


BLOCK_LENGTHS = (1, 2, 9, 997, 1000, 800)  # 997 prime; L = 22, 22, 20


@pytest.mark.parametrize("law, n", [(BernoulliLaw(0.5), n)
                                    for n in range(1, 7)]
                         + [(BernoulliLaw(0.2), 4), (THREE_ATOM, 3),
                            (THREE_ATOM, 5)])
def test_full_steps_is_the_per_step_loop_for_integer_noise(law, n):
    start = np.array([0.0, -0.5, -2.0, 1.0, 3.0, -1.5])[:n]
    for b in BLOCK_LENGTHS:
        noise = law.sample(make_rng(b), (b, n, n))
        assert (engine._chunk_length(n, b) > 1) == (b >= 8)
        np.testing.assert_array_equal(engine._full_steps(start, noise),
                                      per_step_loop(start, noise))


@pytest.mark.parametrize("law", [GumbelLaw(loc=0.3, rate=1.5),
                                 SandwichedGumbelLaw(-0.3, 0.3)])
@pytest.mark.parametrize("n", [2, 5, 12])
def test_full_steps_continuous_noise_moves_only_by_round_off(law, n):
    start = make_rng(60).normal(size=n) * 3.0
    for b in BLOCK_LENGTHS:
        noise = law.sample(make_rng(b), (b, n, n))
        np.testing.assert_allclose(engine._full_steps(start, noise),
                                   per_step_loop(start, noise),
                                   rtol=1e-13, atol=0)


def test_full_steps_above_the_crossover_is_the_loop():
    start = make_rng(61).normal(size=64)
    noise = GumbelLaw().sample(make_rng(62), (300, 64, 64))
    assert engine._chunk_length(64, 300) == 1
    np.testing.assert_array_equal(engine._full_steps(start, noise),
                                  per_step_loop(start, noise))


@pytest.mark.parametrize("n", range(1, 17))
def test_full_block_is_sized_within_the_bound(n):
    bound = noise._BLOCK_ELEMENTS
    for steps in (1, 10_007, 1_000_003, bound):
        b = engine._full_block(n, steps)
        assert 1 <= b <= steps
        used = engine._full_step_elements(n, b)
        assert used <= bound
        # the scan's chunk-major copy and product temporary count too
        chunk = engine._chunk_length(n, b)
        if chunk > 1:
            assert used == 2 * b * n * n + n ** 3 * (b // chunk)
        # and the block is not cut much below the bound
        assert b == steps or used > 0.99 * bound


def test_step_conditional_window_is_seed_independent(monkeypatch):
    # the window ends are judged from exact sums and the right pad counts
    # from the log-sum-exp of the sources, so the number of window passes
    # does not hang on FFT round-off or on where the cloud's maximum falls
    law = SandwichedGumbelLaw(-0.5, 0.5)
    calls = []
    log_cdf = SandwichedGumbelLaw.log_cdf

    def counted(self, x):
        calls.append(1)
        return log_cdf(self, x)

    monkeypatch.setattr(SandwichedGumbelLaw, "log_cdf", counted)
    passes = []
    for seed in (1, 2, 3, 4, 5):
        rng = make_rng(seed)
        state = initial_state(20_000)
        for _ in range(2):
            state = step_conditional(state, law, rng)
        calls.clear()
        step_conditional(state, law, rng)
        passes.append(len(calls))
    assert len(set(passes)) == 1, passes
