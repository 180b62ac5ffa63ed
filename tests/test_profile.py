import math

import numpy as np
import pytest

from frontlab import engine, gumbel_exact, profile
from frontlab.engine import initial_state
from frontlab.noise import BernoulliLaw, GumbelLaw, LatticeLaw, SandwichedGumbelLaw
from frontlab.profile import (
    ProfileSample,
    centered_ks,
    conditional_tail,
    empirical_profile,
    fluctuation_experiment,
    gumbel_wave,
    marginal_gumbel_test,
    reaction_term,
    traveling_wave_residual,
    wave_curvature,
    wave_derivative,
)

from conftest import make_rng

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
    state = engine.ParticleState(np.array([0.0, 1.0, 2.0]), t=1, prev_front=0.0)
    a = empirical_profile(state, [-0.5, 0.5], center=1.0).values
    b = empirical_profile(state, [0.5, 1.5]).values
    np.testing.assert_array_equal(a, b)


def test_empirical_profile_counts_strictly_above():
    state = engine.ParticleState(np.array([0.0, 0.0, 1.0]), t=1, prev_front=0.0)
    prof = empirical_profile(state, [0.0, 1.0])
    np.testing.assert_allclose(prof.values, [1 / 3, 0.0])


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
    for f in (gumbel_wave, wave_derivative, wave_curvature):
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
    # noise shifted by 5: centered coordinates miss the target by a mile
    rep = marginal_gumbel_test(GumbelLaw(loc=5.0), 300, 2, make_rng(67),
                               k=2, replicas=100)
    assert np.all(rep.ks > 0.5)


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
# reaction term


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


def test_reaction_rejects_out_of_range():
    with pytest.raises(ValueError):
        reaction_term(np.array([-0.1]))
    with pytest.raises(ValueError):
        reaction_term(np.array([1.1]))


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
                                 replicas=40, ref_size=2000, ref_draws=100)
    assert rep.stat_quantiles.shape == (2, 9)
    assert rep.ref_quantiles.shape == (9,)
    np.testing.assert_allclose(rep.sampling_scale,
                               [math.log(50) / math.sqrt(50),
                                math.log(100) / math.sqrt(100)])


def test_fluctuation_t1_reference_degenerates():
    rep = fluctuation_experiment([50], 1, 0.0, make_rng(79),
                                 replicas=30, ref_size=1000, ref_draws=50)
    np.testing.assert_array_equal(rep.ref_quantiles, 0.0)


def test_fluctuation_median_approaches_reference():
    rep = fluctuation_experiment([300, 3000], 3, 0.0, make_rng(1729),
                                 replicas=150, ref_size=30_000, ref_draws=500)
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


def test_fluctuation_stat_matches_advance():
    # N = 50 steps in two-row blocks, N = 70 000 in one-row blocks
    rep = fluctuation_experiment([50, 70_000], 3, 0.2, make_rng(83),
                                 replicas=6, ref_size=100, ref_draws=10)
    np.testing.assert_array_equal(
        rep.stat_quantiles,
        advance_stat_quantiles([50, 70_000], 3, 0.2, make_rng(83), 6,
                               rep.levels))


def test_fluctuation_validation():
    with pytest.raises(TypeError):
        fluctuation_experiment([10], 2, 0.0, make_rng(0), law=BernoulliLaw(0.5))
    with pytest.raises(ValueError):
        fluctuation_experiment([10], 0, 0.0, make_rng(0))
