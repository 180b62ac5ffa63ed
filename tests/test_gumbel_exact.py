import math
import sys
import threading

import numpy as np
import pytest
from scipy import integrate, special, stats

from frontlab import gumbel_exact as gx, noise

from conftest import FailingUniforms, ZeroUniforms, make_rng
from gumbel_oracles import speeded_front_samples
from stable_oracles import (constant_c_by_quadrature, psi_from_levy,
                            stable_reference_samples)


# ---------------------------------------------------------------------------
# oracles: quadrature routes independent of the samplers


def quad_b_over_n(n):
    """b_N/N as a direct integral, not via exp1."""
    val, err = integrate.quad(lambda y: math.exp(-y) / y, 1.0 / n, np.inf,
                              epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    return val


def dblquad_log_recip_sum_moments():
    """E ln(1/x + 1/y) and its second moment over Exp x Exp, N = 2."""

    def weight(f):
        val, err = integrate.dblquad(
            lambda y, x: f(math.log(1.0 / x + 1.0 / y))
            * math.exp(-x - y), 0.0, 60.0, 0.0, 60.0,
            epsabs=1e-11, epsrel=1e-10)
        assert err < 1e-7
        return val

    m1 = weight(lambda L: L)
    m2 = weight(lambda L: L * L)
    return m1, m2 - m1 * m1


# ---------------------------------------------------------------------------
# front increments


def test_upsilon_single_particle_is_gumbel(rng):
    # ln(1/E) is a standard Gumbel, so Upsilon = loc + Gumbel/rate
    x = gx.upsilon_samples(1, 30_000, rng, loc=2.0, rate=0.5)
    d = stats.kstest(x, stats.gumbel_r.cdf, args=(2.0, 2.0)).statistic
    assert d < math.sqrt(math.log(2 / 1e-3) / (2 * 30_000)) + 1e-4


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_v_sigma_mc_matches_dblquad_at_n2():
    # the log singularity at x -> 0 trips quadpack's divergence heuristic;
    # the asserted error estimate and the MC agreement below cover it
    mean, var = dblquad_log_recip_sum_moments()
    est = gx.v_sigma_mc(2, 400_000, make_rng(11))
    assert abs(est.v - mean) < 4 * est.v_std_err
    assert abs(est.sigma2 - var) < 4 * est.sigma2_std_err


def test_v_sigma_mc_rate_and_loc_scaling():
    a = gx.v_sigma_mc(3, 50_000, make_rng(5), loc=0.0, rate=1.0)
    b = gx.v_sigma_mc(3, 50_000, make_rng(5), loc=1.5, rate=2.0)
    # same RNG stream: exact affine relation between the two runs
    assert b.v == pytest.approx(1.5 + a.v / 2.0, rel=1e-12)
    assert b.sigma2 == pytest.approx(a.sigma2 / 4.0, rel=1e-12)


def test_v_sigma_mc_validation():
    with pytest.raises(ValueError):
        gx.v_sigma_mc(2, 2, make_rng(0))
    with pytest.raises(ValueError):
        gx.upsilon_samples(0, 10, make_rng(0))


@pytest.mark.parametrize("n", [1, 7, 10_000])
def test_recip_sums_do_not_depend_on_block_length(n, monkeypatch):
    m = max(1, noise._UNIT_ELEMENTS // n) + 3  # one full default unit, then 3
    full = gx._recip_sums(n, m, make_rng(4))
    # units of 7 rows at N = 1, of one row at N = 7 and 10^4
    monkeypatch.setattr(noise, "_UNIT_ELEMENTS", 7)
    np.testing.assert_array_equal(gx._recip_sums(n, m, make_rng(4)), full)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recip_sums_zero_uniform_is_finite():
    # u = 0 is read as the middle of its cell: E = 2^-54, 1/E = 2^54
    for n, m in [(1, 3), (10_000, 13)]:  # one block, then three
        np.testing.assert_array_equal(gx._recip_sums(n, m, ZeroUniforms()),
                                      np.full(m, n * 2.0 ** 54))


def serial_recip_sums(n, m, rng):
    """One thread, units of whole rows drawn and summed in turn."""
    rows = max(1, noise._UNIT_ELEMENTS // n)
    buf = np.empty((min(rows, m), n))
    out = np.empty(m)
    for i in range(0, m, rows):
        x = buf[:min(rows, m - i)]
        rng.random(out=x)
        x = np.maximum(-np.log1p(-x), 2.0 ** -54)
        np.reciprocal(x, out=x)
        x.sum(axis=1, out=out[i:i + x.shape[0]])
    return out


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 10_000, (1 << 16) + 1])
@pytest.mark.parametrize("extra", [-1, 0, 1, None],
                         ids=["below", "one", "above", "blocks"])
def test_recip_sums_match_serial_loop(n, extra, cpus, monkeypatch):
    rows = max(1, noise._UNIT_ELEMENTS // n)
    m = 3 * rows + 2 if extra is None else rows + extra
    monkeypatch.setattr(noise, "_cpus", lambda: cpus)
    threads = threading.active_count()
    rng, ref_rng = make_rng(11), make_rng(11)
    np.testing.assert_array_equal(gx._recip_sums(n, m, rng),
                                  serial_recip_sums(n, m, ref_rng))
    assert rng.random() == ref_rng.random()
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus, m, started", [(2, 6, 0), (2, 7, 1),
                                              (1, 7, 0)])
def test_recip_sums_second_worker(cpus, m, started, monkeypatch):
    # a helper thread only for two blocks or more (6 rows a block at 10^4)
    # on two CPUs or more
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(noise, "_cpus", lambda: cpus)
    monkeypatch.setattr(noise.threading, "Thread", Counted)
    gx._recip_sums(10_000, m, make_rng(12))
    assert len(starts) == started
    assert not any(t.is_alive() for t in starts)


def test_recip_sums_under_thread_stress(monkeypatch):
    # four concurrent calls, each with a helper thread, on 16-element blocks
    # and a short switch interval: a draw out of block order or a lost
    # write to out would change some row
    monkeypatch.setattr(noise, "_cpus", lambda: 2)
    monkeypatch.setattr(noise, "_UNIT_ELEMENTS", 16)
    expected = [serial_recip_sums(7, 500, make_rng(s)) for s in range(4)]
    got = [None] * 4

    def call(s):
        got[s] = gx._recip_sums(7, 500, make_rng(s))

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
        np.testing.assert_array_equal(g, e)


@pytest.mark.parametrize("cpus", [1, 2])
def test_recip_sums_error_propagates(cpus, monkeypatch):
    monkeypatch.setattr(noise, "_cpus", lambda: cpus)
    threads = threading.active_count()
    raised = []

    def call():
        try:
            gx._recip_sums(10_000, 60, FailingUniforms(3))
        except MemoryError as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "_recip_sums hung after a failed draw"
    assert [str(e) for e in raised] == ["planted"]
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# centering sequence


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_b_of_n_matches_quadrature(n):
    assert gx.b_of_N(n) / n == pytest.approx(quad_b_over_n(n), rel=1e-10)


def test_b_of_n_matches_truncated_mean_mc():
    # third route: b_N/N = E[(1/E) 1{E >= 1/N}], plain Monte Carlo
    n, m = 100, 400_000
    e = make_rng(17).standard_exponential(m)
    x = np.where(e >= 1.0 / n, 1.0 / np.maximum(e, 1e-300), 0.0)
    se = x.std(ddof=1) / math.sqrt(m)
    assert abs(x.mean() - gx.b_of_N(n) / n) < 4 * se


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_b_over_n_asymptotic_error_bound(n):
    gap = abs(gx.b_of_N(n) / n - gx.b_over_n_asymptotic(n))
    assert gap <= 10.0 / n ** 2


def test_expansion_values():
    ln_n = math.log(100)
    lln = math.log(ln_n)
    want = ln_n + lln + lln / ln_n + (1 - np.euler_gamma) / ln_n
    assert gx.expansion_v(100) == pytest.approx(want, rel=1e-14)
    assert gx.expansion_sigma2(100) == pytest.approx(
        math.pi ** 2 / (3 * ln_n), rel=1e-14)
    # rate rescales: v like 1/rate, sigma2 like 1/rate^2
    assert gx.expansion_v(100, loc=1.0, rate=2.0) == pytest.approx(
        1.0 + want / 2.0)
    assert gx.expansion_sigma2(100, rate=2.0) == pytest.approx(
        math.pi ** 2 / (12 * ln_n))


def test_expansion_validation():
    for n in (1, 2):
        with pytest.raises(ValueError):
            gx.expansion_v(n)
        with pytest.raises(ValueError):
            gx.expansion_sigma2(n)


# ---------------------------------------------------------------------------
# stable exponent


def test_constant_c_is_one_minus_gamma():
    # the sine integrals evaluate to 1 - gamma in closed form
    assert gx.constant_C() == 1.0 - np.euler_gamma
    assert constant_c_by_quadrature() == pytest.approx(gx.constant_C(),
                                                       abs=1e-12)


def test_psi_zero_shape():
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    psi0 = gx._psi_zero(u)
    np.testing.assert_allclose(psi0.real, -0.5 * math.pi * np.abs(u))
    np.testing.assert_allclose(psi0.imag, -u * np.log(np.abs(np.where(
        u == 0, 1.0, u * np.sign(u)))), atol=1e-15)
    assert psi0[2] == 0.0


def test_psi_from_levy_matches_closed_form():
    # psi_C = i C u + psi_0; cf_distance's target is exp(psi_0)
    u = np.array([-1.5, -0.25, 0.5, 1.0, 2.0])
    want = 1j * gx.constant_C() * u + gx._psi_zero(u)
    for ui, wi in zip(u, want):
        assert psi_from_levy(ui) == pytest.approx(complex(wi), abs=1e-8)
    assert psi_from_levy(0.0) == 0.0


def test_psi_conjugate_symmetry():
    got = psi_from_levy(0.7)
    assert psi_from_levy(-0.7) == pytest.approx(got.conjugate(), abs=1e-10)


# ---------------------------------------------------------------------------
# scaling constants


def test_scaling_params_range():
    for n in (4, 10, 1000):
        p = gx.scaling_params(n)
        assert 0.0 < p.rate < 1.0
        assert p.shift == pytest.approx(-gx.constant_C()
                                        - math.log(p.b) / p.rate)
    # N = 3 sits just outside the usable range
    assert gx.scaling_params(3).rate > 1.0


# ---------------------------------------------------------------------------
# empirical characteristic function and the stable reference sampler


def test_empirical_cf_hand_case():
    cf = gx.empirical_cf(np.array([0.0, math.pi]), [1.0])
    assert abs(cf[0] - (1.0 + np.exp(1j * math.pi)) / 2.0) < 1e-12


def test_empirical_cf_refuses_empty_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        gx.empirical_cf(np.array([]), [1.0])


def test_cf_distance_zero_for_exact_target():
    # distance of the target against itself is 0 by construction
    u = np.array([0.5, 1.0])
    samples = np.array([0.0])
    d = gx.cf_distance(samples, u)
    assert d == pytest.approx(np.abs(1 - np.exp(gx._psi_zero(u))).max())


def test_stable_reference_cf(rng):
    x = stable_reference_samples(100_000, rng)
    grid = np.arange(-2.0, 2.01, 0.25)
    grid = grid[np.abs(grid) > 1e-12]
    assert gx.cf_distance(x, grid) < 0.02


def test_stable_reference_one_stability(rng):
    # X1 + X2 =d 2 X + 2 ln 2 under psi_0: check by two-sample KS
    a = stable_reference_samples(30_000, rng)
    b = stable_reference_samples(30_000, rng)
    c = stable_reference_samples(30_000, rng)
    lhs = (a + b - 2.0 * math.log(2.0)) / 2.0
    assert stats.ks_2samp(lhs, c).pvalue > 1e-3


def test_normalized_increments_approach_stable_cf():
    grid = np.arange(-2.0, 2.01, 0.25)
    grid = grid[np.abs(grid) > 1e-12]
    d = [gx.cf_distance(gx.normalized_increment_samples(n, 20_000,
                                                        make_rng(23)), grid)
         for n in (100, 10_000)]
    assert d[1] < d[0]


def test_normalized_increments_vs_cms_reference(rng):
    # sampler route vs exact CMS route, compared through the cf on a grid
    grid = np.array([-1.0, -0.5, 0.5, 1.0])
    inc = gx.normalized_increment_samples(50_000, 40_000, rng)
    ref = stable_reference_samples(40_000, rng)
    gap = np.abs(gx.empirical_cf(inc, grid) - gx.empirical_cf(ref, grid))
    assert gap.max() < 0.05


# ---------------------------------------------------------------------------
# exact law of sums of centered reciprocal sums

LEVELS = np.arange(0.1, 0.91, 0.1)


@pytest.mark.parametrize("v", [0.6, 1.0, 5.0, 20.0])
def test_recip_cf_matches_fourier_quadrature(v):
    # E e^{iv/E} = int_0^inf e^{-1/y} y^-2 e^{ivy} dy (y = 1/E), by QAWF
    f = lambda y: math.exp(-1.0 / y) / (y * y) if y > 0.0 else 0.0
    re, _ = integrate.quad(f, 0.0, np.inf, weight="cos", wvar=v)
    im, _ = integrate.quad(f, 0.0, np.inf, weight="sin", wvar=v)
    got = np.exp(gx._log_recip_cf(np.array([v])))[0]
    assert abs(got - complex(re, im)) < 1e-9


def test_recip_cf_series_meets_kve():
    # the small-argument series and the kve route agree where they meet
    v = np.linspace(0.2, gx._SERIES_MAX, 7)
    series = gx._log_recip_cf(v)
    z = 2.0 * np.sqrt(-1j * v)
    kve_route = np.log(z) + np.log(special.kve(1, z)) - z
    np.testing.assert_allclose(series, kve_route,
                               rtol=0, atol=1e-14)
    assert gx._log_recip_cf(np.array([0.0]))[0] == 0.0


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 12, 2 ** 53])
def test_s_hat_cf_cancellation_at_large_n(n):
    # N ln g(u/N) - iu b_N/N cancels two terms of size u ln N; against the
    # expansion to second order in w = -iu/N (the ln N terms cancelled by
    # hand, the third order below 1e-11 here) it must stay within 1e-9
    u = np.array([0.01, 0.1, 1.0, 10.0, 30.0])
    w = -1j * u / n
    lw = np.log(w)
    g = np.euler_gamma
    want = (-0.5 * math.pi * u - 1j * u * np.log(u) + 1j * u * (1.0 - g)
            - 1j * u / n
            - (u * u / n) * (0.5 * (lw - 2.5 + 2.0 * g)
                             - 0.5 * (lw - 1.0 + 2.0 * g) ** 2))
    got = gx._log_s_hat_cf(n, gx.b_of_N(n), u)
    assert np.abs(got - want).max() < 1e-9


def test_s_hat_sum_quantiles_closed_form_at_n1():
    # M = 1, one term: Z = 1/E - E1(1), P(1/E <= y) = e^{-1/y}
    want = -1.0 / np.log(LEVELS) - special.exp1(1.0)
    got = gx.s_hat_sum_quantiles(1, 1, LEVELS)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def test_s_hat_sum_quantiles_vs_monte_carlo():
    # M = 10^4, two terms (t = 3): 2 * 10^5 draws of the sum through
    # s_hat_samples; the empirical CDF at each exact quantile lies within
    # 4 binomial standard errors of its level
    draws = 200_000
    q = gx.s_hat_sum_quantiles(10 ** 4, 2, LEVELS)
    z = gx.s_hat_samples(10 ** 4, 2 * draws, make_rng(211)).reshape(
        draws, 2).sum(axis=1)
    cdf = (z[:, None] <= q).mean(axis=0)
    se = np.sqrt(LEVELS * (1.0 - LEVELS) / draws)
    assert np.all(np.abs(cdf - LEVELS) < 4.0 * se), (cdf - LEVELS) / se


@pytest.mark.parametrize("n, terms", [(1, 1), (10 ** 4, 2), (200_000, 2),
                                      (3, 7)])
def test_s_hat_sum_quantiles_stable_under_doubled_nodes(n, terms,
                                                        monkeypatch):
    coarse = gx.s_hat_sum_quantiles(n, terms, LEVELS)
    monkeypatch.setattr(gx, "_GL_ORDER", 2 * gx._GL_ORDER)
    fine = gx.s_hat_sum_quantiles(n, terms, LEVELS)
    assert np.abs(coarse - fine).max() < 1e-9
    assert np.all(np.diff(coarse) > 0)


def test_s_hat_sum_quantiles_validation():
    for args in ((0, 1), (10, 0)):
        with pytest.raises(ValueError):
            gx.s_hat_sum_quantiles(*args, LEVELS)
    for bad in ([0.0, 0.5], [0.5, 1.0]):
        with pytest.raises(ValueError, match="levels"):
            gx.s_hat_sum_quantiles(10, 1, bad)


# ---------------------------------------------------------------------------
# jackknife error of the variance


def test_jackknife_matches_moment_formula():
    x = make_rng(29).normal(size=4000)
    se = gx._jackknife_se_of_variance(x)
    n = x.size
    s2 = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    want = math.sqrt((m4 - s2 ** 2 * (n - 3) / (n - 1)) / n)
    assert se == pytest.approx(want, rel=0.05)


# ---------------------------------------------------------------------------
# sped-up front paths


def test_speeded_front_samples_shape(rng):
    tau = [0.0, 0.5, 1.0, 2.0]
    paths = speeded_front_samples(50, 40, tau, 30, rng)
    assert paths.shape == (30, 4)
    np.testing.assert_array_equal(paths[:, 0], 0.0)


def test_speeded_front_increments_uncorrelated():
    tau = [0.0, 1.0, 2.0]
    paths = speeded_front_samples(100, 50, tau, 500, make_rng(31))
    inc = np.diff(paths, axis=1)
    # heavy tails: correlate ranks, not raw values
    r = stats.spearmanr(inc[:, 0], inc[:, 1]).statistic
    assert abs(r) < 3.0 / math.sqrt(500)


def test_speeded_front_validation(rng):
    with pytest.raises(ValueError):
        speeded_front_samples(10, 5, [-0.5, 1.0], 10, rng)
    with pytest.raises(ValueError):
        speeded_front_samples(10, 0, [0.0, 1.0], 10, rng)
