import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from frontlab.noise import (
    BernoulliLaw,
    GumbelLaw,
    LatticeLaw,
    SandwichedGumbelLaw,
    check_sandwich,
    from_json,
    shift_bounds_for_delta,
    to_json,
)

from conftest import ZeroUniforms

# ---------------------------------------------------------------------------
# oracles: independent routes to the same distributions


def _sandwich_cdf_quad(x, lo, hi):
    """Uniform-shift sandwiched CDF by direct quadrature (oracle)."""
    val, _ = integrate.quad(lambda w: math.exp(-math.exp(-(x - w))), lo, hi,
                            epsabs=1e-14, epsrel=1e-12)
    return val / (hi - lo)


def dkw_band(n, alpha=1e-3):
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def empirical_cdf_gap(samples, cdf):
    xs = np.sort(samples)
    f = cdf(xs)
    steps = np.arange(len(xs) + 1) / len(xs)
    return max(np.max(steps[1:] - f), np.max(f - steps[:-1]))


# ---------------------------------------------------------------------------
# Gumbel


def test_gumbel_quantile_inverts_cdf():
    law = GumbelLaw(loc=2.0, rate=0.7)
    u = np.linspace(0.01, 0.99, 37)
    x = law.quantile(u)
    np.testing.assert_allclose(np.exp(law.log_cdf(x)), u, rtol=1e-12)


def test_gumbel_quantile_median():
    # median = loc - ln ln 2 / rate, by hand
    law = GumbelLaw(loc=-1.0, rate=2.0)
    assert law.quantile(0.5) == pytest.approx(-1.0 - math.log(math.log(2)) / 2)


def test_gumbel_sampler_matches_quantile_route(rng):
    # two transforms of uniforms: -ln(-ln(1 - u)) vs the inverse CDF
    law = GumbelLaw(loc=0.5, rate=1.5)
    a = law.sample(rng, 20_000)
    b = law.quantile(rng.random(20_000))
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_gumbel_sampler_matches_numpy_gumbel(rng):
    # independent route: numpy's own Gumbel sampler, scale = 1/rate
    law = GumbelLaw(loc=0.5, rate=1.5)
    a = law.sample(rng, 20_000)
    b = rng.gumbel(0.5, 1.0 / 1.5, 20_000)
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_gumbel_block_draw_equals_row_and_scalar_draws():
    # one uniform per element: block length cannot change the stream
    law, b, n = GumbelLaw(loc=0.3, rate=1.5), 4, 5
    block = law.sample(np.random.default_rng(11), (b, n, n))
    rng = np.random.default_rng(11)
    rows = np.stack([law.sample(rng, (n, n)) for _ in range(b)])
    rng = np.random.default_rng(11)
    scalars = np.array([law.sample(rng) for _ in range(b * n * n)])
    np.testing.assert_array_equal(block, rows)
    np.testing.assert_array_equal(block.ravel(), scalars)


def test_gumbel_scalar_sample_is_python_float(rng):
    # as rng.gumbel() with no size
    assert type(GumbelLaw(loc=0.3, rate=1.5).sample(rng)) is float


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gumbel_zero_uniform_is_finite():
    # u = 0 is read as the middle of its cell: E = 2^-54, -ln E = 54 ln 2
    want = 54.0 * math.log(2.0)
    assert GumbelLaw().sample(ZeroUniforms()) == want
    np.testing.assert_array_equal(GumbelLaw().sample(ZeroUniforms(), 3),
                                  np.full(3, want))
    point = SandwichedGumbelLaw(0.0, 0.0, shift_law="point")
    assert point.sample(ZeroUniforms()) == want


def test_gumbel_log_cdf_matches_scipy():
    law = GumbelLaw(loc=0.3, rate=2.0)
    x = np.linspace(-5, 8, 101)
    ref = stats.gumbel_r.logcdf(x, loc=0.3, scale=0.5)
    np.testing.assert_allclose(law.log_cdf(x), ref, rtol=1e-12, atol=1e-300)


def test_gumbel_max_stability(rng):
    # max of 8 iid G(0, rate) is G(ln(8)/rate, rate)
    rate = 1.3
    m = GumbelLaw(rate=rate).sample(rng, (20_000, 8)).max(axis=1)
    gap = empirical_cdf_gap(
        m, lambda x: stats.gumbel_r.cdf(x, loc=math.log(8) / rate,
                                        scale=1 / rate))
    assert gap < dkw_band(20_000)


def test_gumbel_epsilon_is_zero():
    law = GumbelLaw()  # the comparison index vanishes identically
    np.testing.assert_allclose(law.epsilon(np.linspace(-10, 20, 50)),
                               0.0, atol=1e-12)


def test_gumbel_validation():
    with pytest.raises(ValueError):
        GumbelLaw(rate=0.0)
    with pytest.raises(ValueError):
        GumbelLaw(rate=-1.0)
    with pytest.raises(ValueError):
        GumbelLaw(loc=math.inf)


# ---------------------------------------------------------------------------
# Bernoulli


def test_bernoulli_sample_frequency(rng):
    law = BernoulliLaw(p=0.3)
    x = law.sample(rng, 40_000)
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert abs(x.mean() - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 40_000)


def test_bernoulli_log_cdf_steps():
    law = BernoulliLaw(p=0.25)
    out = law.log_cdf(np.array([-0.5, 0.0, 0.7, 1.0, 3.0]))
    assert out[0] == -math.inf
    assert out[1] == pytest.approx(math.log(0.75))
    assert out[2] == pytest.approx(math.log(0.75))
    assert out[3] == 0.0 and out[4] == 0.0


def test_bernoulli_epsilon_diverges_below_support():
    assert BernoulliLaw(0.5).epsilon(-1.0) == -math.inf


def test_bernoulli_validation():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            BernoulliLaw(p=p)


# ---------------------------------------------------------------------------
# lattice


THREE_ATOM = LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.3), (-3, 0.2)))


def test_lattice_sorting_and_props():
    law = LatticeLaw(top=2, atoms=((2, 0.1), (-1, 0.6), (0, 0.3)))
    assert list(law.values) == [-1, 0, 2]
    assert law.bottom == -1 and law.top == 2
    assert law.prob_of(0) == pytest.approx(0.3)
    assert law.prob_of(1) == 0.0


def test_lattice_cdf_int():
    got = THREE_ATOM.cdf_int([-4, -3, -2, -1, 0, 5])
    np.testing.assert_allclose(got, [0.0, 0.2, 0.2, 0.5, 1.0, 1.0])


def test_lattice_log_cdf_floors():
    # continuous arguments floor onto the integer grid
    law = THREE_ATOM
    np.testing.assert_allclose(law.log_cdf([-0.3, -1.0, -2.9]),
                               np.log([0.5, 0.5, 0.2]))
    assert law.log_cdf(-4.2) == -math.inf


def test_lattice_sample_frequencies(rng):
    x = THREE_ATOM.sample(rng, 60_000)
    for v, p in THREE_ATOM.atoms:
        f = np.mean(x == v)
        assert abs(f - p) < 4 * math.sqrt(p * (1 - p) / 60_000)


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeLaw(top=0, atoms=((0, 0.5), (0, 0.5)))
    with pytest.raises(ValueError):
        LatticeLaw(top=0, atoms=((0, 1.2), (-1, -0.2)))
    with pytest.raises(ValueError):
        LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.3)))
    with pytest.raises(ValueError):
        LatticeLaw(top=1, atoms=((0, 0.5), (-1, 0.5)))


# ---------------------------------------------------------------------------
# sandwiched Gumbel


def test_sandwiched_point_equals_shifted_gumbel():
    law = SandwichedGumbelLaw(0.2, 0.2, shift_law="point")
    x = np.linspace(-4, 10, 57)
    np.testing.assert_allclose(law.log_cdf(x),
                               GumbelLaw(loc=0.2).log_cdf(x), rtol=1e-12)


def test_sandwiched_uniform_cdf_matches_quadrature():
    # mid branch against the direct integral oracle
    law = SandwichedGumbelLaw(-0.3, 0.3)
    for x in (-2.0, -0.5, 0.0, 1.0, 4.0, 10.0):
        ref = _sandwich_cdf_quad(x, -0.3, 0.3)
        assert math.exp(law.log_cdf(x)) == pytest.approx(ref, rel=1e-9)


def test_sandwiched_tiny_branch_consistent():
    # far right the series branch takes over; exp1 still works there
    from scipy.special import exp1
    law = SandwichedGumbelLaw(-0.3, 0.3)
    for x in (14.0, 15.0, 20.0, 30.0):
        z_lo, z_hi = math.exp(-0.3 - x), math.exp(0.3 - x)
        ref = math.log(exp1(z_lo) - exp1(z_hi)) - math.log(0.6)
        assert law.log_cdf(x) == pytest.approx(ref, rel=1e-8)


def test_sandwiched_big_branch_consistent():
    # far left asymptotic branch vs the direct exp1 difference
    from scipy.special import exp1
    law = SandwichedGumbelLaw(-0.3, 0.3)
    for x in (-6.6, -6.8, -6.55):
        z_lo, z_hi = math.exp(-0.3 - x), math.exp(0.3 - x)
        assert z_lo > 500.0
        ref = math.log(exp1(z_lo) - exp1(z_hi)) - math.log(0.6)
        assert law.log_cdf(x) == pytest.approx(ref, rel=1e-7)


def test_sandwiched_log_cdf_monotone():
    law = SandwichedGumbelLaw(-0.3, 0.3)
    x = np.linspace(-12, 35, 2000)
    assert np.all(np.diff(law.log_cdf(x)) >= 0.0)


def test_sandwiched_sample_matches_cdf(rng):
    law = SandwichedGumbelLaw(-1.0, 0.5)
    x = law.sample(rng, 20_000)
    gap = empirical_cdf_gap(x, lambda t: np.exp(law.log_cdf(t)))
    assert gap < dkw_band(20_000)


def test_sandwiched_block_draw_equals_row_draws():
    # uniforms per element: block length cannot change the stream
    for shift_law in ("uniform", "point"):
        law = SandwichedGumbelLaw(-1.0, 0.5, shift_law=shift_law)
        block = law.sample(np.random.default_rng(11), (3, 2, 2))
        rng = np.random.default_rng(11)
        rows = np.stack([law.sample(rng, (2, 2)) for _ in range(3)])
        np.testing.assert_array_equal(block, rows)


def test_sandwiched_validation():
    with pytest.raises(ValueError):
        SandwichedGumbelLaw(1.0, 0.0)
    with pytest.raises(ValueError):
        SandwichedGumbelLaw(0.0, math.inf)
    with pytest.raises(ValueError):
        SandwichedGumbelLaw(0.0, 1.0, shift_law="triangular")


# ---------------------------------------------------------------------------
# sandwich diagnostics


def test_check_sandwich_gumbel_is_ideal():
    rep = check_sandwich(GumbelLaw())
    assert rep.satisfied
    assert rep.delta_max == pytest.approx(1.0, abs=1e-9)


def test_check_sandwich_sandwiched_law_passes():
    rep = check_sandwich(SandwichedGumbelLaw(-0.3, 0.3))
    assert rep.satisfied and 0.0 < rep.delta_max < 1.0
    lo, hi = rep.shift_bounds()
    assert lo < 0.0 < hi


def test_check_sandwich_bernoulli_fails():
    rep = check_sandwich(BernoulliLaw(0.5))
    assert not rep.satisfied
    assert math.isfinite(rep.first_exit)


def test_shift_bounds_for_delta():
    lo, hi = shift_bounds_for_delta(0.25)
    assert lo == pytest.approx(math.log(0.25))
    assert hi == pytest.approx(math.log(5.0))
    with pytest.raises(ValueError):
        shift_bounds_for_delta(0.0)


# ---------------------------------------------------------------------------
# JSON round trips


@pytest.mark.parametrize("law", [
    GumbelLaw(loc=0.5, rate=2.0),
    BernoulliLaw(p=0.3),
    THREE_ATOM,
    SandwichedGumbelLaw(-0.3, 0.3),
    SandwichedGumbelLaw(0.1, 0.1, shift_law="point"),
])
def test_json_roundtrip(law):
    assert from_json(to_json(law)) == law


def test_json_accepts_dict():
    assert from_json({"type": "bernoulli", "p": 0.5}) == BernoulliLaw(0.5)


def test_json_gumbel_field_names():
    d = json.loads(to_json(GumbelLaw(loc=1.0, rate=3.0)))
    assert d == {"type": "gumbel", "a": 1.0, "lambda": 3.0}


def test_json_errors():
    with pytest.raises(ValueError):
        from_json('{"p": 0.5}')
    with pytest.raises(ValueError):
        from_json('{"type": "triangular"}')
    with pytest.raises(ValueError):
        from_json('{"type": "bernoulli"}')
