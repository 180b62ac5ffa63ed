import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from frontlab import engine, gumbel_exact, noise
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

from conftest import ZeroUniforms, make_rng

# ---------------------------------------------------------------------------
# oracles: independent routes to the same distributions


def _sandwich_cdf_quad(x, lo, hi):
    """Uniform-shift sandwiched CDF by direct quadrature (oracle)."""
    val, _ = integrate.quad(lambda w: math.exp(-math.exp(-(x - w))), lo, hi,
                            epsabs=1e-14, epsrel=1e-12)
    return val / (hi - lo)


def gumbel_quantile(law, u):
    """Inverse CDF loc - ln(ln(1/u)) / rate of a GumbelLaw (oracle)."""
    return law.loc - np.log(np.log(1.0 / np.asarray(u, dtype=float))) / law.rate


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
    x = gumbel_quantile(law, u)
    np.testing.assert_allclose(np.exp(law.log_cdf(x)), u, rtol=1e-12)


def test_gumbel_quantile_median():
    # median = loc - ln ln 2 / rate, by hand
    law = GumbelLaw(loc=-1.0, rate=2.0)
    median = -1.0 - math.log(math.log(2)) / 2
    assert gumbel_quantile(law, 0.5) == pytest.approx(median)
    assert law.log_cdf(median) == pytest.approx(-math.log(2))


def test_gumbel_sampler_matches_quantile_route(rng):
    # two transforms of uniforms: -ln(-ln(1 - u)) vs the inverse CDF
    law = GumbelLaw(loc=0.5, rate=1.5)
    a = law.sample(rng, 20_000)
    b = gumbel_quantile(law, rng.random(20_000))
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
    point = SandwichedGumbelLaw(0.0, 0.0)
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


@pytest.mark.parametrize("law", [BernoulliLaw(p=0.3), THREE_ATOM])
def test_integer_draws_are_the_float_draws(law):
    # an integer dtype takes the same uniforms and gives the same values;
    # a draw with no size is a float, the first of a block's
    rng, ref = make_rng(30), make_rng(30)
    ints = law.sample(rng, (50, 3, 3), dtype=np.int16)
    floats = law.sample(ref, (50, 3, 3))
    assert ints.dtype == np.int16 and floats.dtype == float
    np.testing.assert_array_equal(ints, floats)
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
    one = law.sample(make_rng(31))
    assert isinstance(one, float) and one == law.sample(make_rng(31), 4)[0]


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
    law = SandwichedGumbelLaw(0.2, 0.2)
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


# the E1 switch (series up to 1, continued fraction above) and both sides
E1_GRID = np.concatenate([np.geomspace(1e-300, 700.0, 20001),
                          [1.0 - 1e-12, 1.0, 1.0 + 1e-12]])


def test_exp1_matches_scipy():
    from scipy.special import exp1
    np.testing.assert_allclose(noise._exp1(E1_GRID), exp1(E1_GRID),
                               rtol=2e-15, atol=0.0)


def test_exp1_scalar_0d_and_array_agree():
    x = np.concatenate([E1_GRID[:-3:200], E1_GRID[-3:]])
    want = noise._exp1(x)
    for xi, wi in zip(x, want):
        for form in (float(xi), np.float64(xi), np.array(xi)):
            got = noise._exp1(form)
            assert np.ndim(got) == 0 and got == wi
    np.testing.assert_array_equal(noise._exp1(x.reshape(-1, 2)),
                                  want.reshape(-1, 2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exp1_is_silently_zero_past_the_float_range():
    x = np.array([746.0, 800.0, 1e5, 1e308, math.inf])
    np.testing.assert_array_equal(noise._exp1(x), 0.0)
    assert noise._exp1(746.0) == 0.0


def _exp1_log_cdf(law, x):
    """ln F = ln(E1(z_lo) - E1(z_hi)) - ln(hi - lo) through scipy's exp1,
    with E1(z_lo) and E1(z_hi) (oracle)."""
    from scipy.special import exp1
    e_lo, e_hi = exp1(np.exp(law.lo - x)), exp1(np.exp(law.hi - x))
    return np.log(e_lo - e_hi) - math.log(law.hi - law.lo), e_lo, e_hi


def _branch_edges(law, x):
    """z_lo and z_hi as log_cdf forms them, and its mid-branch mask."""
    z_lo = np.exp(np.minimum(law.lo - x, noise._EXP_CLAMP))
    z_hi = np.exp(np.minimum(law.hi - x, noise._EXP_CLAMP))
    return z_lo, z_hi, (z_hi >= 1e-6) & (z_lo <= noise._EXP1_ASYMPTOTIC)


SANDWICH_WIDTHS = [0.6, 2.0, 10.0, 30.0]


@pytest.mark.parametrize("width", SANDWICH_WIDTHS)
def test_sandwiched_mid_branch_on_dense_grid(width):
    law = SandwichedGumbelLaw(-width / 2, width / 2)
    # all three branches: z_lo up to e^8, z_hi down to e^-16
    x = np.linspace(law.lo - 8.0, law.hi + 16.0, 20001)
    got = law.log_cdf(x)
    assert np.all(np.diff(got) >= 0.0)
    mid = _branch_edges(law, x)[2]
    assert 0 < mid.sum() < x.size
    ref = _exp1_log_cdf(law, x[mid])[0]
    assert np.all(np.abs(got[mid] - ref)
                  <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_sandwiched_narrow_width_shares_the_cancellation():
    # just above _is_point, E1(z_lo) - E1(z_hi) cancels to ~1e-7 of
    # E1(z_lo) on both routes: the bound is that cancellation's round-off
    law = SandwichedGumbelLaw(-0.5e-7, 0.5e-7)
    assert not law._is_point()
    x = np.linspace(law.lo - 8.0, law.hi + 16.0, 20001)
    got = law.log_cdf(x)
    mid = _branch_edges(law, x)[2]
    ref, e_lo, e_hi = _exp1_log_cdf(law, x[mid])
    bound = 32.0 * np.finfo(float).eps * e_lo / (e_lo - e_hi)
    assert np.all(np.abs(got[mid] - ref) <= bound)


@pytest.mark.parametrize("width", SANDWICH_WIDTHS)
def test_sandwiched_log_cdf_continuous_across_branch_edges(width):
    law = SandwichedGumbelLaw(-width / 2, width / 2)

    def across(edge, side):
        # log_cdf at the two adjacent floats where the branch flips
        x = edge + np.arange(-64, 65) * abs(np.spacing(edge))
        i = np.flatnonzero(side(*_branch_edges(law, x)[:2]))[0]
        assert i > 0
        return law.log_cdf(x[i - 1:i + 1])

    # z_hi = 1e-6: the mid branch to the left, the tiny series to the right
    mid, tiny = across(law.hi - math.log(1e-6), lambda lo, hi: hi < 1e-6)
    assert abs(mid - tiny) <= 1e-13
    # z_lo = _EXP1_ASYMPTOTIC: the asymptotic tail to the left, mid to the
    # right; the tail's 3-term series is off by ~4e-10 absolute, out of
    # |ln F| ~ 506
    big, mid = across(law.lo - math.log(noise._EXP1_ASYMPTOTIC),
                      lambda lo, hi: lo <= noise._EXP1_ASYMPTOTIC)
    assert abs(big - mid) <= 1e-12 * abs(mid)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sandwiched_very_wide_law_is_finite():
    # z_lo = e^-800 and e^-805 underflow to 0; E1 there is -gamma - ln z_lo
    from scipy.special import exp1
    law = SandwichedGumbelLaw(-800.0, 0.0)
    got = law.log_cdf([0.0, 5.0])
    want = [math.log1p((-np.euler_gamma - exp1(1.0)) / 800.0),
            math.log1p((5.0 - np.euler_gamma - exp1(math.exp(-5.0)))
                       / 800.0)]
    assert got[0] == pytest.approx(-9.962e-4, rel=1e-4)
    # the mid branch's bound: ln F is good to 1e-13 absolute below |ln F| = 1
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("width", [800.0, 1e4])
def test_sandwiched_log_cdf_continuous_across_underflow_edge(width):
    # at lo - x = -690 the mid branch swaps E1(z_lo) for -gamma - (lo - x)
    law = SandwichedGumbelLaw(-width, 0.0)
    edge = law.lo + noise._EXP_CLAMP
    x = edge + np.arange(-64, 65) * abs(np.spacing(edge))
    assert _branch_edges(law, x)[2].all()
    # z_lo through E1 to the left, ln z_lo = lo - x to the right
    i = np.flatnonzero(law.lo - x < -noise._EXP_CLAMP)[0]
    assert i > 0
    near, far = law.log_cdf(x[i - 1:i + 1])
    assert abs(far - near) <= 1e-13 * abs(near)
    ref = math.log((noise._EXP_CLAMP - np.euler_gamma) / width)
    assert near == pytest.approx(ref, rel=1e-12)


def test_sandwiched_sample_matches_cdf(rng):
    law = SandwichedGumbelLaw(-1.0, 0.5)
    x = law.sample(rng, 20_000)
    gap = empirical_cdf_gap(x, lambda t: np.exp(law.log_cdf(t)))
    assert gap < dkw_band(20_000)


def test_sandwiched_block_draw_equals_row_draws():
    # uniforms per element: block length cannot change the stream
    for law in (SandwichedGumbelLaw(-1.0, 0.5),
                SandwichedGumbelLaw(-0.25, -0.25)):
        block = law.sample(np.random.default_rng(11), (3, 2, 2))
        rng = np.random.default_rng(11)
        rows = np.stack([law.sample(rng, (2, 2)) for _ in range(3)])
        np.testing.assert_array_equal(block, rows)


def test_sandwiched_validation():
    with pytest.raises(ValueError):
        SandwichedGumbelLaw(1.0, 0.0)
    with pytest.raises(ValueError):
        SandwichedGumbelLaw(0.0, math.inf)


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
    SandwichedGumbelLaw(0.1, 0.1),
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


@pytest.mark.parametrize("spec, key", [
    ('{"type": "gumbel", "lamda": 2}', "lamda"),
    ('{"type": "bernoulli", "p": 0.5, "q": 0.5}', "q"),
    ('{"type": "lattice", "k": 0, "probs": [[0, 1.0]], "top": 0}', "top"),
    ('{"type": "sandwiched_gumbel", "c": 0, "d": 1, "e": 2}', "e"),
    # the point shift is the law SandwichedGumbelLaw(m, m)
    ('{"type": "sandwiched_gumbel", "c": 0, "d": 1, "shift_law": "point"}',
     "shift_law"),
])
def test_json_refuses_unknown_fields(spec, key):
    # a misspelled or extra field is refused: read as absent, a misspelled
    # optional field would leave its default in its place
    with pytest.raises(ValueError, match=f"unknown field.*'{key}'"):
        from_json(spec)


# ---------------------------------------------------------------------------
# the one unit rule: the reciprocal sums, the Gumbel replicas and the exact
# Gumbel kernel's blocks all hold max(1, 2^16 // row) rows of a row length


def recorded_units(monkeypatch, module):
    """Rows of each unit ``module``'s draw pipeline runs, in order."""
    sizes = []

    def draw_units(rng, count, shape, finish, scratch=0):
        def record(i, x, tmp):
            sizes.append(x.shape[0])
            finish(i, x, tmp)

        noise._draw_units(rng, count, shape, record, scratch)

    monkeypatch.setattr(module, "_draw_units", draw_units)
    return sizes


@pytest.mark.parametrize("unit", [None, 16], ids=["default", "patched"])
@pytest.mark.parametrize("row", [1, 7, 1 << 16, (1 << 16) + 1])
def test_unit_rule_is_shared_by_every_route(row, unit, monkeypatch):
    # the patched case moves every route with the one constant
    if unit is not None:
        monkeypatch.setattr(noise, "_UNIT_ELEMENTS", unit)
    monkeypatch.setattr(noise, "_cpus", lambda: 1)  # units in order
    rows = max(1, (unit or 1 << 16) // row)
    count = 2 * rows + 1
    want = [rows, rows, 1]           # two whole units, then a short one

    recip = recorded_units(monkeypatch, gumbel_exact)
    gumbel_exact._recip_sums(row, count, make_rng(1))
    # a replica of one step is one row of N = row floats
    replicas = recorded_units(monkeypatch, engine)
    engine._replica_runs(GumbelLaw(), row, 1, count, make_rng(2),
                         lambda i, last, fronts: None)
    blocks = [b.shape[0] for b in engine._position_blocks(
        GumbelLaw(), count, make_rng(3), np.zeros(row))]
    assert recip == replicas == blocks == want


class _Uniforms:
    """Generator stub that hands out the given uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None):
        u, self.u = np.split(self.u, [math.prod(np.atleast_1d(size))])
        return u.reshape(size)


@pytest.mark.parametrize("atoms", [
    ((0, 1.0),),
    ((0, 0.4), (-1, 0.0), (-3, 0.6)),           # a zero-probability atom
    ((2, 0.5), (0, 0.5), (-4, 0.0)),            # ... at the bottom
    tuple((v, 0.125) for v in range(-7, 1)),    # 7 sums, the last counted
    tuple((v, 0.1) for v in range(-8, 2)),
    tuple((v, 1 / 256) for v in range(-255, 1)),  # counts up to 255: uint8
    tuple((v, 1 / 257) for v in range(-256, 1)),  # up to 256: a wider count
])
def test_lattice_column_sample_is_searchsorted(atoms):
    # LatticeLaw.sample counts the cumulative sums below u:
    # searchsorted(cum, u) (side left) over the positive atoms is the
    # reference, and the generator is read the same
    law = LatticeLaw(top=max(v for v, p in atoms if p > 0), atoms=atoms)
    rng, ref = make_rng(29), make_rng(29)
    for size in ((300, 3, 3), 17, None):
        got = law.sample(rng, size)
        want = law.values[np.searchsorted(law._cum, ref.random(size))]
        assert type(got) is type(want.astype(float))
        np.testing.assert_array_equal(got, want.astype(float))
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
    # uniforms at and next to each cumulative sum, and 0
    cum = law._cum[:-1]
    u = np.concatenate(([0.0], cum, np.nextafter(cum, 0.0),
                        np.nextafter(cum, 1.0), [np.nextafter(1.0, 0.0)]))
    np.testing.assert_array_equal(
        law.sample(_Uniforms(u), u.size),
        law.values[np.searchsorted(law._cum, u)].astype(float))


def test_lattice_zero_probability_bottom_is_never_drawn():
    # a uniform of exactly 0.0 once drew the zero-probability bottom atom;
    # the atoms and the JSON keep it, the support and the bottom do not
    law = LatticeLaw(top=2, atoms=((2, 0.5), (0, 0.5), (-4, 0.0)))
    np.testing.assert_array_equal(law.sample(ZeroUniforms(), 3), [0.0] * 3)
    assert law.bottom == 0 and list(law.values) == [0, 2]
    assert law.atoms == ((-4, 0.0), (0, 0.5), (2, 0.5))
    assert [-4, 0.0] in json.loads(to_json(law))["probs"]
