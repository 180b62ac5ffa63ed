"""Acceptance suite: one test per headline guarantee, stated tolerances.

Each test prints the measured numbers beside the bound it must satisfy, so a
red run shows how far off it landed. The N = 10^4 Monte Carlo run is shared
by the speed and variance checks through a module fixture.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from frontlab import engine, gumbel_exact as gx, profile, zchain
from frontlab.engine import initial_state, lse_front
from frontlab.noise import GumbelLaw, LatticeLaw, SandwichedGumbelLaw

from conftest import make_rng
from gumbel_oracles import speeded_front_samples
from wave_oracles import reaction_term, traveling_wave_residual

THREE_ATOM = LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.3), (-3, 0.2)))


def two_point(q):
    return LatticeLaw(top=0, atoms=((0, 1.0 - q), (-1, q)))


@pytest.fixture(scope="module")
def big_mc():
    # 10^6 increments at N = 10^4; feeds both the speed and variance checks
    return gx.v_sigma_mc(10_000, 10 ** 6, make_rng(1729))


def test_c01_increments_match_fresh_upsilon_draws():
    n, t = 64, 2000
    bound = 3.0 / math.sqrt(t)
    for seed in (11, 13, 17):
        rng = make_rng(seed)
        traj = engine.run_trajectory(GumbelLaw(), n, t, rng,
                                     front=lse_front(1.0))
        diffs = np.diff(traj[:, 1])
        fresh = gx.upsilon_samples(n, t, rng)
        p = stats.ks_2samp(diffs, fresh).pvalue
        lag1 = float(np.corrcoef(diffs[:-1], diffs[1:])[0, 1])
        print(f"[c01] seed {seed}: ks_p={p:.4f} (>0.001) "
              f"lag1={lag1:+.4f} (|.|<={bound:.4f})")
        assert p > 0.001
        assert abs(lag1) <= bound


def test_c02_speed_expansion_at_n_1e4(big_mc):
    want = gx.expansion_v(10_000)
    err = abs(big_mc.v - want)
    print(f"[c02] v_mc={big_mc.v:.6f} expansion={want:.6f} "
          f"|diff|={err:.4f} (<=0.05)")
    assert err <= 0.05


def test_c03_variance_expansion_at_n_1e4(big_mc):
    ratio = big_mc.sigma2 * 3.0 * math.log(10_000) / math.pi ** 2
    print(f"[c03] sigma2_mc={big_mc.sigma2:.6f} ratio={ratio:.4f} "
          f"(|ratio-1|<=0.2)")
    assert abs(ratio - 1.0) <= 0.2


def test_c04_centering_sequence_routes_agree():
    for n in (100, 1000, 10_000):
        gap = abs(gx.b_of_N(n) / n - gx.b_over_n_asymptotic(n))
        # independent route: truncated mean of 1/E, integrated in x
        trunc, err = quad(lambda x: math.exp(-1.0 / x) / x, 0.0, n, limit=200)
        trunc *= n
        rel = abs(trunc - gx.b_of_N(n)) / gx.b_of_N(n)
        print(f"[c04] N={n}: |b/N - asym|={gap:.3e} (<={10 / n ** 2:.0e}) "
              f"routes rel diff={rel:.2e} (<=1e-8, quad err {err:.1e})")
        assert gap <= 10.0 / n ** 2
        assert rel <= 1e-8


def test_c05_stable_limit_trend_and_independence():
    u_grid = np.concatenate([np.arange(-2.0, 0.0, 0.25),
                             np.arange(0.25, 2.25, 0.25)])
    rng = make_rng(5)
    dists = []
    for n in (100, 1000, 10_000, 100_000):
        samples = gx.normalized_increment_samples(n, 20_000, rng)
        dists.append(gx.cf_distance(samples, u_grid))
    print(f"[c05] cf distances {[f'{d:.4f}' for d in dists]} "
          f"(decreasing, last<=0.2)")
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 0.2

    # disjoint-interval increments of the sped-up front: rank correlation
    paths = speeded_front_samples(1000, 64, [0.0, 0.5, 1.0], 500, rng)
    inc_a = paths[:, 1] - paths[:, 0]
    inc_b = paths[:, 2] - paths[:, 1]
    r = stats.spearmanr(inc_a, inc_b).statistic
    bound = 3.0 / math.sqrt(len(inc_a) - 1)
    print(f"[c05] increment rank corr {r:+.4f} (|.|<={bound:.4f})")
    assert abs(r) <= bound


def test_c06_bernoulli_exact_vs_simulation_grid():
    rng = make_rng(6)
    steps = 100_000
    worst = 0.0
    degenerate = []
    for n, q in itertools.product((2, 3, 4, 5), (0.3, 0.5, 0.7)):
        v = zchain.bernoulli_speed(n, q)
        sim = zchain.bernoulli_chain_sim(n, q, steps, rng)
        if sim.std_err > 0.0:
            worst = max(worst, abs(v - sim.value) / sim.std_err)
            assert abs(v - sim.value) <= 3.0 * sim.std_err, (n, q)
        else:
            # gap ~ q^{n^2} 2^n: no slow step shows up in 10^5 draws, so the
            # batch SE degenerates to 0; the matching 3-sigma statement is
            # the exact binomial zero-count bound on the slow-step rate
            degenerate.append((n, q))
            assert sim.value == 1.0, (n, q)
            assert 1.0 - v <= math.log(1.0 / 0.0027) / steps, (n, q)
        kac = zchain._kac_residual(*zchain._gap_routes(n, q, False))
        assert kac <= 1e-10, (n, q)
    print(f"[c06] 12 cells: worst |v_exact - v_sim| = {worst:.2f} SE (<=3); "
          f"zero-event cells {degenerate}")


def test_c07_bottom_hitting_correction_ratio():
    ratios = []
    for n in (4, 5, 6):
        rep = zchain.hitting_analysis(n, 0.6)
        ratios.append(rep.two_step_ratio_to_gap)
        assert abs(rep.prob_bottom_at_1 - rep.closed_form_at_1) <= 1e-10
        assert abs(rep.prob_bottom_at_2 - rep.closed_form_at_2) <= 1e-10
        print(f"[c07] N={n}: two-step ratio={rep.two_step_ratio_to_gap:.4f} "
              f"full ratio={rep.ratio_to_gap_asymptotic:.4f}")
    assert all(0.5 <= r <= 1.5 for r in ratios)
    gaps = [abs(r - 1.0) for r in ratios]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_c08_lattice_chain_reduction():
    # two-point chain reproduces the leader-count chain rows bit for bit
    for n, q in ((2, 0.5), (3, 0.35), (4, 0.6)):
        law = two_point(q)
        chain = zchain._lattice_chain(law, n, max_states=500)
        index = {s: i for i, s in enumerate(chain.states)}
        lp = np.zeros((len(index), len(index)))
        lp[chain.source, chain.target] = chain.mass
        p = zchain.bernoulli_matrix(n, q)
        for j in range(1, n + 1):
            brow = p[j]
            lrow = lp[index[(n - j, j)]]
            for k in range(1, n):
                assert lrow[index[(n - k, k)]] == brow[k], (n, q, j)
            assert lrow[index[(0, n)]] == brow[n] + brow[0], (n, q, j)
    print("[c08] two-point rows identical to leader-count rows")

    for n, seed in ((2, 47), (3, 53)):
        rep = zchain.lattice_speed(THREE_ATOM, n)
        est = engine.estimate_speed(THREE_ATOM, n, t_run=30_000,
                                    rng=make_rng(seed))
        pull = abs(est.value - rep.value) / est.std_err
        print(f"[c08] three-atom N={n}: exact {rep.value:.5f} "
              f"sim {est.value:.5f} ({pull:.2f} SE, <=3)")
        assert pull <= 3.0

    rng = make_rng(8)
    worst = 0.0
    for _ in range(1000):
        width = int(rng.integers(4, 9))  # span + 1 = 4 slots or more
        counts = rng.integers(0, 5, size=width)
        counts[-1] = max(counts[-1], 1)  # leader slot must be occupied
        _, s = zchain.lattice_s(counts, THREE_ATOM)
        worst = max(worst, abs(s.sum() - 1.0))
    print(f"[c08] telescoping worst |sum - 1| = {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_c09_sandwich_bounds_bracket_simulated_speed():
    law = two_point(0.5)  # jumps 0 / -1 with p = 0.5, N = 3
    bounds = zchain.sandwich_bounds(law, 3)
    est = engine.estimate_speed(law, 3, t_run=100_000, rng=make_rng(59))
    print(f"[c09] lower={bounds.lower:.5f} sim={est.value:.5f} "
          f"(se {est.std_err:.5f}) upper={bounds.upper:.5f}")
    assert bounds.lower <= bounds.upper
    assert est.value >= bounds.lower - 3.0 * est.std_err
    assert est.value <= bounds.upper + 3.0 * est.std_err


def test_c10_profile_converges_to_wave():
    rng = make_rng(10)
    state = initial_state(100_000)
    for _ in range(3):
        state = engine.step_gumbel_exact(state, GumbelLaw(), rng)
    ks = profile.centered_ks(state)
    print(f"[c10] gumbel N=1e5 t=3: ks={ks:.5f} (<=0.0061)")
    assert ks <= 0.0061

    law = SandwichedGumbelLaw(-0.3, 0.3)
    kss = []
    for n in (1000, 10_000, 100_000):
        state = initial_state(n)
        for _ in range(3):
            state = engine.step_conditional(state, law, rng)
        kss.append(profile.centered_ks(state))
    print(f"[c10] sandwiched ks ladder {[f'{k:.4f}' for k in kss]} "
          f"(decreasing, last<=0.05)")
    assert all(a > b for a, b in zip(kss, kss[1:]))
    assert kss[-1] <= 0.05


def test_c11_wave_solves_the_profile_equation():
    grid = np.linspace(-10.0, 10.0, 1001)
    worst = 0.0
    for rate in (0.5, 1.0, 2.0):
        for speed in (0.5, 1.0, 2.0):
            res = np.max(np.abs(traveling_wave_residual(rate, speed, grid)))
            worst = max(worst, res)
            ends = reaction_term(np.array([0.0, 1.0]), rate, speed)
            assert ends[0] == 0.0 and ends[1] == 0.0
            if speed >= rate:
                interior = reaction_term(
                    np.linspace(1e-9, 1 - 1e-9, 2001), rate, speed)
                assert np.all(interior > 0.0), (rate, speed)
    print(f"[c11] worst residual {worst:.2e} (<=1e-8)")
    assert worst <= 1e-8


def test_c12_renewal_probability_and_regenerative_speed():
    rng = make_rng(12)
    law = GumbelLaw()
    pos = initial_state(2).positions
    hits = 0
    steps = 100_000
    for _ in range(steps):
        noise = law.sample(rng, (2, 2))
        hits += engine.is_renewal(noise, int(np.argmax(pos)))
        pos = engine.step_with_noise(pos, noise)
    p_hat = hits / steps
    se = math.sqrt(p_hat * (1.0 - p_hat) / steps)
    print(f"[c12] renewal prob {p_hat:.5f} vs 0.25 "
          f"({abs(p_hat - 0.25) / se:.2f} SE, <=3)")
    assert abs(p_hat - 0.25) <= 3.0 * se

    ren = engine.renewal_speed(law, 2, n_renewals=3000, rng=make_rng(121))
    bat = engine.estimate_speed(law, 2, t_run=50_000, rng=make_rng(122))
    combined = math.hypot(ren.std_err, bat.std_err)
    pull = abs(ren.value - bat.value) / combined
    print(f"[c12] regenerative {ren.value:.5f} batch {bat.value:.5f} "
          f"({pull:.2f} combined SE, <=3)")
    assert pull <= 3.0
