import bisect
import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from frontlab import engine, zchain
from frontlab.noise import BernoulliLaw, LatticeLaw
from frontlab.zchain import (
    bernoulli_chain_sim,
    bernoulli_matrix,
    bernoulli_speed,
    bernoulli_stationary,
    expected_return_time,
    hitting_analysis,
    lattice_chain_sim,
    lattice_s,
    lattice_speed,
    lattice_step,
    parse_q,
    sandwich_bounds,
)

import chain_oracles
from conftest import CyclingUniforms, make_rng

THREE_ATOM = LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.3), (-3, 0.2)))
FIVE_ATOM = LatticeLaw(top=0, atoms=((0, 0.4), (-1, 0.25), (-2, 0.15),
                                     (-3, 0.12), (-4, 0.08)))
DEEP = LatticeLaw(top=0, atoms=((0, 0.5), (-1, 0.4), (-12, 0.1)))


def two_point(q: float) -> LatticeLaw:
    return LatticeLaw(top=0, atoms=((0, 1.0 - q), (-1, q)))


def kac_residual(n, q, exact=False):
    """|nu(0) E_0[T_0] - 1|, the check bernoulli_speed runs on its two
    eliminations."""
    return zchain._kac_residual(*zchain._gap_routes(n, q, exact))


# ---------------------------------------------------------------------------
# oracle: N = 2, q = 1/2 worked by hand
#
# Transition matrix rows (from counts 0, 1, 2) with success probabilities
# 3/4, 1/2, 3/4 give stationary law (1/7, 3/7, 3/7), speed 6/7, return time
# E_0 T_0 = 7, and the hitting race from 2: P(T_0 < T_2) = 1/4,
# E(T_0 | first) = 5/2, E(T_2 | first) = 3/2, E_2 T_0 = 7.


def test_hand_case_stationary_exact():
    nu = bernoulli_stationary(2, Fraction(1, 2), exact=True)
    assert nu == [Fraction(1, 7), Fraction(3, 7), Fraction(3, 7)]


def test_hand_case_speed():
    v = bernoulli_speed(2, Fraction(1, 2), exact=True)
    assert v == Fraction(6, 7)
    assert bernoulli_speed(2, 0.5) == pytest.approx(6 / 7, rel=1e-14)


def test_hand_case_return_time():
    assert expected_return_time(2, Fraction(1, 2), exact=True) == 7
    assert kac_residual(2, Fraction(1, 2), exact=True) == 0


def test_hand_case_hitting():
    r = hitting_analysis(2, Fraction(1, 2), exact=True)
    assert r.prob_bottom_first == 0.25
    assert r.mean_time_bottom_first == 2.5
    assert r.mean_time_top_first == 1.5
    assert r.mean_time_bottom == 7.0
    assert r.identity_residual == 0.0
    assert r.closed_form_at_1 == r.prob_bottom_at_1 == 0.0625
    assert r.closed_form_at_2 == r.prob_bottom_at_2 == 0.09375


# ---------------------------------------------------------------------------
# oracle: direct chain simulation of the hitting race


def mc_hitting(n, q, paths, rng):
    """Simulate the race from count n; returns (P, times_0, times_n)."""
    succ = [1 - q ** (m if m >= 1 else n) for m in range(n + 1)]
    t0, tn = [], []
    for _ in range(paths):
        m, t = n, 0
        while True:
            m = rng.binomial(n, succ[m])
            t += 1
            if m == 0:
                t0.append(t)
                break
            if m == n:
                tn.append(t)
                break
    return len(t0) / paths, np.array(t0), np.array(tn)


def test_hitting_against_chain_simulation():
    rng = make_rng(13)
    p_hat, t0, tn = mc_hitting(2, 0.5, 20_000, rng)
    r = hitting_analysis(2, 0.5)
    assert abs(p_hat - r.prob_bottom_first) < 3 * math.sqrt(0.25 * 0.75 / 20_000)
    assert abs(t0.mean() - 2.5) < 3 * t0.std(ddof=1) / math.sqrt(t0.size)
    assert abs(tn.mean() - 1.5) < 3 * tn.std(ddof=1) / math.sqrt(tn.size)


def test_hitting_mc_n3():
    rng = make_rng(19)
    r = hitting_analysis(3, 0.6)
    p_hat, _, _ = mc_hitting(3, 0.6, 40_000, rng)
    se = math.sqrt(r.prob_bottom_first * (1 - r.prob_bottom_first) / 40_000)
    assert abs(p_hat - r.prob_bottom_first) < 3 * se


# ---------------------------------------------------------------------------
# transition rows and solves


def test_bernoulli_row_is_binomial():
    for m, expo in ((0, 3), (1, 1), (2, 2), (3, 3)):
        row = bernoulli_matrix(3, 0.4)[m]
        ref = stats.binom.pmf(np.arange(4), 3, 1.0 - 0.4 ** expo)
        np.testing.assert_allclose(row, ref, rtol=1e-12)
        assert row.sum() == pytest.approx(1.0, abs=1e-14)


def _ref_multinomial_pmf(counts, probs):
    """Scalar multinomial point mass through big-int factorials; zero-count
    factors are skipped."""
    coeff = math.factorial(sum(counts))
    for c in counts:
        coeff //= math.factorial(c)
    value = probs[0] - probs[0] + coeff  # 0 or Fraction(0) of matching type
    for c, p in zip(counts, probs):
        if c:
            value = value * p ** c
    return value


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 25, 39, 48, 64])
def test_bernoulli_matrix_equals_factorial_reference(n):
    # the depth-chain reduction is checked for bit equality, so the float
    # rows are pinned bytewise to one multinomial pmf per entry
    for q in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
        want = []
        for m in range(n + 1):
            fail = float(np.power(q, m if m >= 1 else n))
            want.append([_ref_multinomial_pmf((n - j, j), (fail, 1 - fail))
                         for j in range(n + 1)])
        got = bernoulli_matrix(n, q)
        assert got.dtype == float
        assert got.tobytes() == np.array(want).tobytes(), q


def test_bernoulli_matrix_exact_equals_factorial_reference():
    q = Fraction(3, 10)
    for n in (1, 2, 5, 9):
        got = bernoulli_matrix(n, q, exact=True)
        for m in range(n + 1):
            fail = q ** (m if m >= 1 else n)
            want = [_ref_multinomial_pmf((n - j, j), (fail, 1 - fail))
                    for j in range(n + 1)]
            assert list(got[m]) == want
            assert all(isinstance(x, Fraction) for x in got[m])


def test_bernoulli_row_validation():
    with pytest.raises(ValueError):
        bernoulli_matrix(3, 1.0)


def test_stationary_solves_fixed_point():
    for n, q in ((3, 0.3), (5, 0.5), (8, 0.7)):
        nu = bernoulli_stationary(n, q)
        p = bernoulli_matrix(n, q)
        np.testing.assert_allclose(nu @ p, nu, atol=1e-13)
        assert nu.sum() == pytest.approx(1.0)
        assert np.all(nu >= -1e-15)


def test_stationary_size_cap():
    with pytest.raises(ValueError):
        bernoulli_stationary(65, 0.5)
    with pytest.raises(ValueError):
        bernoulli_stationary(0, 0.5)


def _max_rel_error_vs_exact(route, n, q):
    # The reference is the Fraction solve at the decimal q; the binary
    # rounding of q moves the results by < N^2 ulp.
    got = route(n, q)
    ref = route(n, Fraction(str(q)), exact=True)
    return max(abs(float((Fraction(g) - Fraction(r)) / Fraction(r)))
               for g, r in zip(got, ref))


@pytest.mark.parametrize("n,q", [(8, 0.5), (16, 0.5), (30, 0.5), (8, 0.3),
                                 (16, 0.7)])
def test_float_stationary_is_relatively_accurate(n, q):
    # GTH never subtracts, so even nu(0) ~ q^{N^2} 2^N (1e-262 at N = 30)
    # keeps full relative precision
    assert _max_rel_error_vs_exact(bernoulli_stationary, n, q) <= 1e-12


HITTING_VALUES = ("prob_bottom_first", "mean_time_bottom_first",
                  "mean_time_top_first", "mean_time_bottom",
                  "prob_bottom_at_1", "prob_bottom_at_2")


def _return_time(n, q, exact=False):
    return [expected_return_time(n, q, exact)]


def _hitting_values(n, q, exact=False):
    rep = hitting_analysis(n, q, exact)
    return [getattr(rep, name) for name in HITTING_VALUES]


@pytest.mark.parametrize("route,n,q", [
    pytest.param(_return_time, 16, 0.5, id="return-16-0.5"),
    pytest.param(_return_time, 30, 0.5, id="return-30-0.5"),
    pytest.param(_hitting_values, 10, 0.6, id="hitting-10-0.6"),
    pytest.param(_hitting_values, 16, 0.5, id="hitting-16-0.5"),
])
def test_float_first_step_is_relatively_accurate(route, n, q):
    # the first-step systems run the same subtraction-free elimination;
    # E_0[T_0] ~ 1/nu(0) is 1e72 at N = 16 and 1e262 at N = 30
    assert _max_rel_error_vs_exact(route, n, q) <= 1e-12


def test_float_stationary_survives_underflow():
    # nu(0) ~ q^{N^2} 2^N underflows (2^-4032 at N = 64, q = 1/2); the
    # back-substitution rescales as it goes, and the return time reads inf
    for n, q in ((64, 0.5), (40, 0.1), (64, 0.1), (64, 0.3)):
        nu = bernoulli_stationary(n, q)
        assert np.all(np.isfinite(nu)) and np.all(nu >= 0.0)
        assert nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert nu[0] == 0.0
        assert expected_return_time(n, q) == math.inf
        assert kac_residual(n, q) == 0.0
        assert bernoulli_speed(n, q) == 1.0
    # at N = 33 nu(0) = 1.3e-318 is subnormal and E_0[T_0] reads inf: the
    # Kac check cannot resolve that range, so it passes
    assert expected_return_time(33, 0.5) == math.inf
    assert kac_residual(33, 0.5) == 0.0
    assert bernoulli_speed(33, 0.5) == 1.0


def test_return_time_checks_size():
    # the same dense-solve bounds as the stationary law and the speed
    for n in (0, zchain._MAX_DENSE_N + 1):
        with pytest.raises(ValueError):
            expected_return_time(n, 0.5)


def test_float_speed_passes_kac_check_across_the_range():
    # from nu(0) ~ 1 down through subnormal and underflowed gaps
    for n in range(8, 65, 8):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            v = bernoulli_speed(n, q)
            assert 0.0 < v <= 1.0, (n, q)
            assert kac_residual(n, q) <= 1e-10, (n, q)


def _ladder_with_trap(size, trap, exact):
    """A walk on 0..size-1 stepping down or up with chance 1/2 each
    (reflected at the ends), but ``trap`` only stays put."""
    half = Fraction(1, 2) if exact else 0.5
    p = np.zeros((size, size), dtype=object if exact else float)
    p[:] = half - half
    for k in range(size):
        if k == trap:
            p[k, k] = 2 * half
            continue
        for j in (k - 1, k + 1):
            p[k, abs(j) if j < size else size - 2] += half
    return p


@pytest.mark.parametrize("exact", [False, True])
def test_zero_pivot_raises(exact):
    # states 1 and 2 only swap with each other and state 3 only stays put,
    # so state 1 (keeping states 0..2) or state 3 (the whole chain) has no
    # way down, and its pivot is 0 in either arithmetic
    rows = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    p = np.array([[Fraction(x) if exact else float(x) for x in row]
                  for row in rows], dtype=object if exact else float)
    with pytest.raises(ZeroDivisionError):
        zchain._first_step(p, np.arange(3))(np.ones(3, int))
    with pytest.raises(ZeroDivisionError):
        zchain._stationary(p)
    # past the unblocked base, a trap has no way down either: states 65 to
    # 128 are the float elimination's second panel, 0 to 64 its base
    size = zchain._MAX_DENSE_N + 1 + 2 * zchain._GTH_PANEL - 20
    for trap in (100, 30):
        p = _ladder_with_trap(size, trap, exact)
        with pytest.raises(ZeroDivisionError, match=f"state {trap}$"):
            zchain._first_step(p, np.arange(size - 1))(np.ones(size - 1,
                                                               int))
        with pytest.raises(ZeroDivisionError, match=f"state {trap}$"):
            zchain._stationary(p)


def _depth_chain_matrix(law, n):
    chain = zchain._lattice_chain(law, n, zchain._MAX_STATES)
    p = np.zeros((len(chain.states),) * 2)
    p[chain.source, chain.target] = chain.mass
    return p


@pytest.mark.parametrize("n,size", [(8, 330), (10, 715)])
def test_blocked_gth_agrees_with_unblocked_elimination(n, size):
    # four and eleven panels past the base; blocking reorders nonnegative
    # sums only. Whole chain (no deficit), and state 0 absorbing (its
    # column the deficit)
    p = _depth_chain_matrix(FIVE_ATOM, n)
    assert p.shape == (size, size)
    for a, deficit in ((p.copy(), np.zeros(size)),
                       (p[1:, 1:].copy(), p[1:, 0].copy())):
        want, want_deficit = a.copy(), deficit.copy()
        chain_oracles.gth(want, want_deficit)
        zchain._gth(a, deficit)
        np.testing.assert_allclose(a, want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(deficit, want_deficit, rtol=1e-13, atol=0)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_leader_count_solves_run_unblocked(monkeypatch, q):
    # every leader-count chain, up to _MAX_DENSE_N + 1 states, is the
    # blocked elimination's unblocked base: eliminations, stationary laws,
    # return times and hitting analyses keep the unblocked bits
    for n in range(2, zchain._MAX_DENSE_N + 1):
        p = bernoulli_matrix(n, q)[::-1, ::-1]
        a, want = p.copy(), p.copy()
        zchain._gth(a, np.zeros(n + 1))
        chain_oracles.gth(want, np.zeros(n + 1))
        assert a.tobytes() == want.tobytes(), n

    def solves():
        sizes = range(1, zchain._MAX_DENSE_N + 1)
        return ([bernoulli_stationary(n, q).tobytes() for n in sizes],
                [expected_return_time(n, q) for n in sizes],
                [hitting_analysis(n, q) for n in range(2, 17)])

    got = solves()
    monkeypatch.setattr(zchain, "_gth", chain_oracles.gth)
    assert got == solves()


@pytest.mark.parametrize("factor", [1 + 1e-6, math.nan])
def test_kac_check_is_relative(monkeypatch, factor):
    # nu(0) ~ 1e-72 at N = 16, so an absolute bound on nu(0) - 1/E_0[T_0]
    # would pass any return time; a NaN residual must fail too
    ret = expected_return_time(16, 0.5)
    monkeypatch.setattr(zchain, "_return_time", lambda p: ret * factor)
    with pytest.raises(RuntimeError):
        bernoulli_speed(16, 0.5)


def test_exact_stationary_is_an_exact_fixed_point():
    nu = bernoulli_stationary(8, "3/5", exact=True)
    assert all(isinstance(x, Fraction) for x in nu)
    p = bernoulli_matrix(8, "3/5", exact=True)
    assert list(np.array(nu, dtype=object) @ p) == nu
    assert sum(nu) == 1


# ---------------------------------------------------------------------------
# exact solves on integer rows against the per-entry Fraction oracle


def _exact_routes(n, q):
    return (bernoulli_stationary(n, q, exact=True),
            expected_return_time(n, q, exact=True),
            hitting_analysis(n, q, exact=True))


@pytest.mark.parametrize("n,q", [(2, "1/2"), (10, "3/5"), (16, "1/2"),
                                 (12, "1/10")])
def test_exact_routes_equal_fraction_oracle(monkeypatch, n, q):
    got = _exact_routes(n, q)
    assert all(type(x) is Fraction for x in got[0])
    assert type(got[1]) is Fraction
    monkeypatch.setattr(zchain, "_stationary", chain_oracles.stationary)
    monkeypatch.setattr(zchain, "_first_step", lambda p, keep:
                        functools.partial(chain_oracles.first_step, p, keep))
    assert got == _exact_routes(n, q)


@pytest.mark.parametrize("n,q", [(10, "3/5"), (12, "1/10")])
def test_exact_hitting_systems_equal_fraction_oracle(n, q):
    # the race probabilities u and time-weighted masses w of
    # hitting_analysis, in full, before the report rounds them to floats
    p = bernoulli_matrix(n, q, exact=True)
    interior = np.arange(n - 1, 0, -1)
    b = p[np.ix_(interior, [0, n])]
    # both on one elimination of the interior, as hitting_analysis solves
    solve = zchain._first_step(p, interior)
    u = solve(b)
    assert u.shape == (n - 1, 2)
    assert (u == chain_oracles.first_step(p, interior, b)).all()
    w = solve(u)
    assert (w == chain_oracles.first_step(p, interior, u)).all()
    assert all(type(x) is Fraction for x in [*u.ravel(), *w.ravel()])


def _random_chain(rng, n):
    """An irreducible rational transition matrix with zeros and a different
    denominator in each row; a cycle 0 -> 1 -> ... -> 0 keeps it
    irreducible."""
    weights = rng.integers(0, 5, size=(n, n))
    weights[np.arange(n), (np.arange(n) + 1) % n] += 1
    return np.array([[Fraction(int(w), int(row.sum())) for w in row]
                     for row in weights], dtype=object)


@pytest.mark.parametrize("seed", range(6))
def test_exact_solves_equal_fraction_oracle_on_random_chains(seed):
    rng = make_rng(seed)
    n = 9
    p = _random_chain(rng, n)
    nu = zchain._stationary(p)
    assert list(nu) == list(chain_oracles.stationary(p))
    assert list(nu @ p) == list(nu)
    keep = rng.permutation(n)[:6]
    b = np.array([[Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 7)))
                   for _ in range(2)] for _ in keep], dtype=object)
    solve = zchain._first_step(p, keep)
    h = solve(b)
    assert h.shape == (6, 2)
    assert (h == chain_oracles.first_step(p, keep, b)).all()
    assert all(type(x) is Fraction for x in h.ravel())
    col = solve(b[:, 1])
    assert list(col) == list(chain_oracles.first_step(p, keep, b[:, 1]))


def test_scaled_values_stay_in_lowest_terms():
    # 1/2 with 3/(2 * 2) appended is (2, 3) / 4; 1/2 with 2/(4 * 2)
    # appended is (2, 1) / 4, not (4, 2) / 8
    assert zchain._append_scaled([1], 2, 3, 2) == ([2, 3], 4)
    assert zchain._append_scaled([1], 2, 2, 4) == ([2, 1], 4)


def test_kac_residual_grid():
    for n in (2, 3, 4, 5):
        for q in (0.3, 0.5, 0.7):
            assert kac_residual(n, q) <= 1e-10
            assert kac_residual(n, Fraction(q).limit_denominator(10),
                                exact=True) == 0


def test_single_particle_speed():
    # N = 1: the front advances unless the single jump is 0
    assert bernoulli_speed(1, Fraction(1, 4), exact=True) == Fraction(3, 4)


def test_exact_and_float_agree():
    for n, q in ((3, 0.3), (4, 0.6), (5, 0.5)):
        v_f = bernoulli_speed(n, q)
        v_e = bernoulli_speed(n, Fraction(q).limit_denominator(10), exact=True)
        assert v_f == pytest.approx(float(v_e), rel=1e-12)


def test_chain_sim_matches_exact(rng):
    est = bernoulli_chain_sim(3, 0.5, 40_000, rng)
    assert abs(est.value - bernoulli_speed(3, 0.5)) < 3 * est.std_err
    with pytest.raises(ValueError):
        bernoulli_chain_sim(3, 0.5, 10, rng)


@pytest.mark.parametrize("n_batches", [0, 1])
@pytest.mark.parametrize("sim", [
    pytest.param(lambda b: bernoulli_chain_sim(3, 0.5, 1000, make_rng(0),
                                               n_batches=b), id="bernoulli"),
    pytest.param(lambda b: lattice_chain_sim(THREE_ATOM, 3, 1000, make_rng(0),
                                             n_batches=b), id="lattice"),
])
def test_chain_sims_need_two_batches(sim, n_batches):
    # one batch has no batch-means standard error, none has no mean
    with pytest.raises(ValueError, match="n_batches"):
        sim(n_batches)


def _ref_bernoulli_counts(n, q, steps, rng):
    """Plain per-step inverse-CDF loop over the rows of bernoulli_matrix."""
    cdf = np.cumsum(bernoulli_matrix(n, q), axis=1)
    cdf[:, -1] = 1.0
    m = n
    counts = np.empty(steps, dtype=int)
    for t in range(steps):
        counts[t] = m = int(np.searchsorted(cdf[m], rng.random(),
                                            side="right"))
    return counts


def _ref_bernoulli_sim(n, q, steps, rng, n_batches=32):
    moved = np.zeros(steps + 1)
    moved[1:] = _ref_bernoulli_counts(n, q, steps, rng) >= 1
    return engine.batch_means(np.cumsum(moved), n_batches)


def bernoulli_law(q):
    """The two-point law whose depth chain bernoulli_chain_sim walks."""
    return LatticeLaw(top=1, atoms=((1, 1.0 - q), (0, q)))


def walk(law, n, steps, rng):
    """The simulators' walk, step by step: the depth state after each step
    and the leader displacement phi."""
    chain = zchain._lattice_chain(law, n, zchain._MAX_STATES, walk=True)
    blocks = list(zchain._walk(chain.moves, chain.arrivals, steps, rng))
    at = np.concatenate([a for a, _ in blocks])
    phi = np.concatenate([p for _, p in blocks])
    return [chain.states[chain.arrivals[i][0]] for i in at], phi


def chain_rows(chain):
    """The enumerated chain's transition rows, one dict a state."""
    rows = [{} for _ in chain.states]
    for i, j, p in zip(chain.source.tolist(), chain.target.tolist(),
                       chain.mass.tolist()):
        assert j not in rows[i]
        rows[i][j] = p
    return rows


def walk_counts(n, q, steps, rng):
    """Leader counts of the walk on the two-point law: a step that moves
    the leader lands its count at the top slot; one that does not is
    count 0."""
    states, phi = walk(bernoulli_law(q), n, steps, rng)
    return np.array([s[-1] if p else 0 for s, p in zip(states, phi)])


def _cut_count(n, q):
    cdf = np.cumsum(bernoulli_matrix(n, q), axis=1)
    cdf[:, -1] = 1.0
    return np.unique(cdf[cdf < 1.0]).size


_SCAN_N = 16
_CHUNK = zchain._sim_chunk_length(0, zchain._SIM_BLOCK)


def test_chain_sim_scans_leader_counts_up_to_n16():
    # the scan cutoff on thresholds keeps the crossover at N = 16
    assert _cut_count(_SCAN_N, 0.5) <= zchain._SIM_SCAN_MAX_CUTS
    assert _cut_count(_SCAN_N + 1, 0.5) > zchain._SIM_SCAN_MAX_CUTS


# 20 001 steps run c chunks of L and a tail of 1; the step counts 1 and
# L - 1 run the bisect loop alone, one block plus one a full block's scan
# and a one-step block; above N = 16 every step bisects
@pytest.mark.parametrize("n,q,steps", [
    pytest.param(2, 0.5, 20_001, id="2-0.5"),
    pytest.param(3, 0.3, 20_001, id="3-0.3"),
    pytest.param(5, 0.7, 20_001, id="5-0.7"),
    pytest.param(_SCAN_N, 0.5, 20_001, id="crossover"),
    pytest.param(_SCAN_N + 1, 0.5, 20_001, id="above-crossover"),
    pytest.param(3, 0.05, 20_001, id="3-0.05"),
    pytest.param(3, 0.95, 20_001, id="3-0.95"),
    pytest.param(2, 0.5, 1, id="one-step"),
    pytest.param(2, 0.5, _CHUNK - 1, id="chunk-less-one"),
    pytest.param(2, 0.5, zchain._SIM_BLOCK + 1, id="block-plus-one"),
])
def test_chain_sim_equals_step_loop(n, q, steps):
    assert steps % zchain._SIM_BLOCK   # not a multiple of the block length
    got = walk_counts(n, q, steps, make_rng(71))
    np.testing.assert_array_equal(
        got, _ref_bernoulli_counts(n, q, steps, make_rng(71)))
    if steps >= zchain._SIM_BATCHES:
        got = bernoulli_chain_sim(n, q, steps, make_rng(71))
        assert got == _ref_bernoulli_sim(n, q, steps, make_rng(71))


def _threshold_uniforms(cuts):
    """``cuts`` 40 times each in random order, and a step count that takes
    several chunks of them, then a tail."""
    values = make_rng(97).permutation(np.repeat(cuts, 40))
    return values, values.size + 7


@pytest.mark.parametrize("scan_max_cuts", [zchain._SIM_SCAN_MAX_CUTS, 0],
                         ids=["scan", "loop"])
@pytest.mark.parametrize("n,q", [(2, 0.5), (3, 0.3), (5, 0.7)])
def test_chain_sim_moves_past_uniforms_on_thresholds(monkeypatch, n, q,
                                                     scan_max_cuts):
    # every uniform is 0.0 or exactly a cumulative threshold of some row:
    # scanned or looped, the walk goes to bisect_right's count, past ties
    cdf = np.cumsum(bernoulli_matrix(n, q), axis=1)
    cdf[:, -1] = 1.0
    rows = cdf.tolist()
    cuts = [0.0, *np.unique(cdf[cdf < 1.0]).tolist()]
    values, steps = _threshold_uniforms(cuts)
    monkeypatch.setattr(zchain, "_SIM_SCAN_MAX_CUTS", scan_max_cuts)
    got = walk_counts(n, q, steps, CyclingUniforms(values))
    m, want, seen = n, [], set()
    for u in itertools.islice(itertools.cycle(values.tolist()), steps):
        seen.add((m, u))
        m = bisect.bisect_right(rows[m], u)
        want.append(m)
    np.testing.assert_array_equal(got, want)
    assert len(seen) == (n + 1) * len(cuts)  # every count meets every cut


@pytest.mark.parametrize("scan_max_cuts", [zchain._SIM_SCAN_MAX_CUTS, 0],
                         ids=["scan", "loop"])
@pytest.mark.parametrize("law,n", [
    pytest.param(THREE_ATOM, 2, id="three-2"),
    pytest.param(THREE_ATOM, 3, id="three-3"),
    pytest.param(FIVE_ATOM, 2, id="five-2"),
    pytest.param(DEEP, 2, id="deep"),
])
def test_lattice_chain_sim_moves_past_uniforms_on_thresholds(
        monkeypatch, law, n, scan_max_cuts):
    # the same on depth chains, at most 256 thresholds each: every uniform
    # is 0.0 or an entry of some state's cumulative row
    rows, start = _ref_walk_rows(law, n)
    cuts = sorted({0.0, *(c for cdf, _ in rows.values() for c in cdf
                          if c < 1.0)})
    assert len(cuts) <= zchain._SIM_SCAN_MAX_CUTS
    values, steps = _threshold_uniforms(cuts)
    monkeypatch.setattr(zchain, "_SIM_SCAN_MAX_CUTS", scan_max_cuts)
    states, phi = walk(law, n, steps, CyclingUniforms(values))
    uniforms = list(itertools.islice(itertools.cycle(values.tolist()), steps))
    want_states, want_phi = _ref_walk(rows, start, uniforms)
    assert states == _narrow(law, want_states)
    assert phi.tolist() == want_phi
    # ties: steps whose uniform is an entry of the current state's row
    at = [start, *want_states[:-1]]
    ties = sum(u in rows[s][0] for s, u in zip(at, uniforms))
    assert ties >= len(cuts)


def test_chain_sim_block_length_does_not_matter(monkeypatch):
    want = bernoulli_chain_sim(3, 0.3, 20_001, make_rng(73))
    monkeypatch.setattr(zchain, "_SIM_BLOCK", 1000)
    assert bernoulli_chain_sim(3, 0.3, 20_001, make_rng(73)) == want


def _chi2_transitions(path, p):
    """Chi-square statistic and degrees of freedom of the transitions seen
    along ``path`` against the rows of ``p``."""
    seen = np.zeros(p.shape)
    np.add.at(seen, (path[:-1], path[1:]), 1)
    stat, dof = 0.0, 0
    for m in range(len(p)):
        total = seen[m].sum()
        if total == 0:
            continue
        expected = total * p[m]
        # cells expecting fewer than 5 visits are lumped into one
        big = expected >= 5
        obs = list(seen[m, big]) + [seen[m, ~big].sum()]
        exp = list(expected[big]) + [expected[~big].sum()]
        if exp[-1] == 0:
            assert obs[-1] == 0
            obs, exp = obs[:-1], exp[:-1]
        if len(obs) > 1:
            stat += sum((o - e) ** 2 / e for o, e in zip(obs, exp))
            dof += len(obs) - 1
    return stat, dof


def test_chain_sim_transitions_follow_matrix_rows():
    n, q = 3, 0.3
    counts = walk_counts(n, q, 200_000, make_rng(79))
    stat, dof = _chi2_transitions(np.concatenate([[n], counts]),
                                  bernoulli_matrix(n, q))
    assert dof >= 4
    assert stats.chi2.sf(stat, dof) >= 1e-6
    # the depth chain's merged rows, along the walk's states
    for law, n in ((THREE_ATOM, 3), (FIVE_ATOM, 2)):
        chain = zchain._lattice_chain(law, n, 500)
        p = np.zeros((len(chain.states), len(chain.states)))
        p[chain.source, chain.target] = chain.mass
        index = {state: i for i, state in enumerate(chain.states)}
        visited, _ = walk(law, n, 200_000, make_rng(79))
        stat, dof = _chi2_transitions(
            np.array([0] + [index[s] for s in visited]), p)
        assert dof >= 4
        assert stats.chi2.sf(stat, dof) >= 1e-6, (law, n)


def test_chain_sim_memory_stays_block_sized():
    # the walk holds a few block-sized arrays at a time and sums each
    # batch's displacements as it goes, never a steps-long path or an
    # (n + 1) x steps table
    for sim in (lambda: bernoulli_chain_sim(2, 0.5, 10**6, make_rng(89)),
                lambda: lattice_chain_sim(THREE_ATOM, 2, 10**6,
                                          make_rng(89))):
        tracemalloc.start()
        try:
            sim()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * zchain._SIM_BLOCK


def test_chain_sim_large_n_stays_in_range():
    counts = walk_counts(64, 0.5, 20_000, make_rng(83))
    assert counts.min() >= 0 and counts.max() <= 64
    est = bernoulli_chain_sim(64, 0.5, 20_000, make_rng(83))
    assert 0.0 <= est.value <= 1.0


def test_chain_speed_matches_particle_simulation():
    # cross-module route: full N^2 particle dynamics, max front
    est = engine.estimate_speed(BernoulliLaw(p=0.5), 2, t_run=20_000,
                                rng=make_rng(37))
    assert abs(est.value - 6.0 / 7.0) < 3 * est.std_err + 1e-6


# ---------------------------------------------------------------------------
# hitting analysis: closed forms, trends, validation


def test_closed_forms_match_linear_system():
    for n in (3, 4, 5):
        for q in (0.3, 0.5, 0.6):
            r = hitting_analysis(n, q)
            assert abs(r.prob_bottom_at_1 - r.closed_form_at_1) <= 1e-10
            assert abs(r.prob_bottom_at_2 - r.closed_form_at_2) <= 1e-10


def test_conditional_means_trend_to_limits():
    # E(T_0 | T_0 first) falls toward 2, E(T_N | T_N first) toward 1
    reps = [hitting_analysis(n, Fraction(3, 5), exact=True) for n in (4, 6, 8)]
    bot = [r.mean_time_bottom_first for r in reps]
    top = [r.mean_time_top_first for r in reps]
    assert bot[0] > bot[1] > bot[2] > 2.0
    assert top[0] > top[1] > top[2] > 1.0
    for r in reps:
        assert r.identity_residual == 0.0


def test_hitting_identity_float():
    # the residual reconstructs E_N[T_0] (huge for larger n), so float
    # agreement is relative to that scale
    for n in (3, 4, 5):
        r = hitting_analysis(n, 0.5)
        assert r.identity_residual / r.mean_time_bottom < 1e-10


@pytest.mark.parametrize("n", [20, 32])
def test_float_hitting_underflow_raises(n):
    # P_N(T_0 < T_N) ~ 0.1^(N^2) 2^N reads 0 in float: the conditional
    # means and ratios would be nan
    with pytest.raises(ArithmeticError, match="precise"):
        hitting_analysis(n, 0.1)


def test_exact_hitting_past_the_float_range():
    # where float mode raises, exact mode still resolves the ratios;
    # E_N[T_0] ~ 1/P ~ 1e395 reads inf
    rep = hitting_analysis(20, Fraction(1, 10), exact=True)
    assert rep.mean_time_bottom == math.inf
    assert rep.identity_residual == 0.0
    assert 1.0 < rep.ratio_to_gap_asymptotic < 1.001


def test_hitting_validation():
    with pytest.raises(ValueError):
        hitting_analysis(1, 0.5)
    with pytest.raises(ValueError):
        hitting_analysis(40, 0.5)


def test_parse_q():
    assert parse_q("3/5", exact=True) == Fraction(3, 5)
    assert parse_q(0.5) == 0.5
    assert isinstance(parse_q(Fraction(1, 3), exact=True), Fraction)
    for bad in (0, 1, 1.5, "7/5"):
        with pytest.raises(ValueError):
            parse_q(bad)


# ---------------------------------------------------------------------------
# depth-count chain: landing classes


def test_lattice_s_hand_case():
    # two particles at the leader, three-atom law: classes by hand
    offsets, s = lattice_s(np.array([0, 0, 0, 2]), THREE_ATOM)
    np.testing.assert_array_equal(offsets, [-3, -2, -1, 0])
    np.testing.assert_allclose(s, [0.04, 0.0, 0.21, 0.75], atol=1e-15)


def test_lattice_s_telescopes_to_one():
    rng = make_rng(41)
    for _ in range(300):
        w = int(rng.integers(4, 9))  # span + 1 slots or more
        counts = rng.integers(0, 4, size=w)
        counts[-1] = max(counts[-1], 1)
        _, s = lattice_s(counts, THREE_ATOM)
        assert abs(s.sum() - 1.0) <= 1e-12


def test_lattice_s_requires_leader():
    with pytest.raises(ValueError, match="leader"):
        lattice_s(np.array([2, 0, 0, 0]), THREE_ATOM)


def test_lattice_s_refuses_fewer_than_span_plus_one_slots(rng):
    # three slots cannot hold depth -3; nothing is lumped in their place
    for call in (lambda c: lattice_s(c, THREE_ATOM),
                 lambda c: lattice_step(c, THREE_ATOM, rng)):
        with pytest.raises(ValueError, match="span \\+ 1 depth slots"):
            call(np.array([1, 0, 2]))


def test_lattice_s_against_particle_draws():
    # oracle: place particles per the state, run raw max-plus draws, and
    # compare one particle's displacement-class frequencies
    rng = make_rng(43)
    counts = np.array([1, 0, 1, 2])  # depths -3, -1, 0, 0
    positions = np.array([-3.0, -1.0, 0.0, 0.0])
    offsets, s = lattice_s(counts, THREE_ATOM)
    m = 30_000
    draws = np.empty(m)
    for r in range(m):
        noise = THREE_ATOM.sample(rng, (4, 4))
        draws[r] = engine.step_with_noise(positions, noise)[0]
    assert draws.min() >= offsets[0]  # the leader is a parent
    for k, off in enumerate(offsets):
        if s[k] == 0.0:
            assert not np.any(draws == off)
            continue
        freq = np.mean(draws == off)
        assert abs(freq - s[k]) < 4 * math.sqrt(s[k] * (1 - s[k]) / m)


# ---------------------------------------------------------------------------
# depth-count chain: the array enumeration against a per-composition loop


def _ref_compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _ref_compositions(n - head, k - 1):
            yield (head,) + rest


def _ref_recenter(offsets, splits, window):
    hit = np.nonzero(splits)[0]
    phi = int(offsets[hit[-1]])
    state = [0] * window
    for i in hit:
        state[max(int(offsets[i]) - phi, 1 - window) + window - 1] += \
            int(splits[i])
    return tuple(state), phi


def _ref_lattice_chain(law, n, window):
    # one scalar multinomial pmf and one recentering per composition
    start = (0,) * (window - 1) + (n,)
    index = {start: 0}
    states, rows, cums = [start], [], []
    queue = [start]
    while queue:
        state = queue.pop(0)
        offsets, s = lattice_s(np.array(state), law)
        cums.append(np.cumsum(s))
        support = np.nonzero(s)[0]
        row = {}
        for split in _ref_compositions(n, len(support)):
            target, _ = _ref_recenter(offsets[support], np.array(split), window)
            if target not in index:
                index[target] = len(states)
                states.append(target)
                queue.append(target)
            j = index[target]
            row[j] = row.get(j, 0.0) + _ref_multinomial_pmf(
                split, s[support])
        rows.append(row)
    return states, rows, cums


def _random_law(seed, span):
    """A lattice law of the given span, with a top other than 0 and about
    half its interior values at probability 0 (kept in ``atoms``)."""
    rng = make_rng(seed)
    top = int(rng.choice([-2, -1, 1, 2, 3]))
    weights = rng.random(span + 1) + 0.05
    weights[1:-1] *= rng.random(max(span - 1, 0)) < 0.5
    return LatticeLaw(top=top, atoms=tuple(
        zip(range(top - span, top + 1), (weights / weights.sum()).tolist())))


def _random_cases(pairs):
    return [pytest.param(_random_law(100 + span, span), n,
                         id=f"random-span{span}-{n}") for span, n in pairs]


# spans 0 to 8 at N = 1 to 5, where the wide reference takes under 0.3 s
RANDOM_CHAINS = _random_cases((span, n) for span in range(9)
                              for n in range(1, 6) if span * n <= 28)
RANDOM_SIMS = _random_cases([(0, 1), (0, 4), (1, 5), (2, 2), (3, 5), (4, 3),
                             (5, 1), (6, 2), (7, 2), (8, 3)])


def _ref_class_law(counts, law):
    """One state's class law from scalar np.power, multiplied in slot
    order, then differenced."""
    w = len(counts)
    cum = []
    for r in range(law.bottom, law.top + 1):
        x = 1.0
        for slot, c in enumerate(counts):
            x *= float(np.power(float(law.cdf_int(r + w - 1 - slot)), int(c)))
        cum.append(x)
    return np.clip(np.diff(cum, prepend=0.0), 0.0, None)


@pytest.mark.parametrize("law", [
    pytest.param(THREE_ATOM, id="three"),
    pytest.param(FIVE_ATOM, id="five"),
    pytest.param(DEEP, id="deep"),
    pytest.param(_random_law(7, 5), id="random"),
])
def test_lattice_s_batched_equals_single_state(law):
    # a stacked batch and one state give the same bits, those of scalar
    # np.power products in slot order, on span + 1 slots and wider
    rng = make_rng(47)
    span = law.top - law.bottom
    for n, slots in ((9, span + 1), (4, span + 3), (1, span + 1)):
        counts = rng.multinomial(n - 1, np.ones(slots) / slots, size=60)
        counts[:, -1] += 1
        batch = zchain._class_laws(
            zchain._power_table(law, slots, range(n + 1)), counts)
        for c, row in zip(counts, batch):
            offsets, s = lattice_s(c, law)
            assert s.tobytes() == row.tobytes()
            assert s.tobytes() == _ref_class_law(c, law).tobytes()
        assert offsets.tolist() == list(range(law.bottom, law.top + 1))


def _wide(law):
    """2 span + 2 slots: the references lump nothing there."""
    return 2 * (law.top - law.bottom) + 2


@pytest.mark.parametrize("law,n", [
    *[pytest.param(THREE_ATOM, n, id=f"three-{n}") for n in range(1, 6)],
    pytest.param(FIVE_ATOM, 6, id="five-6"),
    pytest.param(two_point(0.35), 4, id="two-point-4"),
    pytest.param(two_point(0.5), 25, id="two-point-25"),  # 25! > 2^63
    pytest.param(DEEP, 2, id="deep"),
    *RANDOM_CHAINS,
])
def test_lattice_chain_equals_per_composition_loop(law, n):
    # the span + 1 slots hold the chain: the wide reference's states carry
    # span + 1 leading zeros, and its rows and class laws are the same
    chain = zchain._lattice_chain(law, n, 10 ** 6)
    ref_states, ref_rows, ref_cums = _ref_lattice_chain(law, n, _wide(law))
    slots = law.top - law.bottom + 1
    assert {len(state) for state in chain.states} == {slots}
    assert {state[:-slots] for state in ref_states} == {(0,) * slots}
    assert chain.states == [state[-slots:] for state in ref_states]
    assert chain_rows(chain) == ref_rows
    assert chain.cums.tolist() == [c.tolist() for c in ref_cums]


def _ref_walk_rows(law, n):
    """The reference rows of the chain walk on wide states, by BFS from
    all-at-leader: per state, the scalar multinomial pmfs of the reversed
    compositions (the top class's count rising) summed in order, the last
    sum set to 1, and each composition's recentered state and phi."""
    window = _wide(law)
    start = (0,) * (window - 1) + (n,)
    rows, queue = {}, [start]
    while queue:
        state = queue.pop()
        if state in rows:
            continue
        offsets, s = lattice_s(np.array(state), law)
        support = np.nonzero(s)[0]
        splits = list(_ref_compositions(n, len(support)))[::-1]
        cdf = list(itertools.accumulate(
            _ref_multinomial_pmf(split, s[support]) for split in splits))
        cdf[-1] = 1.0
        hops = [_ref_recenter(offsets[support], np.array(split), window)
                for split in splits]
        rows[state] = (cdf, hops)
        queue += [target for target, _ in hops if target not in rows]
    return rows, start


def _ref_walk(rows, state, uniforms):
    """One step a uniform: the composition at bisect_right of the uniform
    on the state's cumulative row. Returns the states and phis."""
    states, phis = [], []
    for u in uniforms:
        cdf, hops = rows[state]
        state, phi = hops[bisect.bisect_right(cdf, u)]
        states.append(state)
        phis.append(phi)
    return states, phis


def _narrow(law, states):
    """Wide reference states on the span + 1 slots, which hold them."""
    slots = law.top - law.bottom + 1
    assert {state[:-slots] for state in states} <= {(0,) * slots}
    return [state[-slots:] for state in states]


# 1 and L - 1 steps run the bisect loop alone; one block plus one runs a
# full block's scan (on at most 256 thresholds) and a one-step block
@pytest.mark.parametrize("law,n", [
    pytest.param(THREE_ATOM, 2, id="three-2"),
    pytest.param(THREE_ATOM, 3, id="three-3"),
    pytest.param(FIVE_ATOM, 4, id="five-4"),
    pytest.param(DEEP, 2, id="deep"),
    *RANDOM_SIMS,
])
def test_lattice_chain_sim_equals_step_loop(law, n):
    rows, start = _ref_walk_rows(law, n)
    for steps in (1, _CHUNK - 1, zchain._SIM_BLOCK + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, phi = walk(law, n, steps, make_rng(61))
        want_states, want_phi = _ref_walk(rows, start,
                                          make_rng(61).random(steps))
        assert states == _narrow(law, want_states), steps
        assert phi.tolist() == want_phi, steps
    got = lattice_chain_sim(law, n, 4000, make_rng(61))
    _, want_phi = _ref_walk(rows, start, make_rng(61).random(4000))
    assert got == engine.batch_means(np.cumsum([0.0, *want_phi]), 32)


def test_lattice_chain_sim_state_cap(monkeypatch):
    # the walk enumerates the chain first: the cap stops it before the
    # walk allocates anything
    def no_walk(*args):
        raise AssertionError("walk reached past the state cap")

    monkeypatch.setattr(zchain, "_MAX_STATES", 3)
    monkeypatch.setattr(zchain, "_walk", no_walk)
    with pytest.raises(RuntimeError, match="exceeds 3 states"):
        lattice_chain_sim(THREE_ATOM, 6, 1000, make_rng(0))


@pytest.mark.parametrize("top", [0, 2])
def test_point_mass_chain_has_one_slot(top):
    # span 0: one depth slot, one state, and the leader moves by top
    law = LatticeLaw(top=top, atoms=((top, 1.0),))
    rep = lattice_speed(law, 3)
    assert (rep.value, rep.window, rep.n_states) == (top, 1, 1)
    assert rep.ladder.size == rep.ladder_bounds.size == 0
    est = lattice_chain_sim(law, 3, 64, make_rng(5))
    assert (est.value, est.std_err) == (top, 0.0)


def test_five_atom_n8_chain():
    # the invariants the benchmark checks on every lattice_speed report
    rep = lattice_speed(FIVE_ATOM, 8)
    assert rep.n_states == 330
    assert not rep.truncated and rep.boundary_mass <= 1e-12
    assert np.all(rep.ladder <= rep.ladder_bounds + 1e-12)
    assert FIVE_ATOM.bottom <= rep.value <= FIVE_ATOM.top


def test_lattice_step_moves_leader(rng):
    counts = np.zeros(8, dtype=int)
    counts[-1] = 5
    new, phi = lattice_step(counts, THREE_ATOM, rng)
    assert new.sum() == 5
    assert new[-1] >= 1
    assert THREE_ATOM.bottom <= phi <= THREE_ATOM.top


# ---------------------------------------------------------------------------
# depth-count chain: reduction to the leader-count chain


@pytest.mark.parametrize("n,q", [(2, 0.5), (3, 0.35), (4, 0.6)])
def test_two_point_chain_equals_bernoulli_chain(n, q):
    # the two-slot depth chain must reproduce the leader-count chain rows
    # bit for bit, with counts 0 and N merged into one state
    law = two_point(q)
    chain = zchain._lattice_chain(law, n, max_states=500)
    states, rows = chain.states, chain_rows(chain)
    index = {s: i for i, s in enumerate(states)}
    assert set(states) == {(n - j, j) for j in range(1, n + 1)}

    p = bernoulli_matrix(n, q)
    np.testing.assert_array_equal(p[0], p[n])
    for j in range(1, n + 1):
        brow = p[j]
        lrow = rows[index[(n - j, j)]]
        for k in range(1, n):
            assert lrow.get(index[(n - k, k)], 0.0) == brow[k]
        assert lrow[index[(0, n)]] == brow[n] + brow[0]


@pytest.mark.parametrize("n,q", [(2, 0.5), (3, 0.35), (4, 0.6), (5, 0.3)])
def test_two_point_speed_equals_bernoulli_speed(n, q):
    # identical transition rows, but the two stationary solves run through
    # different systems, so agreement is to solver precision only
    got = lattice_speed(two_point(q), n).value
    assert got == pytest.approx(bernoulli_speed(n, q) - 1.0, abs=1e-15)


@pytest.mark.parametrize("n", [6, 8])
def test_two_point_ladder_is_the_bernoulli_gap(n):
    # P(the leader stalls) is nu(0) of the leader-count chain, ~4e-17 at
    # N = 8; the dive probabilities carry it without cancellation
    rep = lattice_speed(two_point(0.5), n)
    nu0 = bernoulli_stationary(n, Fraction(1, 2), exact=True)[0]
    assert rep.ladder.sum() == pytest.approx(float(nu0), rel=1e-12, abs=0)


def test_lattice_speed_single_particle():
    # N = 1: every step jumps by a fresh draw, speed = E xi = -0.9
    rep = lattice_speed(THREE_ATOM, 1)
    assert rep.value == pytest.approx(-0.9, rel=1e-12)


def test_lattice_speed_three_atom_vs_particles():
    for n, seed in ((2, 47), (3, 53)):
        rep = lattice_speed(THREE_ATOM, n)
        est = engine.estimate_speed(THREE_ATOM, n, t_run=30_000,
                                    rng=make_rng(seed))
        assert abs(est.value - rep.value) < 3 * est.std_err


def test_lattice_speed_matches_chain_sim(rng):
    rep = lattice_speed(THREE_ATOM, 3)
    est = lattice_chain_sim(THREE_ATOM, 3, 40_000, rng)
    assert abs(est.value - rep.value) < 3 * est.std_err


def test_lattice_speed_reports_compare_by_value():
    rep = lattice_speed(THREE_ATOM, 2)
    assert (rep == lattice_speed(THREE_ATOM, 2)) is True
    assert (rep == lattice_speed(THREE_ATOM, 3)) is False
    assert (rep != lattice_speed(THREE_ATOM, 3)) is True


def test_ladder_within_bounds():
    rep = lattice_speed(THREE_ATOM, 4)
    assert np.all(rep.ladder <= rep.ladder_bounds + 1e-15)
    assert np.all(np.diff(rep.ladder) <= 1e-15)  # deeper dives are rarer


def test_lattice_window_is_span_plus_one():
    # depth -12 fits: the deep law solves on 13 slots, with nothing lumped
    rep = lattice_speed(DEEP, 2)
    assert (rep.window, rep.n_states) == (13, 13)
    assert rep.boundary_mass == 0.0 and not rep.truncated
    assert rep.ladder.size == 12


def test_lattice_state_cap(monkeypatch):
    # the cap stops the enumeration, before the dense solve allocates
    def no_solve(p):
        raise AssertionError("dense solve reached past the state cap")

    monkeypatch.setattr(zchain, "_MAX_STATES", 3)
    monkeypatch.setattr(zchain, "_stationary", no_solve)
    with pytest.raises(RuntimeError, match="exceeds 3 states, the dense "
                       "stationary solve's bound"):
        lattice_speed(THREE_ATOM, 6)


def test_lattice_state_cap_keeps_five_atoms_at_n14():
    # two 4096 x 4096 float64 matrices (2 x 134 MB) bound the dense solve;
    # the five-atom law at N = 14 enumerates within the cap
    assert zchain._MAX_STATES ** 2 * 8 <= 135_000_000
    chain = zchain._lattice_chain(FIVE_ATOM, 14, zchain._MAX_STATES)
    assert len(chain.states) == 2380


def test_lattice_speed_validation():
    with pytest.raises(ValueError):
        lattice_speed(THREE_ATOM, 0)
    # window is read by nothing; a value other than its default warns
    with pytest.warns(DeprecationWarning, match="window is ignored"):
        rep = lattice_speed(THREE_ATOM, 2, window=1)
    assert rep.value == lattice_speed(THREE_ATOM, 2).value


# ---------------------------------------------------------------------------
# sandwich bounds


def test_sandwich_brackets_two_point():
    law = two_point(0.5)
    sb = sandwich_bounds(law, 3, eps=0.1)
    # the coarse law IS the law here, so the upper bound is the exact speed
    assert sb.upper == lattice_speed(law, 3).value
    assert sb.lower < sb.upper
    est = engine.estimate_speed(law, 3, t_run=30_000, rng=make_rng(59))
    assert sb.lower - 3 * est.std_err <= est.value <= sb.upper + 3 * est.std_err


def test_sandwich_brackets_three_atom():
    sb = sandwich_bounds(THREE_ATOM, 3, eps=0.1)
    truth = lattice_speed(THREE_ATOM, 3).value
    assert sb.lower <= truth <= sb.upper
    assert sb.coarse_law.bottom == -1
    assert sb.stretched_law.top == 0


def test_sandwich_validation():
    with pytest.raises(ValueError):
        sandwich_bounds(LatticeLaw(top=1, atoms=((1, 0.5), (0, 0.5))), 2)
    with pytest.raises(ValueError):
        sandwich_bounds(THREE_ATOM, 2, eps=0.0)
    with pytest.raises(ValueError):
        sandwich_bounds(LatticeLaw(top=0, atoms=((0, 1.0),)), 2)
