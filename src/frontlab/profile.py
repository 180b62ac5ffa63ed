"""Front-shape diagnostics: empirical profile, limit wave, fluctuations.

The empirical front profile is the survival function of the particle cloud,
U(x) = N^{-1} #{i : X_i > x}. Centered on the previous log-sum-exp front
value it approaches the wave u(x) = 1 - exp(-e^{-rate (x - loc)}); for
Gumbel noise the centered positions are exactly i.i.d. Gumbel draws, so the
comparison is a classical goodness-of-fit problem. The profile's height
fluctuations at a fixed abscissa follow (after ln N scaling) a sum of
totally asymmetric stable increments.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import engine, gumbel_exact
from .engine import ParticleState
from .noise import _BLOCK_ELEMENTS, GumbelLaw, NoiseLaw, SandwichedGumbelLaw

__all__ = [
    "ProfileSample",
    "empirical_profile",
    "gumbel_wave",
    "wave_derivative",
    "centered_ks",
    "conditional_tail",
    "MarginalReport",
    "marginal_gumbel_test",
    "FluctuationReport",
    "fluctuation_experiment",
]

_EXP_CLAMP = 700.0
# quantile levels of fluctuation_experiment
_LEVELS = np.arange(0.1, 0.91, 0.1)
# the largest reference size M: every integer up to 2^53 is a float, and the
# reference cf's exponent is checked to 1e-9 there
_REF_SIZE_MAX = 2 ** 53


@dataclass(frozen=True)
class ProfileSample:
    """Empirical front profile on a grid: values[i] = U(center + grid[i])."""

    grid: np.ndarray
    values: np.ndarray
    center: float
    n: int
    t: int

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        v = self.values
        if np.any(v < 0) or np.any(v > 1) or np.any(np.diff(v) > 0):
            raise ValueError("profile values must be non-increasing in [0,1]")


def empirical_profile(state: ParticleState, grid) -> ProfileSample:
    """Fraction of particles strictly above center + grid, one sort total.

    The center is ``state.prev_front``, the front value the state recorded
    at its previous step, as :func:`centered_ks` takes it.
    """
    center = state.prev_front
    if not math.isfinite(center):
        raise ValueError(f"profile center must be finite, got {center}; a "
                         f"state has a previous front only after a step")
    grid = np.asarray(grid, dtype=float)
    pos = np.sort(state.positions)
    n = pos.size
    below = np.searchsorted(pos, grid + center, side="right")
    return ProfileSample(grid=grid, values=1.0 - below / n,
                         center=float(center), n=n, t=state.t)


def _gumbel_target(law: NoiseLaw) -> tuple[float, float]:
    """(rate, loc) of the Gumbel law the centered positions approach: the
    noise's own under Gumbel noise, a point-width sandwiched law included
    (the unit Gumbel shifted by its midpoint), the unit Gumbel (1, 0)
    otherwise."""
    if isinstance(law, GumbelLaw):
        return law.rate, law.loc
    if isinstance(law, SandwichedGumbelLaw) and law._is_point():
        return 1.0, 0.5 * (law.lo + law.hi)
    return 1.0, 0.0


def _wave_w(x, rate, loc):
    # w = e^{-rate(x-loc)}, clamped so downstream products stay finite
    z = rate * (np.asarray(x, dtype=float) - loc)
    return np.exp(np.minimum(-z, _EXP_CLAMP))


def gumbel_wave(x, rate: float = 1.0, loc: float = 0.0) -> np.ndarray:
    """Limit profile u(x) = 1 - exp(-e^{-rate (x - loc)})."""
    return -np.expm1(-_wave_w(x, rate, loc))


def wave_derivative(x, rate: float = 1.0, loc: float = 0.0) -> np.ndarray:
    """u'(x) = -rate w e^{-w} with w = e^{-rate (x - loc)}."""
    w = _wave_w(x, rate, loc)
    return -rate * w * np.exp(-w)


def centered_ks(state: ParticleState, rate: float = 1.0,
                loc: float = 0.0) -> float:
    """Sup distance between the centered profile and the wave.

    The profile is centered on the front value recorded at the previous
    step, so this is the exact Kolmogorov statistic of the centered
    positions against the Gumbel(loc, 1/rate) CDF, evaluated at the jumps.
    """
    if state.t < 1 or not math.isfinite(state.prev_front):
        raise ValueError("state carries no previous front value; step first")
    ys = np.sort(state.positions - state.prev_front)
    n = ys.size
    cdf = np.exp(-np.exp(-rate * (ys - loc)))
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


def conditional_tail(state: ParticleState, law: NoiseLaw, x) -> np.ndarray:
    """Exact one-step tail P(X_i(t+1) > x | current positions).

    Equals 1 - prod_j F(x - X_j); the product is the conditional CDF of any
    single offspring. Vectorized over x; returns 1 where some factor is 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    chunk = max(1, _BLOCK_ELEMENTS // max(state.positions.size, 1))
    for lo in range(0, x.size, chunk):
        block = x[lo:lo + chunk, None] - state.positions[None, :]
        out[lo:lo + chunk] = -np.expm1(law.log_cdf(block).sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# marginal law of the centered positions


@dataclass(frozen=True)
class MarginalReport:
    n: int
    t: int
    k: int
    replicas: int
    ks: np.ndarray         # per-coordinate distance to the target Gumbel
    max_corr: float        # largest |off-diagonal| sample correlation


def marginal_gumbel_test(law: NoiseLaw, n: int, t: int,
                         rng: np.random.Generator, k: int = 4,
                         replicas: int = 200) -> MarginalReport:
    """Test k centered coordinates for the i.i.d. Gumbel limit law.

    The target is Gumbel(loc, 1/rate) with the noise's own loc and rate
    under Gumbel noise (a point-width sandwiched law is the unit Gumbel
    shifted by its midpoint), and the unit Gumbel under other laws. Runs
    ``replicas`` independent systems for t steps, extracts
    X_j(t) - Phi(X(t-1)) for the first k particles, Phi the log-sum-exp at
    the target rate, and reports the per-coordinate Kolmogorov distance to
    the target plus the largest pairwise sample correlation. The replicas
    run through :func:`engine._replica_runs`: under Gumbel noise several at
    a time on the exact kernel, on up to two threads, and under other laws
    one at a time with the kernel :func:`engine._position_blocks` picks;
    either way bit for bit what one :func:`engine.advance` per replica
    gives.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if replicas < 2:
        raise ValueError("need replicas >= 2")
    rate, loc = _gumbel_target(law)
    sample = np.empty((replicas, k))

    def center(i, last, fronts):
        sample[i:i + last.shape[0]] = last[:, :k] - fronts[:, None]

    engine._replica_runs(law, n, t, replicas, rng, center, rate)
    # each column is already centered: a state at offset 0 carries it
    ks = np.array([centered_ks(ParticleState(sample[:, j], t, 0.0), rate,
                               loc) for j in range(k)])
    if k > 1:
        corr = np.corrcoef(sample, rowvar=False)
        max_corr = float(np.max(np.abs(corr - np.eye(k))))
    else:
        max_corr = 0.0
    return MarginalReport(n=n, t=t, k=k, replicas=replicas, ks=ks,
                          max_corr=max_corr)


# ---------------------------------------------------------------------------
# profile-height fluctuations


@dataclass(frozen=True)
class FluctuationReport:
    n_list: tuple[int, ...]
    t: int
    x: float
    replicas: int
    levels: np.ndarray           # quantile levels
    stat_quantiles: np.ndarray   # len(n_list) x len(levels)
    ref_quantiles: np.ndarray    # target-law quantiles at the same levels
    sampling_scale: np.ndarray   # ln N / sqrt(N), the binomial noise size


def fluctuation_experiment(n_list, t: int, x: float,
                           rng: np.random.Generator,
                           law: GumbelLaw = GumbelLaw(),
                           replicas: int = 400,
                           ref_size: int = 10 ** 6,
                           ref_draws: int | None = None) -> FluctuationReport:
    """Distribution of the scaled profile-height error at abscissa x.

    For each N the statistic is ln N (U_N(t, y) - u(x)) with the moving
    evaluation point y = x + (t-1)(loc + ln(b_N)/rate) + Phi(X(0)): the
    deterministic drift of the front is subtracted, so what remains is
    driven by the stable fluctuations of the t-1 front increments. The
    reference law is |u'(x)|/rate times a sum of t-1 independent centered
    reciprocal sums (S_M - b_M)/M at M = ``ref_size``; both sides are
    summarized by their quantiles at ``_LEVELS``. The reference quantiles
    are exact, :func:`gumbel_exact.s_hat_sum_quantiles` (Gil-Pelaez
    inversion of the closed-form cf), and draw nothing from ``rng``; they
    are exactly 0 where t = 1 or u'(x) = 0. ``ref_draws`` sized the old
    Monte Carlo reference and is ignored. The replicas of each N run
    through :func:`engine._replica_runs`, several at a time on the exact
    kernel and on up to two threads, bit for bit what one
    :func:`engine.advance` per replica gives.
    """
    if ref_draws is not None:
        warnings.warn(
            "fluctuation_experiment: ref_draws is ignored; the reference "
            "quantiles are exact (gumbel_exact.s_hat_sum_quantiles, "
            "Gil-Pelaez inversion of the closed-form cf of 1/E)",
            DeprecationWarning, stacklevel=2)
    if not isinstance(law, GumbelLaw):
        raise TypeError("fluctuation experiment requires Gumbel noise")
    if t < 1:
        raise ValueError("need t >= 1")
    if replicas < 1:
        raise ValueError(f"need replicas >= 1, got {replicas}")
    if not 1 <= ref_size <= _REF_SIZE_MAX:
        raise ValueError(f"need 1 <= ref_size <= 2^53, got {ref_size}")
    n_list = tuple(int(n) for n in n_list)
    levels = _LEVELS.copy()
    u_x = float(gumbel_wave(x, law.rate, law.loc))
    slope = abs(float(wave_derivative(x, law.rate, law.loc)))

    stat_q = np.empty((len(n_list), levels.size))
    for row, n in enumerate(n_list):
        b = gumbel_exact.b_of_N(n)
        y = (x + (t - 1) * (law.loc + math.log(b) / law.rate)
             + math.log(n) / law.rate)
        stat = np.empty(replicas)

        def height(i, last, _):
            # U_N(t, y) counts the particles above y: 1.0 each, in place
            np.greater(last, y, out=last)
            stat[i:i + last.shape[0]] = math.log(n) * (
                last.sum(axis=1) / n - u_x)

        engine._replica_runs(law, n, t, replicas, rng, height)
        stat_q[row] = np.quantile(stat, levels)

    if t > 1 and slope > 0.0:
        ref_q = (slope / law.rate) * gumbel_exact.s_hat_sum_quantiles(
            ref_size, t - 1, levels)
    else:
        ref_q = np.zeros(levels.size)
    return FluctuationReport(
        n_list=n_list, t=t, x=float(x), replicas=replicas, levels=levels,
        stat_quantiles=stat_q, ref_quantiles=ref_q,
        sampling_scale=np.array([math.log(n) / math.sqrt(n)
                                 for n in n_list]))
