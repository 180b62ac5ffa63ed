"""Front-shape diagnostics: empirical profile, limit wave, fluctuations.

The empirical front profile is the survival function of the particle cloud,
U(x) = N^{-1} #{i : X_i > x}. Centered on the previous log-sum-exp front
value it approaches the wave u(x) = 1 - exp(-e^{-rate (x - loc)}); for
Gumbel noise the centered positions are exactly i.i.d. Gumbel draws, so the
comparison is a classical goodness-of-fit problem. The wave solves a
semilinear front equation whose reaction term is evaluated here, and the
profile's height fluctuations at a fixed abscissa follow (after ln N
scaling) a sum of totally asymmetric stable increments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, gumbel_exact
from .engine import ParticleState, initial_state, lse_front
from .noise import GumbelLaw, NoiseLaw

__all__ = [
    "ProfileSample",
    "empirical_profile",
    "gumbel_wave",
    "wave_derivative",
    "wave_curvature",
    "centered_ks",
    "conditional_tail",
    "MarginalReport",
    "marginal_gumbel_test",
    "reaction_term",
    "traveling_wave_residual",
    "FluctuationReport",
    "fluctuation_experiment",
]

_EXP_CLAMP = 700.0
# quantile levels of fluctuation_experiment
_LEVELS = np.arange(0.1, 0.91, 0.1)


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


def empirical_profile(state: ParticleState, grid,
                      center: float = 0.0) -> ProfileSample:
    """Fraction of particles strictly above center + grid, one sort total."""
    grid = np.asarray(grid, dtype=float)
    pos = np.sort(state.positions)
    n = pos.size
    below = np.searchsorted(pos, grid + center, side="right")
    return ProfileSample(grid=grid, values=1.0 - below / n,
                         center=float(center), n=n, t=state.t)


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


def wave_curvature(x, rate: float = 1.0, loc: float = 0.0) -> np.ndarray:
    """u''(x) = rate^2 w (1 - w) e^{-w}."""
    w = _wave_w(x, rate, loc)
    # group w e^{-w} first: w (1 - w) alone overflows at the clamp
    return rate * rate * (w * np.exp(-w)) * (1.0 - w)


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
    chunk = max(1, 4_000_000 // max(state.positions.size, 1))
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
                         replicas: int = 200, target_rate: float = 1.0,
                         target_loc: float = 0.0) -> MarginalReport:
    """Test k centered coordinates for the i.i.d. Gumbel limit law.

    Runs ``replicas`` independent systems for t steps, extracts
    X_j(t) - Phi(X(t-1)) for the first k particles, and reports the
    per-coordinate Kolmogorov distance to Gumbel(target_loc, 1/target_rate)
    plus the largest pairwise sample correlation. Each replica steps through
    :func:`engine.advance`, with the kernel :func:`engine._position_blocks`
    picks for the law and N.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if replicas < 2:
        raise ValueError("need replicas >= 2")
    front = lse_front(target_rate)
    sample = np.empty((replicas, k))
    for r in range(replicas):
        state = engine.advance(initial_state(n), law, rng, t, front=front)
        sample[r] = state.positions[:k] - state.prev_front
    # each column is already centered: a state at offset 0 carries it
    ks = np.array([centered_ks(ParticleState(sample[:, j], t, 0.0),
                               target_rate, target_loc)
                   for j in range(k)])
    if k > 1:
        corr = np.corrcoef(sample, rowvar=False)
        max_corr = float(np.max(np.abs(corr - np.eye(k))))
    else:
        max_corr = 0.0
    return MarginalReport(n=n, t=t, k=k, replicas=replicas, ks=ks,
                          max_corr=max_corr)


# ---------------------------------------------------------------------------
# reaction term and the traveling-wave identity


def reaction_term(u, rate: float = 1.0, speed: float = 1.0) -> np.ndarray:
    """Reaction A(u) = rate (1-u) w (rate w + speed - rate), w = ln 1/(1-u).

    Defined on [0, 1] with A(0) = A(1) = 0; positive on (0,1) when
    speed >= rate. Rejects arguments outside [0, 1].
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("u must lie in [0, 1]")
    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    ui = u[inner]
    w = -np.log1p(-ui)
    out[inner] = rate * (1.0 - ui) * w * (rate * w + speed - rate)
    return out


def traveling_wave_residual(rate: float, speed: float, grid=None,
                            loc: float = 0.0) -> np.ndarray:
    """Residual u'' + speed u' + A(u) of the wave profile on a grid.

    The wave with decay ``rate`` solves the front equation for every wave
    speed once A carries the matching (rate, speed) pair, so the residual
    vanishes identically; this evaluates it through the public u, u', u''
    and A routes as a floating-point identity check.
    """
    if grid is None:
        grid = np.linspace(-10.0, 10.0, 1001)
    grid = np.asarray(grid, dtype=float)
    u = gumbel_wave(grid, rate, loc)
    return (wave_curvature(grid, rate, loc)
            + speed * wave_derivative(grid, rate, loc)
            + reaction_term(u, rate, speed))


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
                           ref_draws: int = 1000) -> FluctuationReport:
    """Distribution of the scaled profile-height error at abscissa x.

    For each N the statistic is ln N (U_N(t, y) - u(x)) with the moving
    evaluation point y = x + (t-1)(loc + ln(b_N)/rate) + Phi(X(0)): the
    deterministic drift of the front is subtracted, so what remains is
    driven by the stable fluctuations of the t-1 front increments. The
    reference law is |u'(x)|/rate times a sum of t-1 independent centered
    reciprocal-sum variables at size ``ref_size``; both sides are summarized
    by their quantiles at ``_LEVELS``.
    """
    if not isinstance(law, GumbelLaw):
        raise TypeError("fluctuation experiment requires Gumbel noise")
    if t < 1:
        raise ValueError("need t >= 1")
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
        for r in range(replicas):
            # only X(t) is read: skip advance's front of X(t-1) and its copy
            for block in engine._position_blocks(
                    law, t, rng, initial_state(n).positions):
                last = block[-1]
            stat[r] = math.log(n) * (np.mean(last > y) - u_x)
        stat_q[row] = np.quantile(stat, levels)

    if t > 1:
        s = gumbel_exact.s_hat_samples(ref_size, ref_draws * (t - 1), rng)
        ref = (slope / law.rate) * s.reshape(ref_draws, t - 1).sum(axis=1)
    else:
        ref = np.zeros(ref_draws)
    return FluctuationReport(
        n_list=n_list, t=t, x=float(x), replicas=replicas, levels=levels,
        stat_quantiles=stat_q, ref_quantiles=np.quantile(ref, levels),
        sampling_scale=np.array([math.log(n) / math.sqrt(n)
                                 for n in n_list]))
