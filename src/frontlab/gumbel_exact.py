"""Exact front statistics under Gumbel noise and their stable scaling limit.

With Gumbel(loc, rate) noise the log-sum-exp front performs a random walk
whose increments are loc + rate^-1 ln(sum_i 1/E_i), E_i i.i.d. standard
exponential. Everything here rests on that representation: Monte Carlo
speed/variance at finite N, the centering sequence b_N = N E1(1/N), the
asymptotic expansions, and the normalized increments whose law approaches a
totally asymmetric index-1 stable distribution with exponent
psi_0(u) = -(pi/2)|u| - i u ln|u|. The law of sums of centered reciprocal
sums is exact: E e^{iv/E} = 2 sqrt(-iv) K1(2 sqrt(-iv)) in closed form,
inverted by the Gil-Pelaez formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .noise import _BLOCK_ELEMENTS, _draw_units, _exponential_from_uniform

__all__ = [
    "upsilon_samples",
    "VSigmaEstimate",
    "v_sigma_mc",
    "b_of_N",
    "b_over_n_asymptotic",
    "expansion_v",
    "expansion_sigma2",
    "constant_C",
    "ScalingParams",
    "scaling_params",
    "normalized_increment_samples",
    "s_hat_samples",
    "s_hat_sum_quantiles",
    "empirical_cf",
    "cf_distance",
    "speeded_front_samples",
]

_EULER_GAMMA = float(np.euler_gamma)


def _check_n(n_particles: int) -> int:
    n_particles = int(n_particles)
    if n_particles < 1:
        raise ValueError(f"need N >= 1, got {n_particles}")
    return n_particles


def _recip_sums(n_particles: int, n_samples: int,
                rng: np.random.Generator) -> np.ndarray:
    """i.i.d. samples of sum_{i<=N} 1/E_i, E_i ~ Exp(1).

    Each E_i = max(-ln(1 - U_i), 2^-54) comes from one float64 uniform U_i
    (the floor reads U_i = 0 as the middle of its cell). The samples run on
    the draw pipeline of :func:`noise._draw_units`, in its units of whole
    rows (``noise._UNIT_ELEMENTS`` floats, one row at least): each unit's
    uniforms are drawn in unit order into a worker's reused buffer, then
    transformed in place and summed row by row in float64 outside the lock,
    on up to two threads. Unit draws concatenate and each row is summed
    alone, so the sums, and ``rng``'s state afterwards, do not depend on the
    unit length or on the number of workers.
    """
    out = np.empty(n_samples)

    def sums(i, x, _):
        np.reciprocal(_exponential_from_uniform(x), out=x)
        x.sum(axis=1, out=out[i:i + x.shape[0]])

    _draw_units(rng, n_samples, (n_particles,), sums)
    return out


def upsilon_samples(n_particles: int, n_samples: int,
                    rng: np.random.Generator, loc: float = 0.0,
                    rate: float = 1.0) -> np.ndarray:
    """i.i.d. front increments loc + rate^-1 ln(sum 1/E_i)."""
    n_particles = _check_n(n_particles)
    return loc + np.log(_recip_sums(n_particles, n_samples, rng)) / rate


def _jackknife_se_of_variance(x: np.ndarray) -> float:
    # delete-1 jackknife in closed form, O(n)
    n = x.size
    d2 = (x - x.mean()) ** 2
    a = d2.sum()
    loo = (a - d2 * (n / (n - 1.0))) / (n - 2.0)
    return math.sqrt((n - 1.0) / n * ((loo - loo.mean()) ** 2).sum())


@dataclass(frozen=True)
class VSigmaEstimate:
    v: float
    v_std_err: float
    sigma2: float
    sigma2_std_err: float
    n_samples: int


def v_sigma_mc(n_particles: int, n_samples: int, rng: np.random.Generator,
               loc: float = 0.0, rate: float = 1.0) -> VSigmaEstimate:
    """Monte Carlo speed and increment variance with jackknife errors."""
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    ups = upsilon_samples(n_particles, n_samples, rng, loc, rate)
    s2 = float(np.var(ups, ddof=1))
    return VSigmaEstimate(
        v=float(ups.mean()),
        v_std_err=math.sqrt(s2 / n_samples),
        sigma2=s2,
        sigma2_std_err=_jackknife_se_of_variance(ups),
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# centering sequence and expansions


def b_of_N(n_particles: int) -> float:
    """Centering b_N = N E1(1/N) = N integral_{1/N}^inf e^-y / y dy."""
    from scipy.special import exp1

    n_particles = _check_n(n_particles)
    return float(n_particles * exp1(1.0 / n_particles))


def b_over_n_asymptotic(n_particles: int) -> float:
    """ln N - gamma + 1/N, the two-term tail of b_N/N."""
    n_particles = _check_n(n_particles)
    return math.log(n_particles) - _EULER_GAMMA + 1.0 / n_particles


def expansion_v(n_particles: int, loc: float = 0.0, rate: float = 1.0) -> float:
    """Four-term speed expansion; needs ln ln N > 0, so N > e."""
    n_particles = int(n_particles)
    if n_particles <= math.e:
        raise ValueError(f"expansion needs N > e, got {n_particles}")
    ln_n = math.log(n_particles)
    lln = math.log(ln_n)
    return loc + (ln_n + lln + lln / ln_n + (1.0 - _EULER_GAMMA) / ln_n) / rate


def expansion_sigma2(n_particles: int, rate: float = 1.0) -> float:
    """Leading variance pi^2 / (3 ln N), rescaled by the noise rate."""
    n_particles = int(n_particles)
    if n_particles <= math.e:
        raise ValueError(f"expansion needs N > e, got {n_particles}")
    return math.pi ** 2 / (3.0 * math.log(n_particles)) / rate ** 2


# ---------------------------------------------------------------------------
# stable exponent


def constant_C() -> float:
    """Drift constant of the stable exponent, C = 1 - gamma = 0.42278...

    C = Im[ integral_1^inf (e^{ix} - 1) x^-2 dx
            + integral_0^1 (e^{ix} - 1 - ix) x^-2 dx ],
    and the two sine integrals sum to 1 - gamma in closed form (Euler's
    gamma). ``tests/stable_oracles.py`` evaluates them by quadrature, as a
    test oracle.
    """
    return 1.0 - _EULER_GAMMA


def _psi_zero(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u, dtype=complex)
    nz = u != 0.0
    un = u[nz]
    out[nz] = -0.5 * math.pi * np.abs(un) - 1j * un * np.log(np.abs(un))
    return out


# ---------------------------------------------------------------------------
# scaling constants and normalized increments


@dataclass(frozen=True)
class ScalingParams:
    """Constants mapping raw front increments onto the stable limit.

    rate = N / b_N lies in (0, 1) for N >= 4 (at N = 3, b_3 < 3 makes it
    exceed 1); shift = -C - ln(b_N)/rate.
    """

    n: int
    b: float
    rate: float
    shift: float


def scaling_params(n_particles: int) -> ScalingParams:
    n_particles = _check_n(n_particles)
    b = b_of_N(n_particles)
    rate = n_particles / b
    c = constant_C()
    return ScalingParams(n=n_particles, b=b, rate=rate,
                         shift=-c - math.log(b) / rate)


def normalized_increment_samples(n_particles: int, n_samples: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """Samples of (b_N/N)(ln sum 1/E_i - ln b_N) - C, approaching the
    centered stable law exp(psi_0)."""
    p = scaling_params(n_particles)
    logs = np.log(_recip_sums(p.n, n_samples, rng))
    return (logs - math.log(p.b)) / p.rate - constant_C()


def s_hat_samples(n_particles: int, n_samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Samples of (sum 1/E_i - b_N) / N, the pre-log normalized sum."""
    n_particles = _check_n(n_particles)
    b = b_of_N(n_particles)
    sums = _recip_sums(n_particles, n_samples, rng)
    return (sums - b) / n_particles


# ---------------------------------------------------------------------------
# exact law of sums of centered reciprocal sums


# 1/(k!(k+1)!) and psi(k+1) + psi(k+2), k = 0.._SERIES_TERMS-1: the power
# series of z K1(z) in w = z^2/4 (Abramowitz & Stegun 9.6.11)
_SERIES_TERMS = 16
_SERIES_COEF = np.array([1.0 / (math.factorial(k) * math.factorial(k + 1))
                         for k in range(_SERIES_TERMS)])
_SERIES_PSI = np.array([2.0 * (sum(1.0 / j for j in range(1, k + 1))
                               - _EULER_GAMMA) + 1.0 / (k + 1)
                        for k in range(_SERIES_TERMS)])
# |w| up to which the series is summed; past it, kve
_SERIES_MAX = 0.5


def _log_recip_cf(v: np.ndarray) -> np.ndarray:
    """ln E e^{iv/E} for v >= 0, E ~ Exp(1): ln g(v), g(v) = z K1(z) with
    z = 2 sqrt(-iv).

    Past |w| = v = 0.5 it is ln z + ln kve(1, z) - z. Below, g - 1 comes
    from the series z K1(z) - 1 = sum_k w^{k+1} (ln w - psi(k+1)
    - psi(k+2)) / (k! (k+1)!), w = -iv, and its log from log1p of the real
    part, so ln g keeps its relative accuracy as v -> 0 (where ln z and
    ln K1(z) would cancel) and is exactly 0 at v = 0.
    """
    from scipy.special import kve

    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape, dtype=complex)
    small = (v > 0.0) & (v <= _SERIES_MAX)
    w = -1j * v[small]
    p = np.zeros_like(w)
    q = np.zeros_like(w)
    for a, c in zip(_SERIES_COEF[::-1], _SERIES_PSI[::-1]):
        p = (p + a) * w
        q = (q + a * c) * w
    s = np.log(w) * p - q
    out[small] = (0.5 * np.log1p(2.0 * s.real + abs(s) ** 2)
                  + 1j * np.arctan2(s.imag, 1.0 + s.real))
    big = v > _SERIES_MAX
    z = 2.0 * np.sqrt(-1j * v[big])
    out[big] = np.log(z) + np.log(kve(1, z)) - z
    return out


def _log_s_hat_cf(n_particles: int, b: float, u: np.ndarray) -> np.ndarray:
    """ln E e^{iu (S_N - b_N)/N} = N ln g(u/N) - iu b_N/N, b = b_N.

    The two terms grow like u ln N and cancel to the stable exponent
    -pi u/2 - iu ln u + iu (1 - gamma) plus O(u^2 ln^2 N / N); since ln g
    keeps its relative accuracy at small u/N, the difference stays accurate
    to about 1e-16 u ln N.
    """
    return n_particles * _log_recip_cf(u / n_particles) \
        - 1j * u * (b / n_particles)


# Gil-Pelaez inversion on fixed Gauss-Legendre panels, in the scaled
# variable v = terms u and abscissa x' = x / terms - ln(terms): Z/terms
# - ln(terms) tends to one stable law whatever the number of terms, so the
# quantiles at levels 0.1..0.9 stay in -1.3 < x' < 12.1 (M = 1 to 2^53,
# 1 to 1000 terms)
_GL_ORDER = 20           # nodes per panel
_CF_FLOOR = 1e-17        # |cf| past which the integrand is dropped
_V_LOW = 1e-14           # the ln v panels start here; below, F moves < 1e-12
_V_MAX_LOG2 = 12         # the cutoff is searched up to v = 2^12
_PANEL_PHASE = 15.0      # radians of phase a linear panel may span
_X_BRACKET = 30.0        # |x'| of the quantiles' search bracket
_NEWTON_TOL = 1e-11
_NEWTON_STEPS = 100


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    from scipy.special import roots_legendre

    return roots_legendre(order)


def _gl_panels(edges: np.ndarray):
    """Nodes and weights of Gauss-Legendre panels between ``edges``."""
    x, w = _gauss_legendre(_GL_ORDER)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def s_hat_sum_quantiles(n_particles: int, terms: int, levels) -> np.ndarray:
    """Exact quantiles of Z = sum of ``terms`` i.i.d. (S_N - b_N)/N,
    S_N = sum_{i<=N} 1/E_i, at ``levels`` in (0, 1).

    Z has the characteristic function phi(u) = exp(terms (-iu b_N/N
    + N ln g(u/N))), with g the closed form of E e^{iv/E}
    (:func:`_log_recip_cf`). Its CDF is Gil-Pelaez's
    F(x) = 1/2 - pi^-1 int_0^inf Im[e^{-iux} phi(u)] / u du, summed on
    fixed Gauss-Legendre panels in v = terms u: in ln v from v = 1e-14 on,
    since the integrand grows like ln u at 0 (E 1/E = inf), then linear up
    to where |phi| < 1e-17, with panels short enough for the phase of the
    integrand. F(x) = level is solved by Newton's method in a bisection
    bracket, with the density from the same nodes. Doubling the nodes
    moves no quantile by 1e-9 (tests).
    """
    n = _check_n(n_particles)
    terms = int(terms)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0.0) or np.any(levels >= 1.0):
        raise ValueError("levels must lie in (0, 1)")
    b = b_of_N(n)
    shift = math.log(terms)

    def log_cf(v):
        # ln phi(v / terms) - i v ln(terms): the scaled cf's exponent
        return terms * _log_s_hat_cf(n, b, v / terms) - 1j * v * shift

    # cut off at the first v = 2^(k/8) where |phi| < _CF_FLOOR
    v_grid = 2.0 ** (np.arange(8 * _V_MAX_LOG2 + 1) / 8)
    above = log_cf(v_grid).real > math.log(_CF_FLOOR)
    if above[-1]:
        raise ArithmeticError(
            f"|cf| of the reciprocal-sum law at N = {n}, {terms} terms "
            f"stays above {_CF_FLOOR} up to v = 2^{_V_MAX_LOG2}")
    v_max = v_grid[np.argmin(above)]
    # the integrand's phase moves at most |x'| + |ln v| + 2 radians per
    # unit v; a linear panel spans _PANEL_PHASE of it
    omega = _X_BRACKET + max(math.log(v_max), 1.0) + 2.0
    width = _PANEL_PHASE / omega
    v_split = min(width, v_max)
    # ln v panels 1, 1, 2, 4, 8, 8, ... wide from the top down: a panel
    # whose top lies d below ln v_split sees the phase move e^d times slower
    depth = math.log(v_split / _V_LOW)
    offsets = [d for d in (0, 1, 2, 4, *range(8, 64, 8)) if d < depth]
    s, ws = _gl_panels(math.log(v_split) - np.array([depth, *offsets[::-1]]))
    vl, wl = _gl_panels(np.linspace(
        v_split, v_max, max(1, math.ceil((v_max - v_split) / width)) + 1))
    v = np.concatenate([np.exp(s), vl])
    phi = np.exp(log_cf(v))
    # du/u = ds on the ln u panels; the density's weights carry one more u
    cdf_w = phi * np.concatenate([ws, wl / vl]) / math.pi
    pdf_w = phi * np.concatenate([ws * v[:s.size], wl]) / math.pi

    def cdf_pdf(x):
        ph = np.outer(x, v)
        c, sn = np.cos(ph), np.sin(ph)
        cdf = 0.5 - (c @ cdf_w.imag - sn @ cdf_w.real)
        return cdf, c @ pdf_w.real + sn @ pdf_w.imag

    ends, _ = cdf_pdf(np.array([-_X_BRACKET, _X_BRACKET]))
    if not (ends[0] < levels.min() and ends[1] > levels.max()):
        raise ArithmeticError(
            f"quantiles of the reciprocal-sum law at N = {n}, {terms} "
            f"terms lie outside the bracket |x'| <= {_X_BRACKET}")
    lo = np.full(levels.shape, -_X_BRACKET)
    hi = np.full(levels.shape, _X_BRACKET)
    x = np.zeros(levels.shape)
    for _ in range(_NEWTON_STEPS):
        cdf, pdf = cdf_pdf(x)
        below = cdf < levels
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - (cdf - levels) / pdf
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - x).max() <= _NEWTON_TOL
        x = new
        if done:
            return terms * (x + shift)
    raise ArithmeticError(
        f"Newton's method did not converge for the reciprocal-sum law at "
        f"N = {n}, {terms} terms")


def empirical_cf(samples: np.ndarray, u_grid) -> np.ndarray:
    """Empirical characteristic function on a grid, single pass."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("empirical cf needs at least one sample")
    u = np.asarray(u_grid, dtype=float)
    out = np.zeros(u.shape, dtype=complex)
    chunk = max(1, _BLOCK_ELEMENTS // max(u.size, 1))
    for i in range(0, samples.size, chunk):
        x = samples[i:i + chunk]
        out += np.exp(1j * np.outer(u, x)).sum(axis=1)
    return out / samples.size


def cf_distance(samples: np.ndarray, u_grid) -> float:
    """sup over the grid of |empirical cf - exp(psi_0)|."""
    u = np.asarray(u_grid, dtype=float)
    target = np.exp(_psi_zero(u))
    return float(np.abs(empirical_cf(samples, u) - target).max())


def speeded_front_samples(n_particles: int, m: int, tau_grid,
                          n_paths: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Paths of the sped-up centered front on a grid of times.

    phi_N(tau) = (sum_{t <= [m tau]} Ups_N(t)) / m - tau ln m, one row per
    path; Ups_N are the normalized increments. Converges (N, then m) to the
    totally asymmetric Cauchy process.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau_grid must be nonnegative")
    if m < 1 or n_paths < 1:
        raise ValueError("m and n_paths must be >= 1")
    counts = np.floor(m * tau + 1e-12).astype(int)
    total = int(counts.max())
    ups = normalized_increment_samples(n_particles, n_paths * total,
                                       rng).reshape(n_paths, total)
    cum = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(ups, axis=1)],
                         axis=1)
    return cum[:, counts] / m - tau * math.log(m)
