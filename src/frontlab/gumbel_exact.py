"""Exact front statistics under Gumbel noise and their stable scaling limit.

With Gumbel(loc, rate) noise the log-sum-exp front performs a random walk
whose increments are loc + rate^-1 ln(sum_i 1/E_i), E_i i.i.d. standard
exponential. Everything here rests on that representation: Monte Carlo
speed/variance at finite N, the centering sequence b_N = N E1(1/N), the
asymptotic expansions, and the normalized increments whose law approaches a
totally asymmetric index-1 stable distribution with exponent
psi_0(u) = -(pi/2)|u| - i u ln|u|.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .noise import _exponential_from_uniform

__all__ = [
    "upsilon_samples",
    "VSigmaEstimate",
    "v_sigma_mc",
    "b_of_N",
    "b_over_n_asymptotic",
    "expansion_v",
    "expansion_sigma2",
    "constant_C",
    "StableExponent",
    "stable_exponent",
    "ScalingParams",
    "scaling_params",
    "normalized_increment_samples",
    "s_hat_samples",
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


# elements per block of _recip_sums: 2^16 float64s, 512 KiB, stay in cache
# through the in-place passes
_RECIP_BLOCK = 1 << 16


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


def _recip_sums(n_particles: int, n_samples: int,
                rng: np.random.Generator) -> np.ndarray:
    """i.i.d. samples of sum_{i<=N} 1/E_i, E_i ~ Exp(1).

    Each E_i = max(-ln(1 - U_i), 2^-54) comes from one float64 uniform U_i
    (the floor reads U_i = 0 as the middle of its cell). The samples are cut
    into blocks of whole rows, at least one row and about ``_RECIP_BLOCK``
    elements. A worker claims the next block and fills its own reused buffer
    with uniforms while holding a lock, so ``rng`` is read block by block in
    order; it then transforms the buffer in place and sums it row by row in
    float64, outside the lock. With two blocks or more and two CPUs or more,
    a second worker runs on a thread that lives only for the call: numpy's
    passes release the GIL, so one block's transform overlaps the next
    block's draw. Block draws concatenate and each row is summed alone, so
    the sums, and ``rng``'s state afterwards, do not depend on the block
    length or on the number of workers. If a worker raises, the other stops
    before its next block and the first exception is re-raised.
    """
    rows = max(1, _RECIP_BLOCK // n_particles)
    out = np.empty(n_samples)
    starts = iter(range(0, n_samples, rows))
    lock = threading.Lock()
    errors = []

    def work():
        buf = np.empty((min(rows, n_samples), n_particles))
        try:
            while True:
                with lock:
                    i = None if errors else next(starts, None)
                    if i is None:
                        return
                    x = buf[:min(rows, n_samples - i)]
                    rng.random(out=x)
                np.reciprocal(_exponential_from_uniform(x), out=x)
                x.sum(axis=1, out=out[i:i + x.shape[0]])
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)

    helper = None
    if n_samples > rows and _cpus() > 1:
        helper = threading.Thread(target=work, name="frontlab-recip-sums")
        helper.start()
    work()
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]
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


@dataclass(frozen=True)
class StableExponent:
    """Characteristic exponents of the limiting index-1 stable law."""

    C: float

    def psi_centered(self, u) -> np.ndarray:
        """psi_0(u) = -(pi/2)|u| - i u ln|u| (drift removed)."""
        return _psi_zero(np.asarray(u, dtype=float))

    def psi(self, u) -> np.ndarray:
        """psi_C(u) = i C u + psi_0(u)."""
        u = np.asarray(u, dtype=float)
        return 1j * self.C * u + _psi_zero(u)


def stable_exponent() -> StableExponent:
    return StableExponent(C=constant_C())


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


def empirical_cf(samples: np.ndarray, u_grid) -> np.ndarray:
    """Empirical characteristic function on a grid, single pass."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("empirical cf needs at least one sample")
    u = np.asarray(u_grid, dtype=float)
    out = np.zeros(u.shape, dtype=complex)
    chunk = max(1, 4_000_000 // max(u.size, 1))
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
