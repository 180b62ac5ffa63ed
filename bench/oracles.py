"""Exact references that the benchmark checks results against.

Gumbel-noise speeds and variances come from the Laplace transform of the
reciprocal sum S_N = sum_{i<=N} 1/E_i (E_i standard exponential), computed
here with scipy alone, not through frontlab. Chain speeds are frontlab's own
`Fraction` solves, pinned by the closed value 6/7 at N = 2, q = 1/2. All of it
runs before timing starts and is cached per process.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1, k1e

# Monte Carlo results must lie within this many standard errors of the exact
# value.
MC_SIGMAS = 4.0

# Leader-count chain speed at N = 2, q = 1/2, worked out by hand.
BERNOULLI_N2_HALF = Fraction(6, 7)

# Drift constant of the stable limit, C = 1 - Euler's gamma in closed form.
STABLE_C = 1.0 - float(np.euler_gamma)

THREE_ATOM = ((0, 0.5), (-1, 0.3), (-3, 0.2))
FIVE_ATOM = ((0, 0.4), (-1, 0.25), (-2, 0.15), (-3, 0.12), (-4, 0.08))


def _log_laplace(t):
    """ln L(t), where L(t) = E exp(-t/E) = 2 sqrt(t) K1(2 sqrt(t))."""
    r = 2.0 * np.sqrt(t)
    return np.log(r) + np.log(k1e(r)) - r


@cache
def gumbel_speed(n: int) -> float:
    """v_N = E ln S_N = int_0^inf (e^-t - L(t)^N) dt / t, by quad in ln t.

    The integrand is written as expm1(-t) - expm1(N ln L(t)) so that the two
    terms do not cancel near t = 0.
    """
    def integrand(s):
        t = math.exp(s)
        return math.expm1(-t) - math.expm1(n * float(_log_laplace(t)))

    # L(t)^N falls from 1 to 0 near t = 1 / (N ln N); break the range there
    mid = -math.log(n * math.log(n + 1.0))
    value, _ = quad(integrand, -60.0, 8.0, points=(mid - 3.0, mid, mid + 3.0),
                    limit=200, epsabs=1e-10, epsrel=1e-10)
    return value


@cache
def gumbel_variance(n: int, ds: float = 0.05) -> float:
    """Var ln S_N by the two-dimensional Frullani identity.

    E (ln S)^2 = int int E[(e^-t - e^-tS)(e^-u - e^-uS)] dt du / (t u); the
    expectation is a combination of L(t)^N, L(u)^N and L(t + u)^N. The
    trapezoid rule in (ln t, ln u) converges geometrically for this smooth,
    doubly-exponentially decaying integrand.
    """
    s = np.arange(-45.0, 7.0 + ds / 2, ds)
    t = np.exp(s)
    x = np.expm1(-t)                    # e^-t - 1
    y = np.expm1(n * _log_laplace(t))   # L(t)^N - 1
    v = ds * float(np.sum(x - y))
    second = 0.0
    for lo in range(0, s.size, 128):
        xi, yi = x[lo:lo + 128, None], y[lo:lo + 128, None]
        yij = np.expm1(n * _log_laplace(t[lo:lo + 128, None] + t[None, :]))
        second += float(np.sum(xi * x - xi * y - x * yi - yi - y + yij))
    return ds * ds * second - v * v


def normalized_increment_mean(n: int) -> float:
    """Mean of frontlab's normalized increments (b_N/N)(ln S_N - ln b_N) - C."""
    b = n * float(exp1(1.0 / n))
    return (gumbel_speed(n) - math.log(b)) * b / n - STABLE_C


@cache
def bernoulli_speed(n: int, q: Fraction) -> Fraction:
    """Leader-count chain speed, by frontlab's rational stationary solve."""
    from frontlab import zchain
    return zchain.bernoulli_speed(n, q, exact=True)


@cache
def bernoulli_return_time(n: int, q: Fraction) -> Fraction:
    """E_0[T_0] in rational arithmetic; Kac's formula gives nu(0) = 1 / it."""
    from frontlab import zchain
    return zchain.expected_return_time(n, q, exact=True)


@cache
def lattice_speed(atoms: tuple, n: int) -> float:
    """Depth-count chain speed, by frontlab's windowed stationary solve."""
    from frontlab import zchain
    from frontlab.noise import LatticeLaw
    return zchain.lattice_speed(LatticeLaw(top=0, atoms=atoms), n).value


def mc_failures(what: str, estimate: float, reference: float,
                std_err: float) -> list[str]:
    """Empty when |estimate - reference| <= MC_SIGMAS standard errors."""
    if not (math.isfinite(estimate) and std_err >= 0.0
            and abs(estimate - reference) <= MC_SIGMAS * std_err):
        return [f"{what}: {estimate!r} vs exact {reference!r} "
                f"(se {std_err!r})"]
    return []
