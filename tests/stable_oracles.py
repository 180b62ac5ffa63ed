"""Reference routes to the index-1 stable limit, independent of frontlab's
samplers and closed forms: an exact Chambers-Mallows-Stuck sampler and direct
quadratures of the Levy-measure integrals. Tests compare frontlab's results
against them.
"""
import math

import numpy as np
from scipy.integrate import quad

# absolute (and relative) quadrature tolerance of psi_from_levy
_LEVY_TOL = 1e-10
# absolute (and relative) quadrature tolerance of constant_c_by_quadrature
_C_TOL = 1e-12


def constant_c_by_quadrature() -> float:
    """The stable drift constant C as its two sine integrals.

    C = integral of sin(x) x^-2 over [1, inf) plus (sin(x) - x) x^-2 over
    (0, 1], the imaginary part of psi_C(1) - psi_0(1).
    """
    tail, _ = quad(lambda x: x ** -2, 1.0, np.inf, weight="sin", wvar=1.0,
                   epsabs=_C_TOL)
    head, _ = quad(lambda x: (math.sin(x) - x) / x ** 2, 0.0, 1.0,
                   epsabs=_C_TOL, epsrel=_C_TOL)
    return tail + head


def psi_from_levy(u: float) -> complex:
    """Direct quadrature of the Levy-measure integrals defining psi_C.

    Real part: integral of (cos(ux) - 1) x^-2 over (0, inf).
    Imag part: integral of sin(ux) x^-2 over [1, inf) plus
    (sin(ux) - ux) x^-2 over (0, 1]. Scalar u.
    """
    u = float(u)
    if u == 0.0:
        return 0.0 + 0.0j
    s = math.copysign(1.0, u)
    w = abs(u)
    re_tail, _ = quad(lambda x: x ** -2, 1.0, np.inf, weight="cos", wvar=w,
                      epsabs=_LEVY_TOL)
    re_head, _ = quad(lambda x: (math.cos(w * x) - 1.0) / x ** 2, 0.0, 1.0,
                      epsabs=_LEVY_TOL, epsrel=_LEVY_TOL)
    im_tail, _ = quad(lambda x: x ** -2, 1.0, np.inf, weight="sin", wvar=w,
                      epsabs=_LEVY_TOL)
    im_head, _ = quad(lambda x: (math.sin(w * x) - w * x) / x ** 2, 0.0, 1.0,
                      epsabs=_LEVY_TOL, epsrel=_LEVY_TOL)
    val = complex(re_tail - 1.0 + re_head, im_tail + im_head)
    return val if s > 0 else val.conjugate()


def stable_reference_samples(n_samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the centered limit law exp(psi_0).

    Chambers-Mallows-Stuck at index 1, skewness 1, scale pi/2: the scaled
    variable is (pi/2) X + ln(pi/2) with
    X = (2/pi)[(pi/2 + phi) tan(phi) - ln((pi/2) W cos(phi) / (pi/2 + phi))].
    """
    half_pi = 0.5 * math.pi
    phi = rng.uniform(-half_pi, half_pi, n_samples)
    w = rng.standard_exponential(n_samples)
    x = (2.0 / math.pi) * (
        (half_pi + phi) * np.tan(phi)
        - np.log(half_pi * w * np.cos(phi) / (half_pi + phi)))
    return half_pi * x + math.log(half_pi)
