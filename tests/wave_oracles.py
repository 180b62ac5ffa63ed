"""Reference route for the front equation of the limit wave.

The wave u(x) = 1 - exp(-e^{-rate (x - loc)}) solves
u'' + speed u' + A(u) = 0 for every wave speed once the reaction A carries
the matching (rate, speed) pair. frontlab evaluates u and u'; this module
holds u'' and A, so tests can run frontlab's u and u' through the equation.
"""
import numpy as np

from frontlab.profile import gumbel_wave, wave_derivative


def wave_curvature(x, rate: float = 1.0, loc: float = 0.0) -> np.ndarray:
    """u''(x) = rate^2 w (1 - w) e^{-w}, w = e^{-rate (x - loc)}; finite
    while w is, so for rate (x - loc) >= -709."""
    w = np.exp(-rate * (np.asarray(x, dtype=float) - loc))
    # group w e^{-w} first: w (1 - w) alone overflows where e^{-w} is 0
    return rate * rate * (w * np.exp(-w)) * (1.0 - w)


def reaction_term(u, rate: float = 1.0, speed: float = 1.0) -> np.ndarray:
    """A(u) = rate (1 - u) w (rate w + speed - rate), w = ln 1/(1 - u), on
    [0, 1], with A(0) = A(1) = 0; positive inside when speed >= rate."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    ui = u[inner]
    w = -np.log1p(-ui)
    out[inner] = rate * (1.0 - ui) * w * (rate * w + speed - rate)
    return out


def traveling_wave_residual(rate: float, speed: float, grid,
                            loc: float = 0.0) -> np.ndarray:
    """u'' + speed u' + A(u) of frontlab's wave on a grid; zero up to
    round-off."""
    grid = np.asarray(grid, dtype=float)
    u = gumbel_wave(grid, rate, loc)
    return (wave_curvature(grid, rate, loc)
            + speed * wave_derivative(grid, rate, loc)
            + reaction_term(u, rate, speed))
