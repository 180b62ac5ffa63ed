"""Test-only routes built on frontlab's Gumbel samplers."""
import math

import numpy as np

from frontlab.gumbel_exact import normalized_increment_samples


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
