"""Reference route for frontlab's exact chain solves: the Grassmann-Taksar-
Heyman elimination on numpy object arrays of Fractions, one normalized
Fraction per entry and operation. frontlab runs the same elimination, in the
same state order, on integer rows; tests compare its exact results against
these. On float arrays, ``gth`` is the unblocked float elimination, the
reference for frontlab's blocked one.
"""
import numpy as np


def gth(a: np.ndarray, deficit: np.ndarray) -> None:
    """GTH elimination in place, entry by entry.

    Censors states n-1, ..., 0. Pivot k is the mass ``deficit[k]`` leaving
    the system plus ``a[k, :k]``; it goes to ``a[k, k]`` and divides
    ``a[:k, k]``. A zero pivot above state 0 raises ZeroDivisionError.
    """
    for k in range(a.shape[0] - 1, -1, -1):
        a[k, k] = deficit[k] + a[k, :k].sum()
        if k and a[k, k] == 0:
            raise ZeroDivisionError(f"zero GTH pivot at state {k}")
        a[:k, k] /= a[k, k]
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
        deficit[:k] += a[:k, k] * deficit[k]


def stationary(p: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible rational chain, rebuilt from
    state 0 and normalized once."""
    a = p.copy()
    n = a.shape[0]
    gth(a, np.zeros(n, dtype=object))
    x = np.zeros(n, dtype=object)
    x[0] = 1
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
    return x / x.sum()


def first_step(p: np.ndarray, keep, b) -> np.ndarray:
    """Solve h = b + P[keep, keep] h, states outside ``keep`` absorbing."""
    a = p[np.ix_(keep, keep)]
    gth(a, np.delete(p[keep], keep, axis=1).sum(axis=1))
    h = np.array(b, dtype=object)
    for k in range(len(keep) - 1, 0, -1):
        h[:k] += np.multiply.outer(a[:k, k], h[k])
    for k in range(len(keep)):
        h[k] = (h[k] + a[k, :k] @ h[:k]) / a[k, k]
    return h
