"""Exact leader-count chains for bounded integer jumps.

With 0/1 jumps, the number of particles sitting at the running maximum is a
Markov chain on {0, ..., N}: from count m the next count is Binomial(N,
1 - q^m) (exponent N when m = 0, everyone having collapsed onto the old
leader). Its stationary law gives the front speed exactly, and hitting-time
decompositions between the full state N and the empty state 0 expose the
doubly exponential finite-N speed correction q^{N^2} 2^N.

General bounded integer jumps are handled by the depth-count chain: the state
counts particles at depths 0, -1, ..., -span behind the current leader
(span = top - bottom, depth 0 always occupied). One offspring lands at
displacement r relative to the old leader with probability
s_r = prod_w F(r - d_w)^{c_w} - prod_w F(r - 1 - d_w)^{c_w} (d_w = source
depths), the N offspring counts are multinomial over the classes, and the
state recenters on the realized maximum. The old leader is a parent of
every offspring, so none lands below it plus bottom, nor the new leader
above it plus top: the span + 1 slots hold the chain exactly. Speeds come
from the stationary mean of the per-step leader displacement.

The reachable depth states are enumerated on arrays, one BFS level at a
time: the compositions of N into k landing classes are built once per k,
every composition is recentered and grouped by target once per set of
landing classes (the leader is a parent, so classes lie in [bottom, top] and
few sets occur), the level's class laws come from one table of scalar
powers F^c, and the level's states with one class set form their
multinomial masses together. The rows are bit-identical to a
per-composition scalar loop.

Of the two chain simulations, ``bernoulli_chain_sim`` walks the leader
counts by inverse CDF: one uniform a step, and the count ``bisect_right``
finds on the cumulative row of ``bernoulli_matrix``. Up to 256 merged
thresholds, blocks of steps run as a two-level scan over the steps' maps,
bit for bit the bisect loop's. ``lattice_chain_sim`` runs the particle
system itself, so it shares nothing with the depth chain it checks.

Stationary laws, return times and hitting analyses all come from one
Grassmann-Taksar-Heyman elimination, which never subtracts: float results are
relatively accurate to the ends of the float range (nu(0) ~ q^{N^2} 2^N reads
0 below ~1e-308, E_0[T_0] reads inf). In float, chains past 65 states are
eliminated in blocks, so large depth chains spend their time in matrix
products. ``exact`` runs the same elimination, in
the same state order, on Python ints: each row is int numerators over one
denominator, each update is cut back by an exact division by the previous
pivot (fraction-free, as in Bareiss's elimination), and Fractions are built
only for the values returned (exact with respect to the binary inputs).
``bernoulli_speed(16, "1/2", exact=True)``, two such solves, takes about 8 ms
on a 2-core box, against about 50 ms on arrays of Fractions.
"""
from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .engine import SpeedEstimate, _check_batches, _edge_means, estimate_speed
from .noise import LatticeLaw

__all__ = [
    "bernoulli_matrix",
    "bernoulli_stationary",
    "bernoulli_speed",
    "expected_return_time",
    "HittingReport",
    "hitting_analysis",
    "bernoulli_chain_sim",
    "lattice_s",
    "lattice_step",
    "LatticeSpeedReport",
    "lattice_speed",
    "lattice_chain_sim",
    "SandwichBounds",
    "sandwich_bounds",
    "parse_q",
]

_MAX_DENSE_N = 64
_MAX_HITTING_N = 32
_SIM_BATCHES = 32      # batch-means batches of the chain simulations
_SIM_BLOCK = 1 << 16   # uniforms per block draw of the chain simulation
# The chain walk scans its step maps up to this many merged thresholds, one
# pass over the uniforms each; above, the bisect loop wins. The leader-count
# chain at q = 1/2 has 254-256 at N = 16, 284-289 at N = 17. Its 10^5 steps
# took 2.6 ms scanned against 13.6 looped at N = 2, 12.2 vs 15.0 at N = 16,
# even from N = 18 to 20 (2-core x86 box, numpy 2.4.6).
_SIM_SCAN_MAX_CUTS = 256
# largest depth-chain state space lattice_speed solves: its blocked dense
# solve still holds two (states, states) float64 matrices, 2 x 134 MB here
_MAX_STATES = 4096
# states per panel of the blocked float GTH elimination above its unblocked
# base of _MAX_DENSE_N + 1 states. On random dense chains blocking paid from
# the first panel on (unblocked -> blocked): 80 states 1.05 -> 0.90 ms, 126
# states 2.8 -> 1.9 ms, 330 states 26 -> 4.8 ms, 715 states 296 -> 17 ms,
# 1365 states 2.3 s -> 71 ms; 2380 states took 0.36 s. Width 96 was within
# 10% of this, width 32 up to 45% slower (2-core x86 box, OpenBLAS).
_GTH_PANEL = 64
# (state, composition) entries per block of the depth chain's mass arrays
_CHAIN_BLOCK = 1 << 16


def parse_q(q, exact: bool = False):
    """Coerce q to float, or to an exact Fraction ("3/5" strings allowed)."""
    if isinstance(q, Fraction):
        val = q
    elif isinstance(q, str):
        val = Fraction(q)
    else:
        val = Fraction(float(q))
    if not 0 < val < 1:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    return val if exact else float(val)


def bernoulli_matrix(n: int, q, exact: bool = False) -> np.ndarray:
    """Transition matrix; float, or object dtype holding Fractions.

    Row m has success probability 1 - q^m for m >= 1, 1 - q^n for m = 0.
    Entry j is C(n, j) fail^(n-j) succ^j: in float multiplied in that order
    from scalar powers, with the coefficients from one ``math.comb`` row;
    exactly, one Fraction of integer powers of q's numerator and denominator.
    """
    q = parse_q(q, exact)
    if exact:
        a, b = q.numerator, q.denominator
        rows = []
        for m in range(n + 1):
            fail, total = a ** (m or n), b ** (m or n)  # q^m = fail / total
            rows.append([Fraction(math.comb(n, j) * fail ** (n - j)
                                  * (total - fail) ** j, total ** n)
                         for j in range(n + 1)])
        return np.array(rows, dtype=object)
    coeff = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    p = np.empty((n + 1, n + 1))
    for m in range(n + 1):
        # np.power, not q ** m: numpy's vectorized pow differs from libm by
        # an ulp, and the depth-chain reduction is checked for bit equality
        fail = float(np.power(q, m or n))
        succ = 1 - fail
        p[m] = (coeff * [fail ** (n - j) for j in range(n + 1)]
                * [succ ** j for j in range(n + 1)])
    return p


def _gth(a: np.ndarray, deficit: np.ndarray) -> None:
    """Grassmann-Taksar-Heyman elimination (Oper. Res. 33(5), 1985) on
    floats, in place, blocked.

    Censors states n-1, ..., 0. Pivot k is 1 - a_kk formed as a sum, the
    mass ``deficit[k]`` leaving the system plus ``a[k, :k]``, so no step
    subtracts; it goes to ``a[k, k]`` and divides ``a[:k, k]``. The lowest
    ``_MAX_DENSE_N`` + 1 states are eliminated one rank-1 update at a time,
    so leader-count chains run as before, operation for operation. Above
    them the states go in panels of ``_GTH_PANEL``, top panel first. In a
    panel B, the rank-1 updates are confined to its rows and columns: each
    state's row, column and deficit take the updates of the panel's states
    eliminated before it as matrix-vector products. The states U below
    then take all of them at once, ``a[U, U] += a[U, B] @ a[B, U]`` (the
    deficit as one more column). Every operand is nonnegative, so blocking
    changes only the order of the sums. A zero pivot above state 0 raises
    ZeroDivisionError. Exact mode runs the unblocked elimination on int
    rows (``_gth_rows``), not on arrays of Fractions.
    """
    n = a.shape[0]
    edges = [0, *range(min(n, _MAX_DENSE_N + 1), n, _GTH_PANEL), n]
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        for k in range(hi - 1, lo - 1, -1):
            if lo:
                top = a[k, k + 1:hi]
                a[k, :k] += top @ a[k + 1:hi, :k]
                a[:k, k] += a[:k, k + 1:hi] @ a[k + 1:hi, k]
                deficit[k] += top @ deficit[k + 1:hi]
            a[k, k] = deficit[k] + a[k, :k].sum()
            if k and a[k, k] == 0:
                raise ZeroDivisionError(f"zero GTH pivot at state {k}")
            a[:k, k] /= a[k, k]
            if not lo:
                a[:k, :k] += np.outer(a[:k, k], a[k, :k])
                deficit[:k] += a[:k, k] * deficit[k]
        if lo:
            deficit[:lo] += a[:lo, lo:hi] @ deficit[lo:hi]
            a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]


def _int_rows(p: np.ndarray, keep) -> tuple[list, list]:
    """Rows of the rational ``p[keep, keep]`` as int numerators over one
    denominator per row, the lcm of the row's denominators. Each row is
    followed by its deficit, the mass of ``p[keep]`` outside ``keep``."""
    inside = set(keep)
    outside = [j for j in range(p.shape[1]) if j not in inside]
    rows, dens = [], []
    for s in keep:
        # star-args from a list: a generator's argument tuple is resized,
        # and every resized tuple lands on CPython's tuple free list
        den = math.lcm(*[v.denominator for v in p[s]])
        nums = [v.numerator * (den // v.denominator) for v in p[s]]
        rows.append([nums[j] for j in keep] + [sum(nums[j] for j in outside)])
        dens.append(den)
    return rows, dens


def _gth_rows(rows: list) -> tuple[list, list]:
    """The elimination of ``_gth``, state by state in the same order, on
    the int rows of ``_int_rows``, in place.

    Row k enters its elimination as k + 1 numerators (its self-loop last)
    and the deficit. Its pivot numerator is the sum
    S_k = deficit + rows[k][:k], so no step subtracts. Each row i < k drops
    column k and takes (S_k rows[i] + rows[i][k] rows[k]) / S_prev, where
    S_prev is the pivot numerator of the state eliminated before (1 for the
    first). The division is exact, as in Bareiss's fraction-free
    elimination: every entry is a minor of the integer matrix (Sylvester's
    identity). Without it the numbers grow beyond use.

    Row i then stands for ``rows[i] / (dens[i] * S_prev)``, one denominator
    per row, and state k's pivot is S_k / (dens[k] * S_prev). A float route
    would keep the same rows with a log scale per row in place of the
    division.

    Returns the pivot numerators and, per state k, the numerators
    ``rows[i][k]`` of the rows i < k at k's elimination. These replay the
    row updates on any further int column, as if it had been eliminated
    along (``_sweep_rows``). A zero pivot above state 0 raises
    ZeroDivisionError.
    """
    pivots, columns = [0] * len(rows), [None] * len(rows)
    prev = 1
    for k in range(len(rows) - 1, -1, -1):
        top = rows[k]
        pivot = pivots[k] = sum(top[:k]) + top[k + 1]
        if k and pivot == 0:
            raise ZeroDivisionError(f"zero GTH pivot at state {k}")
        columns[k] = [row[k] for row in rows[:k]]
        rest = top[:k] + top[k + 1:]
        for i, row in enumerate(rows[:k]):
            r = row[k]
            rows[i] = [(pivot * x + r * y) // prev
                       for x, y in zip(row[:k] + row[k + 1:], rest)]
        prev = pivot
    return pivots, columns


def _append_scaled(nums: list, scale: int, top: int, bottom: int):
    """Values ``nums / scale`` with ``top / (bottom * scale)`` appended, on
    one new scale; in lowest terms if the values were."""
    g = math.gcd(top, bottom)
    step = bottom // g
    return [x * step for x in nums] + [top // g], scale * step


def _stationary(p: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible chain by GTH elimination, rebuilt
    from state 0. Floats renormalize as they go, so that they cannot
    overflow; a rational ``p`` (object dtype) gives the law in Fractions."""
    n = p.shape[0]
    if p.dtype == object:
        return _stationary_rows(p)
    a = p.copy()
    _gth(a, np.zeros(n))
    x = np.zeros(n)
    x[0] = 1
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
        x[:k + 1] /= x[:k + 1].sum()
    return x


def _stationary_rows(p: np.ndarray) -> np.ndarray:
    """``_stationary`` in integers. With a_ik and the pivot of k read from
    ``_gth_rows`` the common factor S_prev cancels from x_k = sum_i x_i a_ik
    / pivot_k, and so does dens[k] from y = x / dens: y_k = sum_i y_i
    columns[k][i] / S_k, kept as numerators over one scale."""
    n = p.shape[0]
    rows, dens = _int_rows(p, range(n))
    pivots, columns = _gth_rows(rows)
    y, scale = [1], 1
    for k in range(1, n):
        top = sum(v * r for v, r in zip(y, columns[k]))
        y, scale = _append_scaled(y, scale, top, pivots[k])
    x = [v * d for v, d in zip(y, dens)]
    total = sum(x)
    return np.array([Fraction(v, total) for v in x], dtype=object)


def _first_step(p: np.ndarray, keep):
    """Eliminate the kept states once and return ``solve(b)``, which solves
    h = b + P[keep, keep] h, b >= 0, states outside ``keep`` absorbing, for
    any number of right-hand sides ``b`` on that one elimination. A first
    kept state never absorbed reads +inf in float, and raises
    ZeroDivisionError for a rational ``p`` (object dtype)."""
    if p.dtype == object:
        return _first_step_rows(p, keep)
    a = p[np.ix_(keep, keep)]
    _gth(a, np.delete(p[keep], keep, axis=1).sum(axis=1))

    def solve(b):
        h = np.array(b, dtype=p.dtype)
        for k in range(len(keep) - 1, 0, -1):
            h[:k] += np.multiply.outer(a[:k, k], h[k])
        with np.errstate(divide="ignore", over="ignore"):
            for k in range(len(keep)):
                nz = np.flatnonzero(a[k, :k])  # inf times 0 counts as 0
                h[k] = (h[k] + a[k, nz] @ h[nz]) / a[k, k]
        return h

    return solve


def _sweep_rows(r: list, pivots: list, columns: list) -> None:
    """Replay ``_gth_rows``' row updates on the int columns ``r`` (one list
    a row, on its row's scale), in place: the result is what the elimination
    gives for columns it had carried along, division by S_prev exact."""
    prev = 1
    for k in range(len(r) - 1, -1, -1):
        pivot, col, top = pivots[k], columns[k], r[k]
        for i in range(k):
            r[i] = [(pivot * x + col[i] * y) // prev
                    for x, y in zip(r[i], top)]
        prev = pivot


def _first_step_rows(p: np.ndarray, keep):
    """``_first_step`` in integers. Column c of ``b``, times the lcm of
    its denominators, is swept through the finished elimination as ints
    (``_sweep_rows``). Then h_k = (b_k + sum_{j<k} a_kj h_j) / pivot_k reads
    row k alone, whose denominator cancels against the pivot's: h_k =
    (r_k + sum_j rows[k][j] h_j) / S_k, r_k the swept column. Each column of
    h is kept as numerators over one scale."""
    rows, dens = _int_rows(p, keep)
    pivots, columns = _gth_rows(rows)
    if pivots[0] == 0:
        raise ZeroDivisionError("zero GTH pivot at state 0")

    def solve(b):
        b = np.asarray(b, dtype=object)
        rhs = b.reshape(len(keep), -1)
        lcms = [math.lcm(*[v.denominator for v in col]) for col in rhs.T]
        r = [[int(x * lcm) * den for x, lcm in zip(row, lcms)]
             for row, den in zip(rhs, dens)]
        _sweep_rows(r, pivots, columns)
        h = np.empty(rhs.shape, dtype=object)
        for c, lcm in enumerate(lcms):
            nums, scale = [], 1  # h[:, c] * lcm = nums / scale
            for k, row in enumerate(rows):
                top = r[k][c] * scale + sum(
                    v * x for v, x in zip(row[:k], nums))
                nums, scale = _append_scaled(nums, scale, top, pivots[k])
            h[:, c] = [Fraction(x, scale * lcm) for x in nums]
        return h.reshape(b.shape)

    return solve


def _check_dense(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _MAX_DENSE_N:
        raise ValueError(f"dense solve capped at n = {_MAX_DENSE_N}")


def _leader_stationary(p: np.ndarray) -> np.ndarray:
    """Stationary law from the leader-count transition matrix ``p``."""
    # counts n, ..., 0: with the low counts eliminated first, pivots are ~1
    return _stationary(p[::-1, ::-1])[::-1]


def _return_time(p: np.ndarray):
    """E_0[T_0] from the leader-count transition matrix ``p``.

    Row 0 of the chain is row n, so E_0[T_0] = E_n[T_0] (counts n, ..., 1).
    """
    n = p.shape[0] - 1
    return _first_step(p, np.arange(n, 0, -1))(np.ones(n, int))[0]


def bernoulli_stationary(n: int, q, exact: bool = False):
    """Stationary law of the leader-count chain (dense solve, n <= 64)."""
    _check_dense(n)
    nu = _leader_stationary(bernoulli_matrix(n, q, exact))
    return list(nu) if exact else nu


def expected_return_time(n: int, q, exact: bool = False):
    """Expected first return time to count 0, +inf past the float range
    (dense solve, n <= 64)."""
    _check_dense(n)
    return _return_time(bernoulli_matrix(n, q, exact))


def _kac_residual(nu0, ret):
    """|nu(0) E_0[T_0] - 1|, or 0 where both routes put nu(0) below the
    normal floats (E_0[T_0] may read inf), which floats cannot resolve."""
    tiny = np.finfo(float).tiny
    return 0.0 if nu0 < tiny and 1 / ret < tiny else abs(nu0 * ret - 1)


def _gap_routes(n: int, q, exact: bool):
    """nu(0) and E_0[T_0]: one transition matrix, two independent
    eliminations."""
    _check_dense(n)
    p = bernoulli_matrix(n, q, exact)
    return _leader_stationary(p)[0], _return_time(p)


def _bernoulli_gap(n: int, q, exact: bool = False):
    """nu(0), the speed gap 1 - v, cross-checked against the return time."""
    nu0, ret = _gap_routes(n, q, exact)
    resid = _kac_residual(nu0, ret)
    if not resid <= 1e-10:
        raise RuntimeError(
            f"stationary and return-time routes disagree by {resid:g} "
            f"(relative) at n={n}, q={q}; use exact mode")
    return nu0


def bernoulli_speed(n: int, q, exact: bool = False):
    """Exact front speed 1 - nu(0), cross-checked against the return time."""
    return 1 - _bernoulli_gap(n, q, exact)


def bernoulli_chain_sim(n: int, q, steps: int, rng: np.random.Generator,
                        n_batches: int = _SIM_BATCHES) -> SpeedEstimate:
    """Simulated chain speed: fraction of steps whose new count is >= 1.

    An inverse-CDF walk (``_walk``) from count n on the rows that
    ``bernoulli_speed`` solves: each uniform moves to the count
    ``bisect_right`` finds on the current row's cumulative masses. Chains
    past ``_MAX_STATES`` counts are refused before anything is allocated.
    """
    q = parse_q(q)
    _check_batches(n_batches, steps)
    if n < 1:
        raise ValueError("need n >= 1")
    if n + 1 > _MAX_STATES:
        raise RuntimeError(f"leader-count chain exceeds {_MAX_STATES} "
                           f"states, the walk's bound")
    cdf = np.cumsum(bernoulli_matrix(n, q), axis=1)
    cdf[:, -1] = 1.0
    return _walk_means(cdf, steps, rng, n_batches)


# ---------------------------------------------------------------------------
# hitting-time decomposition


@dataclass(frozen=True)
class HittingReport:
    n: int
    q: float
    prob_bottom_first: float        # P_N(T_0 < T_N)
    mean_time_bottom_first: float   # E_N(T_0 | T_0 < T_N)
    mean_time_top_first: float      # E_N(T_N | T_N < T_0)
    mean_time_bottom: float         # E_N(T_0)
    identity_residual: float
    prob_bottom_at_1: float
    prob_bottom_at_2: float
    closed_form_at_1: float
    closed_form_at_2: float
    ratio_to_gap_asymptotic: float       # P(T_0 < T_N) / (q^{N^2} 2^N)
    two_step_ratio_to_gap: float         # P(T_0 = 2 < T_N) / (q^{N^2} 2^N)
    exact: bool


def hitting_analysis(n: int, q, exact: bool = False) -> HittingReport:
    """First-step analysis of the race between counts 0 and N, from N.

    Solves the absorbing systems for the probability of reaching 0 before
    returning to N, the conditional mean hitting times, and the unconditional
    mean time to 0, then checks the decomposition
    E_N[T_0] = ((1-P)/P) E_N(T_N | T_N < T_0) + E_N(T_0 | T_0 < T_N)
    and the closed forms for P(T_0 = 1 < T_N) and P(T_0 = 2 < T_N).

    Both P and its two-step term are asymptotic to the gap scale
    q^{N^2} 2^N, but the full P gets there very slowly (its ratio still
    exceeds 5 at N = 6, q = 0.6, decaying only past N ~ 30); the two-step
    ratio is already within 50% by N = 4. Both ratios are reported.

    Float mode raises ArithmeticError once P or the gap scale falls below
    the normal floats (P reads 0 from N = 20 at q = 0.1), where the
    conditional means, the identity and the ratios lose all precision.
    Exact mode still resolves them there; only the reported P-sized
    probabilities read 0 and E_N[T_0] reads inf.
    """
    if not 2 <= n <= _MAX_HITTING_N:
        raise ValueError(f"hitting analysis supports 2 <= n <= {_MAX_HITTING_N}")
    qv = parse_q(q, exact)
    p = bernoulli_matrix(n, qv, exact)
    # races from the interior to 0 and to n, a column each: u holds their
    # chances, w their time-weighted masses, w = u + P[int, int] w; both
    # are solved on one elimination of the interior
    interior = np.arange(n - 1, 0, -1)
    solve = _first_step(p, interior)
    u = solve(p[np.ix_(interior, [0, n])])
    w = solve(u)
    row, ends = p[n, interior], p[n, [0, n]]
    races = ends + row @ u
    prob, prob_top = races
    gap = qv ** (n * n) * 2 ** n
    if not exact and not min(prob, gap) >= np.finfo(float).tiny:
        raise ArithmeticError(
            f"P_N(T_0 < T_N) = {prob:g} or the gap scale q^(N^2) 2^N = "
            f"{gap:g} is below the normal floats at n={n}, q={q}; use exact "
            f"arithmetic (--mode precise)")
    mean_bottom_first, mean_top_first = (ends + row @ (u + w)) / races
    mean_bottom = _return_time(p)
    prob2 = row @ p[interior, 0]

    identity = mean_bottom - ((1 - prob) / prob * mean_top_first
                              + mean_bottom_first)
    closed1 = qv ** (n * n)
    closed2 = qv ** (n * n) * ((2 - qv ** n) ** n - 1 - (1 - qv ** n) ** n)
    return HittingReport(
        n=n, q=float(qv),
        prob_bottom_first=float(prob),
        mean_time_bottom_first=float(mean_bottom_first),
        mean_time_top_first=float(mean_top_first),
        # E_N[T_0] ~ 1/P leaves the float range where P leaves it at the
        # other end; it reads inf, as in expected_return_time
        mean_time_bottom=(math.inf if mean_bottom > np.finfo(float).max
                          else float(mean_bottom)),
        identity_residual=float(abs(identity)),
        prob_bottom_at_1=float(p[n, 0]),
        prob_bottom_at_2=float(prob2),
        closed_form_at_1=float(closed1),
        closed_form_at_2=float(closed2),
        ratio_to_gap_asymptotic=float(prob / gap),
        two_step_ratio_to_gap=float(prob2 / gap),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# depth-count chain for general bounded integer jumps


def lattice_s(counts, law: LatticeLaw) -> tuple[np.ndarray, np.ndarray]:
    """Landing-class law of one offspring given the current depth counts.

    ``counts[w]`` particles sit at depth w - (W-1) behind the leader (the top
    slot, depth 0, must be occupied), over W >= span + 1 slots. Returns
    ``(offsets, probs)`` where ``offsets`` runs over the displacement
    classes law.bottom, ..., law.top relative to the current leader (the
    leader is a parent, so no offspring lands lower). The cumulative
    products telescope, so probs sums to 1 exactly up to rounding. The
    products are those of ``_class_laws``, on a table of the counts that
    occur, so one state gives the bits of a batch holding it.
    """
    counts = np.asarray(counts)
    w = counts.size
    if w <= law.top - law.bottom:
        raise ValueError(f"need span + 1 depth slots, got {w}")
    if counts[-1] < 1:
        raise ValueError("top slot (the leader) must be occupied")
    used, rank = np.unique(counts, return_inverse=True)
    return (np.arange(law.bottom, law.top + 1),
            _class_laws(_power_table(law, w, used.tolist()),
                        rank.reshape(1, w))[0])


def _power_table(law: LatticeLaw, slots: int, exponents) -> np.ndarray:
    """The (slots, exponents, classes) table of F(offset - depth)^c for
    every depth slot, count c in ``exponents`` and landing class offset
    (law.bottom, ..., law.top). Each distinct F value is raised once per
    count by scalar ``np.power``, as in ``bernoulli_matrix``: numpy's
    vectorized pow can differ from it by an ulp, depending on array layout
    and SIMD target."""
    offsets = np.arange(law.bottom, law.top + 1)
    base = law.cdf_int(offsets[None, :] - np.arange(1 - slots, 1)[:, None])
    values, where = np.unique(base.ravel(), return_inverse=True)
    powers = np.array([[np.power(v, c) for v in values.tolist()]
                       for c in exponents])
    return np.ascontiguousarray(
        powers[:, where.reshape(base.shape)].transpose(1, 0, 2))


def _class_laws(table: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Landing-class laws of the (states, slots) ``counts``, one row a
    state, given as positions among the ``_power_table``'s exponents: each
    class's cumulative law is the product of its table entries in slot
    order (a count of 0 gives a factor 1, exactly), then differenced."""
    cum = table[0, counts[:, 0]]
    for j in range(1, counts.shape[1]):
        cum *= table[j, counts[:, j]]
    s = cum.copy()
    s[:, 1:] -= cum[:, :-1]
    if s.min() < -1e-9:
        raise RuntimeError(f"class probabilities lost mass: min {s.min():g}")
    np.clip(s, 0.0, None, out=s)
    return s


def _recenter(offsets, splits, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold rows of realized class counts into depth states.

    ``splits`` is (m, k) over the classes ``offsets``, which span at most
    ``window`` - 1; returns the (m, window) states and the (m,) leader
    displacements phi, each row's last occupied class. Classes above phi
    are empty and fold onto the leader's slot.
    """
    m, k = splits.shape
    lead = k - 1 - np.argmax(splits[:, ::-1] > 0, axis=1)
    phi = offsets[lead]
    slots = np.minimum(offsets[None, :] - phi[:, None], 0) + window - 1
    slots += window * np.arange(m)[:, None]
    states = np.bincount(slots.ravel(), weights=splits.ravel(),
                         minlength=m * window)  # integer sums, exact
    return states.astype(np.int64).reshape(m, window), phi


def lattice_step(counts, law: LatticeLaw,
                 rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One multinomial transition; returns (new counts, displacement)."""
    counts = np.asarray(counts)
    offsets, s = lattice_s(counts, law)
    draw = rng.multinomial(int(counts.sum()), s / s.sum())
    states, phi = _recenter(offsets, draw[None, :], counts.size)
    return states[0], int(phi[0])


@dataclass(frozen=True)
class LatticeSpeedReport:
    value: float
    window: int                # depth slots, span + 1
    n_states: int
    boundary_mass: float       # always 0.0: no depth is lumped
    ladder: np.ndarray         # stationary P(step displacement <= top - j)
    ladder_bounds: np.ndarray  # provable caps F(top - j)^N
    truncated: bool            # always False

    def __eq__(self, other):
        # the generated __eq__ compares field tuples, which is ambiguous
        # for the array fields
        if not isinstance(other, LatticeSpeedReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name),
                                  getattr(other, f.name))
                   for f in fields(self))


def _compositions(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-tuples of nonnegative ints summing to n, in lexicographic order,
    as an (m, k) array, with their multinomial coefficients as floats.

    Stars and bars: the k - 1 bar positions among n + k - 1 slots run
    through ``itertools.combinations`` in lexicographic order, which is the
    lexicographic order of the part sizes between them.
    """
    m = math.comb(n + k - 1, k - 1)
    edges = np.empty((m, k + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:k] = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + k - 1), k - 1)),
        dtype=np.int64, count=m * (k - 1)).reshape(m, k - 1)
    edges[:, k] = n + k - 1
    comps = np.diff(edges, axis=1) - 1
    # exact integer n! / prod c!, int64 while n! fits, Python ints beyond
    fact = np.array([math.factorial(i) for i in range(n + 1)],
                    dtype=np.int64 if math.factorial(n) < 2 ** 63 else object)
    coeff = np.full(len(comps), fact[n], dtype=fact.dtype)
    for j in range(k):
        coeff //= fact[comps[:, j]]
    return comps, coeff.astype(float)


class _Chain(NamedTuple):
    """A depth chain enumerated by ``_lattice_chain``."""
    states: list           # depth-count tuples, in BFS order
    source: np.ndarray     # the transition rows' entries: from state
    target: np.ndarray     # source[e] to state target[e]
    mass: np.ndarray       # with probability mass[e], once per pair
    cums: np.ndarray       # (states, classes) cumulative class laws


def _lattice_chain(law: LatticeLaw, n: int, max_states: int) -> _Chain:
    """BFS the reachable depth states from all-at-leader; sparse rows.

    ``cums[i]`` is the cumulative landing-class law from state i (so
    ``cums[i][r]^n`` is the chance the step displacement stays <= class r).

    A state's successors are the compositions of n over its occupied
    landing classes, recentered. Landing classes lie in [law.bottom,
    law.top] (the leader is a parent), so few class sets occur: each is
    recentered and grouped by target once, in arrays. The states go one
    BFS level at a time: one ``_class_laws`` call gives the level's class
    laws, and the level's states are grouped by class set. A group's
    masses are one gather per class into a (states, compositions) block,
    multiplied in the order of a scalar multinomial pmf (coefficient, then
    each class's power in class order) from scalar powers; one
    ``bincount`` sums each target's masses in composition order. So rows
    are bit-identical to a per-composition loop. A level's new class sets
    are met in state order and number new states in order of first
    appearance, as a state-by-state BFS does. Blocks hold at most
    ``_CHAIN_BLOCK`` entries.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    window = law.top - law.bottom + 1
    offsets = np.arange(law.bottom, law.top + 1)
    table = _power_table(law, window, range(n + 1))
    start = np.zeros(window, dtype=np.int64)
    start[-1] = n
    keys = [start.tobytes()]   # the states' bytes, in BFS order
    index = {keys[0]: 0}
    source, target, mass, cums = [], [], [], []
    # per class count k: the compositions of n into k parts, coefficients;
    # per class set: its classes, those, the successor columns and each
    # composition's position among them
    compositions, layouts = {}, {}
    lo = 0
    while lo < len(keys):
        hi = len(keys)
        counts = np.frombuffer(b"".join(keys[lo:hi]), dtype=np.int64)
        s = _class_laws(table, counts.reshape(hi - lo, window))
        cums.append(np.cumsum(s, axis=1))
        occupied = s > 0
        groups = {}
        for i, classes in enumerate(
                occupied.view(f"V{offsets.size}").ravel().tolist()):
            groups.setdefault(classes, []).append(i)
        for classes, members in groups.items():
            if classes not in layouts:
                support = np.flatnonzero(occupied[members[0]])
                k = len(support)
                if k not in compositions:
                    compositions[k] = _compositions(n, k)
                comps, coeff = compositions[k]
                targets, _ = _recenter(offsets[support], comps, window)
                arriving = targets.view(f"V{8 * window}").ravel().tolist()
                found = dict.fromkeys(arriving)  # by first appearance
                for key in found:
                    j = index.get(key)
                    if j is None:
                        if len(keys) >= max_states:
                            raise RuntimeError(
                                f"depth state space exceeds {max_states} "
                                f"states, the dense stationary solve's "
                                f"bound")
                        j = index[key] = len(keys)
                        keys.append(key)
                    found[key] = j
                rank = {key: i for i, key in enumerate(found)}
                position = np.fromiter(map(rank.__getitem__, arriving),
                                       dtype=np.intp, count=len(arriving))
                cols = np.fromiter(found.values(), dtype=np.intp,
                                   count=len(found))
                layouts[classes] = (support, comps.T.copy(), coeff, cols,
                                    position)
            support, parts, coeff, cols, position = layouts[classes]
            step = max(1, _CHAIN_BLOCK // coeff.size)
            for first in range(0, len(members), step):
                batch = np.array(members[first:first + step])
                g = batch.size
                # p ** c by scalar pow: numpy's vectorized pow can differ
                # by an ulp
                powers = np.array([
                    p ** c for p in s[batch][:, support].T.ravel().tolist()
                    for c in range(n + 1)]).reshape(len(support), g, n + 1)
                block = coeff * powers[0].take(parts[0], axis=1)
                for j in range(1, len(support)):
                    block *= powers[j].take(parts[j], axis=1)
                sums = np.bincount(
                    (position + cols.size * np.arange(g)[:, None]).ravel(),
                    weights=block.ravel(), minlength=g * cols.size)
                source.append(np.repeat(batch + lo, cols.size))
                target.append(np.tile(cols, g))
                mass.append(sums)
        lo = hi
    states = np.frombuffer(b"".join(keys), dtype=np.int64)
    return _Chain(list(map(tuple, states.reshape(-1, window).tolist())),
                  np.concatenate(source), np.concatenate(target),
                  np.concatenate(mass), np.concatenate(cums))


def lattice_speed(law: LatticeLaw, n: int,
                  window: int = 16) -> LatticeSpeedReport:
    """Exact front speed for a bounded integer jump law.

    Enumerates the reachable depth states on span + 1 slots, solves the
    stationary law, and reports the speed as the stationary mean of the
    per-step leader displacement. ``window`` is not read: the slots follow
    from the law, and any value but 16 warns.
    """
    if window != 16:
        warnings.warn("lattice_speed: window is ignored; the depth chain "
                      "runs on span + 1 slots, derived from the law",
                      DeprecationWarning, stacklevel=2)
    chain = _lattice_chain(law, n, _MAX_STATES)
    size = len(chain.states)
    p = np.zeros((size, size))
    p[chain.source, chain.target] = chain.mass
    nu = _stationary(p)

    # P(step displacement <= class r | state) = cum_r^n, so the speed is
    # top - sum over classes below top of the stationary dive probabilities
    dive = nu @ chain.cums ** n        # indexed by class, bottom..top
    value = law.top - float(dive[:-1].sum())
    ladder = dive[-2::-1]              # P_nu(phi <= top - j), j = 1..span
    span = ladder.size
    return LatticeSpeedReport(
        value=value, window=span + 1, n_states=size, boundary_mass=0.0,
        ladder=ladder,
        ladder_bounds=law.cdf_int(law.top - np.arange(1, span + 1)) ** n,
        truncated=False)


def lattice_chain_sim(law: LatticeLaw, n: int, steps: int,
                      rng: np.random.Generator,
                      n_batches: int = _SIM_BATCHES) -> SpeedEstimate:
    """Simulated speed of ``lattice_speed``'s chain: batch means of the
    max front's increments over a run of the particle system itself.

    ``engine.estimate_speed`` from all n particles at 0, with no burn-in:
    the chain's start state, all-at-leader. The run shares nothing with
    the enumerated chain, so it checks the exact solve; it needs
    ``steps`` >= 100.
    """
    return estimate_speed(law, n, t_burn=0, t_run=steps, rng=rng,
                          n_batches=n_batches)


def _walk_means(cdf: np.ndarray, steps, rng, n_batches) -> SpeedEstimate:
    """Batch means of the walk's leader moves, count >= 1. Each block's
    moves are summed per batch as the walk goes: only the batch edges are
    kept, exact sums."""
    length = steps // n_batches
    sums = np.zeros(n_batches, dtype=np.int64)
    start = 0
    for counts in _walk(cdf, steps, rng):
        # the steps past the last whole batch are walked, not counted
        part = counts[:max(length * n_batches - start, 0)] != 0
        if part.size:
            batch = np.arange(start // length,
                              (start + part.size - 1) // length + 1)
            sums[batch] += np.add.reduceat(
                part, np.maximum(batch * length - start, 0), dtype=np.int64)
        start += counts.size
    return _edge_means(np.concatenate(([0], np.cumsum(sums))), length)


def _sim_chunk_length(cuts: int, b: int) -> int:
    """Chunk length L of the walk's scan over b steps on ``cuts`` merged
    thresholds: ~sqrt(b/32), 1 above ``_SIM_SCAN_MAX_CUTS``. The scan makes
    about 2L numpy passes over the c = b // L chunks and c lookups in
    Python; its time was flat for L from sqrt(b/8) to sqrt(b/64)."""
    return max(1, math.isqrt(b // 32)) if cuts <= _SIM_SCAN_MAX_CUTS else 1


def _step_maps(cuts: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The (bins, counts) table of the step maps. A uniform u < 1 has bin
    b = #{cuts <= u}, and each row's entries compare with every u of one bin
    alike, so from count m it goes to count #{row-m entries <= cuts[b - 1]}
    (0 in bin 0), ``bisect_right``'s index as the rows rise to 1."""
    table = np.zeros((cuts.size + 1, len(cdf)), dtype=np.intp)
    for m, row in enumerate(cdf):
        table[1:, m] = np.count_nonzero(row <= cuts[:, None], axis=1)
    return table


def _scan_walk(cuts: np.ndarray, table: np.ndarray, m: int, u: np.ndarray,
               chunk: int, out: np.ndarray) -> int:
    """Walk the c * L uniforms ``u`` from count m as a two-level scan;
    write each step's count to ``out`` and return the last one.

    Each uniform's bin is counted one ``u >= cut`` pass per threshold. Each
    chunk's L-step map comes from L - 1 gathers vectorized over the c
    chunks, their entry counts from c lookups in Python lists, and every
    step from L more gathers. The chunk axis is kept last, so every gather
    runs over contiguous rows of length c.
    """
    size = table.shape[1]
    table = table.ravel()
    c = u.size // chunk
    bins = np.zeros(u.size, np.min_scalar_type(cuts.size))
    for cut in cuts:
        bins += u >= cut
    # chunk-major: base[j, k] is where the map of step k * L + j starts in
    # the flat table
    base = np.ascontiguousarray(bins.reshape(c, chunk).T, dtype=np.intp)
    base *= size
    # ends[s, k]: the count after chunk k's steps so far, from count s
    ends = table.take(base[0] + np.arange(size)[:, None])
    for j in range(1, chunk):
        ends += base[j]
        ends = table.take(ends)
    ends = ends.T.tolist()
    entry = [0] * c
    for k in range(c):
        entry[k] = m
        m = ends[k][m]
    x = np.array(entry)
    rows = out.reshape(c, chunk)
    for j in range(chunk):
        x = table.take(base[j] + x)
        rows[:, j] = x
    return m


def _walk(cdf: np.ndarray, steps: int, rng: np.random.Generator):
    """``steps`` inverse-CDF steps from count n on the leader-count chain
    whose cumulative rows (the last entry of each set to 1) are ``cdf``;
    yields each block's counts.

    A step draws one uniform u and goes to the count ``bisect_right(cdf[m],
    u)`` from count m. Uniforms come in blocks of ``_SIM_BLOCK``, whose
    draws concatenate. A step is a map on the counts, fixed by the bin of u
    among the merged thresholds, and maps compose, so the first c * L steps
    of a block run as a scan (``_scan_walk``), the rest as the bisect loop,
    bit for bit.
    """
    # the merged thresholds, counted only until the walk cannot scan
    cuts = set()
    for row in cdf:
        cuts.update(row[row < 1.0].tolist())
        if len(cuts) > _SIM_SCAN_MAX_CUTS:
            break
    cuts = np.array(sorted(cuts))
    # the first block is the largest: if any block scans, it does
    if _sim_chunk_length(cuts.size, min(steps, _SIM_BLOCK)) > 1:
        table = _step_maps(cuts, cdf)
    # the bisect loop's rows, made on a count's first visit: a walk visits
    # few of a large chain's counts
    rows = [None] * len(cdf)

    def visit(m):
        rows[m] = cdf[m].tolist()
        return rows[m]

    m = len(cdf) - 1
    for start in range(0, steps, _SIM_BLOCK):
        u = rng.random(min(_SIM_BLOCK, steps - start))
        out = np.empty(u.size, dtype=np.min_scalar_type(len(cdf) - 1))
        chunk = _sim_chunk_length(cuts.size, u.size)
        done = u.size - u.size % chunk if chunk > 1 else 0
        if done:
            m = _scan_walk(cuts, table, m, u[:done], chunk, out[:done])
        out[done:] = [m := bisect.bisect_right(rows[m] or visit(m), v)
                      for v in u[done:].tolist()]
        yield out


# ---------------------------------------------------------------------------
# two-sided speed bounds for general bounded laws


@dataclass(frozen=True)
class SandwichBounds:
    lower: float
    upper: float
    eps: float
    coarse_law: LatticeLaw
    stretched_law: LatticeLaw


def sandwich_bounds(law: LatticeLaw, n: int,
                    eps: float = 0.1) -> SandwichBounds:
    """Exact speed bounds from the two-sided discretization of ``law``.

    ``law`` must be in normal form: top atom at 0, remaining support at or
    below -1. Coarsening every value <= -1 to -1 dominates the law from
    above; pinning each value v < 0 to (1+eps) floor(v/(1+eps)) dominates
    from below. Both auxiliary speeds are exact chain solves bracketing the
    true speed.
    """
    if law.top != 0:
        raise ValueError("law must be in normal form (top atom at 0)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    p_top = law.prob_of(0)
    if not 0 < p_top < 1:
        raise ValueError("top atom must have mass in (0, 1)")

    coarse = LatticeLaw(top=0, atoms=((0, p_top), (-1, 1.0 - p_top)))
    upper = lattice_speed(coarse, n).value

    squeezed: dict[int, float] = {}
    for v, p in law.atoms:
        if p == 0.0:
            continue
        site = 0 if v == 0 else math.floor(v / (1.0 + eps))
        squeezed[site] = squeezed.get(site, 0.0) + p
    stretched = LatticeLaw(top=0, atoms=tuple(sorted(squeezed.items())))
    lower = (1.0 + eps) * lattice_speed(stretched, n).value
    return SandwichBounds(lower=lower, upper=upper, eps=eps,
                          coarse_law=coarse, stretched_law=stretched)
