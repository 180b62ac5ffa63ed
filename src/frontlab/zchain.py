"""Exact leader-count chains for bounded integer jumps.

With 0/1 jumps, the number of particles sitting at the running maximum is a
Markov chain on {0, ..., N}: from count m the next count is Binomial(N,
1 - q^m) (exponent N when m = 0, everyone having collapsed onto the old
leader). Its stationary law gives the front speed exactly, and hitting-time
decompositions between the full state N and the empty state 0 expose the
doubly exponential finite-N speed correction q^{N^2} 2^N. The chain
simulation is an inverse-CDF walk on the same float transition rows that the
exact solves use: one uniform per step, bisected on the cumulative row of the
current count.

General bounded integer jumps are handled by the depth-count chain: the state
counts particles at depths 0, -1, ..., -(W-1) behind the current leader
(depth 0 always occupied, depths below the window lumped into the bottom
slot). One offspring lands at displacement r relative to the old leader with
probability s_r = prod_w F(r - d_w)^{c_w} - prod_w F(r - 1 - d_w)^{c_w}
(d_w = source depths), the N offspring counts are multinomial over the
classes, and the state recenters on the realized maximum. Speeds come from
the stationary mean of the per-step leader displacement.

The reachable depth states are enumerated on arrays: the compositions of N
into k landing classes are built once per k, every composition is recentered
and grouped by target once per set of landing classes (the leader is a
parent, so classes lie in [bottom, top] and few sets occur), and each state
then only forms its multinomial masses in one vector pass. The rows are
bit-identical to a per-composition scalar loop. The chain simulation draws
the same multinomials as a ``lattice_step`` loop but keeps, per visited
state, the landing-class law and the successor of each realized draw.

Stationary laws, return times and hitting analyses all come from one
Grassmann-Taksar-Heyman elimination, which never subtracts: float results are
relatively accurate to the ends of the float range (nu(0) ~ q^{N^2} 2^N reads
0 below ~1e-308, E_0[T_0] reads inf). ``exact`` only picks the arithmetic:
the same code runs on Fractions (exact with respect to the binary inputs).
"""
from __future__ import annotations

import bisect
import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import SpeedEstimate, _check_batches, batch_means
from .noise import LatticeLaw

__all__ = [
    "bernoulli_matrix",
    "bernoulli_stationary",
    "bernoulli_speed",
    "expected_return_time",
    "kac_residual",
    "HittingReport",
    "hitting_analysis",
    "bernoulli_chain_sim",
    "lattice_s",
    "lattice_step",
    "LatticeSpeedReport",
    "lattice_speed",
    "lattice_chain_sim",
    "gap_speed_prediction",
    "SandwichBounds",
    "sandwich_bounds",
    "parse_q",
]

_MAX_DENSE_N = 64
_MAX_HITTING_N = 32
_SIM_BLOCK = 1 << 12   # uniforms per block draw of the chain simulation
_BOUNDARY_TOL = 1e-12  # largest stationary mass on the lumped bottom slot
_MAX_STATES = 200_000  # largest depth-chain state space lattice_speed builds
_WIDENINGS = 3         # window doublings lattice_speed may take


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
    Entry j is C(n, j) fail^(n-j) succ^j, multiplied in that order from
    scalar powers, with the coefficients from one ``math.comb`` row.
    """
    q = parse_q(q, exact)
    coeff = np.array([math.comb(n, j) for j in range(n + 1)],
                     dtype=object if exact else float)
    p = np.empty((n + 1, n + 1), dtype=coeff.dtype)
    for m in range(n + 1):
        # np.power, not q ** m: numpy's vectorized pow differs from libm by
        # an ulp, and the depth-chain reduction is checked for bit equality
        fail = q ** (m or n) if exact else float(np.power(q, m or n))
        succ = 1 - fail
        p[m] = (coeff * [fail ** (n - j) for j in range(n + 1)]
                * [succ ** j for j in range(n + 1)])
    return p


def _gth(a: np.ndarray, deficit: np.ndarray) -> None:
    """Grassmann-Taksar-Heyman elimination (Oper. Res. 33(5), 1985), in place.

    Censors states n-1, ..., 0. Pivot k is 1 - a_kk formed as a sum, the
    mass ``deficit[k]`` leaving the system plus ``a[k, :k]``, so no step
    subtracts; it goes to ``a[k, k]`` and divides ``a[:k, k]``. A zero pivot
    above state 0 raises ZeroDivisionError.
    """
    for k in range(a.shape[0] - 1, -1, -1):
        a[k, k] = deficit[k] + a[k, :k].sum()
        if k and a[k, k] == 0:
            raise ZeroDivisionError(f"zero GTH pivot at state {k}")
        a[:k, k] /= a[k, k]
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
        deficit[:k] += a[:k, k] * deficit[k]


def _stationary(p: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible chain by GTH elimination, rebuilt
    from state 0. Floats renormalize as they go, so that they cannot
    overflow; Fractions normalize once at the end (their law is unique)."""
    a = p.copy()
    n = a.shape[0]
    _gth(a, np.zeros(n, dtype=a.dtype))
    x = np.zeros(n, dtype=a.dtype)
    x[0] = 1
    exact = a.dtype == object
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
        if not exact:
            x[:k + 1] /= x[:k + 1].sum()
    return x / x.sum() if exact else x


def _first_step(p: np.ndarray, keep, b) -> np.ndarray:
    """Solve h = b + P[keep, keep] h, b >= 0, states outside ``keep``
    absorbing; a first kept state never absorbed reads +inf in float."""
    a = p[np.ix_(keep, keep)]
    _gth(a, np.delete(p[keep], keep, axis=1).sum(axis=1))
    h = np.array(b, dtype=p.dtype)
    for k in range(len(keep) - 1, 0, -1):
        h[:k] += np.multiply.outer(a[:k, k], h[k])
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(len(keep)):
            nz = np.flatnonzero(a[k, :k])  # inf times 0 counts as 0
            h[k] = (h[k] + a[k, nz] @ h[nz]) / a[k, k]
    return h


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
    return _first_step(p, np.arange(n, 0, -1), np.ones(n, int))[0]


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


def kac_residual(n: int, q, exact: bool = False):
    """|nu(0) E_0[T_0] - 1|; identically zero in exact arithmetic."""
    return _kac_residual(*_gap_routes(n, q, exact))


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


def _bernoulli_counts(n: int, q, steps: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Leader counts after each of ``steps`` chain steps from count n.

    Inverse-CDF walk: step t draws one uniform u and moves to the first count
    whose cumulative transition probability exceeds u, bisected on the rows
    of ``bernoulli_matrix``. Uniforms come in blocks of ``_SIM_BLOCK``; block
    draws concatenate, so the counts do not depend on the block length.
    """
    cdf = np.cumsum(bernoulli_matrix(n, q), axis=1)
    cdf[:, -1] = 1.0
    rows = cdf.tolist()
    counts = np.empty(steps, dtype=np.min_scalar_type(n))
    m = n
    for start in range(0, steps, _SIM_BLOCK):
        block = rng.random(min(_SIM_BLOCK, steps - start)).tolist()
        counts[start:start + len(block)] = [
            m := bisect.bisect_right(rows[m], u) for u in block]
    return counts


def bernoulli_chain_sim(n: int, q, steps: int, rng: np.random.Generator,
                        n_batches: int = 32) -> SpeedEstimate:
    """Simulated chain speed: fraction of steps whose new count is >= 1.

    The chain runs as an inverse-CDF walk on the float transition rows that
    ``bernoulli_speed`` solves, one uniform per step (``_bernoulli_counts``).
    """
    _check_batches(n_batches, steps)
    moved = np.zeros(steps + 1)
    moved[1:] = _bernoulli_counts(n, q, steps, rng) >= 1
    return batch_means(np.cumsum(moved), n_batches)


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
    # chances, w their time-weighted masses, w = u + P[int, int] w
    interior = np.arange(n - 1, 0, -1)
    u = _first_step(p, interior, p[np.ix_(interior, [0, n])])
    w = _first_step(p, interior, u)
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
    slot, depth 0, must be occupied). Returns ``(offsets, probs)`` where
    ``offsets`` runs over the displacement classes bottom + 1 - W, ...,
    law.top relative to the current leader; mass below the lowest class is
    lumped into it. The cumulative products telescope, so probs sums to 1
    exactly up to rounding.
    """
    counts = np.asarray(counts)
    w = counts.size
    if counts[-1] < 1:
        raise ValueError("top slot (the leader) must be occupied")
    occ = np.nonzero(counts)[0]
    depths = occ - (w - 1)
    offsets = np.arange(law.bottom - (w - 1), law.top + 1)
    # cum[r] = P(one offspring displaces by <= offsets[r])
    args = offsets[:, None] - depths[None, :]
    cum = np.prod(law.cdf_int(args) ** counts[occ][None, :], axis=1)
    s = np.diff(cum, prepend=0.0)
    if s.min() < -1e-9:
        raise RuntimeError(f"class probabilities lost mass: min {s.min():g}")
    np.clip(s, 0.0, None, out=s)
    return offsets, s


def _recenter(offsets, splits, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold rows of realized class counts into depth states.

    ``splits`` is (m, k) over the classes ``offsets``; returns the (m, window)
    states and the (m,) leader displacements phi, each row's last occupied
    class.
    """
    m, k = splits.shape
    lead = k - 1 - np.argmax(splits[:, ::-1] > 0, axis=1)
    phi = offsets[lead]
    slots = np.clip(offsets[None, :] - phi[:, None], 1 - window, 0) + window - 1
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
    window: int
    n_states: int
    boundary_mass: float
    ladder: np.ndarray         # stationary P(step displacement <= top - j)
    ladder_bounds: np.ndarray  # provable caps F(top - j)^N
    truncated: bool


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


def _lattice_chain(law: LatticeLaw, n: int, window: int, max_states: int):
    """BFS the reachable depth states from all-at-leader; sparse rows.

    Returns (states, rows, cums) where rows[i] maps successor index to
    probability and cums[i] is the cumulative landing-class law from state i
    (so cums[i][r]^n is the chance the step displacement stays <= class r).

    A state's successors are the compositions of n over its occupied landing
    classes, recentered. Landing classes lie in [law.bottom, law.top] (the
    leader is a parent), so few class sets occur: each is recentered and
    grouped by target once, in arrays, and later states with the same set
    only recompute the masses. Masses multiply in the order of a scalar
    multinomial pmf (coefficient, then each class's power in class order),
    from scalar powers, and each target sums its masses in composition
    order, so rows are bit-identical to a per-composition loop. New states
    are numbered in order of first appearance, which keeps the BFS order.
    """
    start = np.zeros(window, dtype=np.int64)
    start[-1] = n
    index = {start.tobytes(): 0}
    states = [tuple(start.tolist())]
    rows = []
    cums = []
    queue = deque([start])
    # per class count k: the compositions of n into k parts, coefficients;
    # per class set: those, the successor columns, and each composition's
    # position among the successors
    compositions, layouts = {}, {}
    while queue:
        offsets, s = lattice_s(queue.popleft(), law)
        cums.append(np.cumsum(s))
        support = np.nonzero(s)[0]
        classes = offsets[support].tobytes()
        if classes not in layouts:
            k = len(support)
            if k not in compositions:
                compositions[k] = _compositions(n, k)
            comps, coeff = compositions[k]
            targets, _ = _recenter(offsets[support], comps, window)
            keys = targets.view(f"V{8 * window}").ravel().tolist()  # row bytes
            found = dict.fromkeys(keys)   # in order of first appearance
            for key in found:
                j = index.get(key)
                if j is None:
                    if len(states) >= max_states:
                        raise RuntimeError(f"windowed state space exceeds "
                                           f"{max_states} states")
                    j = index[key] = len(states)
                    target = np.frombuffer(key, dtype=np.int64)
                    states.append(tuple(target.tolist()))
                    queue.append(target)
                found[key] = j
            rank = {key: i for i, key in enumerate(found)}
            position = np.fromiter(map(rank.__getitem__, keys), dtype=np.intp,
                                   count=len(keys))
            layouts[classes] = (comps, coeff, list(found.values()), position)
        comps, coeff, cols, position = layouts[classes]
        # p ** c by scalar pow: numpy's vectorized pow can differ by an ulp
        powers = np.array([[p ** c for c in range(n + 1)] for p in s[support]])
        mass = coeff.copy()
        for j, column in enumerate(comps.T):
            mass *= powers[j, column]
        sums = np.zeros(len(cols))
        np.add.at(sums, position, mass)
        rows.append(dict(zip(cols, sums.tolist())))
    return states, rows, cums


def lattice_speed(law: LatticeLaw, n: int,
                  window: int = 16) -> LatticeSpeedReport:
    """Exact (windowed) front speed for a bounded integer jump law.

    Enumerates the reachable depth states, solves the stationary law, and
    reports the speed as the stationary mean of the per-step leader
    displacement. The window widens (doubling, up to ``_WIDENINGS`` times)
    while the stationary mass touching the lumped bottom slot exceeds
    ``_BOUNDARY_TOL``; a warning marks reports where it still does.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if window < 2:
        raise ValueError("window must be >= 2")
    for attempt in range(_WIDENINGS + 1):
        states, rows, cums = _lattice_chain(law, n, window, _MAX_STATES)
        size = len(states)
        cols = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp)
        probs = np.fromiter(itertools.chain.from_iterable(
            row.values() for row in rows), dtype=float, count=cols.size)
        p = np.zeros((size, size))
        p[np.repeat(np.arange(size), [len(row) for row in rows]), cols] = probs
        nu = _stationary(p)

        arr = np.array(states)
        boundary = float(nu[arr[:, 0] > 0].sum())
        if boundary <= _BOUNDARY_TOL or attempt == _WIDENINGS:
            break
        window *= 2
    if boundary > _BOUNDARY_TOL:
        warnings.warn(f"boundary mass {boundary:g} above {_BOUNDARY_TOL:g} "
                      f"after widening to window {window}")

    # P(step displacement <= class r | state) = cum_r^n, so the speed is
    # top - sum over classes below top of the stationary dive probabilities
    cum_n = np.array([c ** n for c in cums])
    dive = nu @ cum_n                  # indexed by class, bottom..top
    value = law.top - float(dive[:-1].sum())
    ladder = dive[-2::-1]              # P_nu(phi <= top - j), j = 1, 2, ...
    span = ladder.size
    return LatticeSpeedReport(
        value=value, window=window, n_states=size, boundary_mass=boundary,
        ladder=ladder,
        ladder_bounds=law.cdf_int(law.top - np.arange(1, span + 1)) ** n,
        truncated=boundary > _BOUNDARY_TOL)


def lattice_chain_sim(law: LatticeLaw, n: int, steps: int,
                      rng: np.random.Generator, window: int = 16,
                      n_batches: int = 32) -> SpeedEstimate:
    """Simulated depth-chain speed: batch means of leader displacements.

    Draws the same multinomials as a ``lattice_step`` loop, but keeps each
    visited state's landing-class law, and each realized draw's successor
    and displacement, for the rest of the run: the chain keeps revisiting a
    few states.
    """
    _check_batches(n_batches, steps)
    state = np.zeros(window, dtype=np.int64)
    state[-1] = n
    state = state.tobytes()
    laws = {}   # state -> (class offsets, class law, {draw: (state, phi)})
    moves = np.zeros(steps + 1)
    for t in range(steps):
        visit = laws.get(state)
        if visit is None:
            offsets, s = lattice_s(np.frombuffer(state, np.int64), law)
            visit = laws[state] = (offsets, s / s.sum(), {})
        offsets, probs, hops = visit
        draw = rng.multinomial(n, probs)
        hop = hops.get(draw.tobytes())
        if hop is None:
            targets, phi = _recenter(offsets, draw[None, :], window)
            hop = hops[draw.tobytes()] = (targets[0].tobytes(), float(phi[0]))
        state, moves[t + 1] = hop
    return batch_means(np.cumsum(moves), n_batches)


# ---------------------------------------------------------------------------
# two-sided speed bounds for general bounded laws


def gap_speed_prediction(a: float, b: float, p: float, n: int) -> float:
    """Predicted speed a - (a - b) (1-p)^(N^2) 2^N for a law with top atom a
    (mass p) and the rest of its support at or below b < a."""
    if not a > b:
        raise ValueError("need a > b")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if n < 1:
        raise ValueError("need n >= 1")
    return a - (a - b) * (1.0 - p) ** (n * n) * 2.0 ** n


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
