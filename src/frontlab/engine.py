"""Max-plus particle dynamics and front-speed estimation.

The system keeps N particles on the line; one step replaces every position by
X_i' = max_j (X_j + xi_{ij}) with an i.i.d. noise matrix xi, the max-plus
product X(t) = A_t (x) X(t-1). Front location is any shift-covariant monotone
functional of the configuration. Two speed estimators are provided: plain
batch means over a long run, and a regenerative (renewal-block) estimator
based on steps whose noise matrix lets the current leader's column dominate
every row.

Runs draw their noise in blocks. Max-plus products are associative, so at
small N a block of full steps runs as a recursive chunked scan (chunk
products vectorized over the chunks, the chunk starts by the same scan on
the chunk products, then the chunk rows filled in together) instead of one
Python-level step per row; integer laws draw that noise as integers, so the
scan's sums are exact.
At small N a reduction over the particles of a block (fronts, row maxima
and minima, renewal screens, leaders) combines the N columns with one ufunc
pass each, in place of numpy's row-by-row reduce, and gives numpy's result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise
from .noise import (GumbelLaw, LatticeLaw, BernoulliLaw, NoiseLaw,
                    _draw_units, _gumbel_from_uniform)

__all__ = [
    "FrontFunctional",
    "MAX_FRONT",
    "MIN_FRONT",
    "lse_front",
    "order_front",
    "log_sum_exp",
    "ParticleState",
    "initial_state",
    "step_with_noise",
    "step_gumbel_exact",
    "step_conditional",
    "advance",
    "is_renewal",
    "SpeedEstimate",
    "default_burn_in",
    "batch_means",
    "estimate_speed",
    "renewal_speed",
    "run_trajectory",
]

# Up to this many columns a reduction over the particle axis runs as one
# ufunc pass per column: numpy reduces a short last axis row by row, and
# x.max(axis=1) over 12 800 rows of 2 took 640 us against 10 us for
# np.maximum of the two columns (2-core x86 box, numpy 2.4.6). Below 8
# elements numpy's pairwise sum adds in order from 0.0, so the column passes
# give its sums bit for bit.
_COLUMN_MAX_N = 7


def _over_particles(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` for ``ufunc`` one of np.maximum,
    np.minimum, np.add and np.logical_and.

    Up to ``_COLUMN_MAX_N`` columns it is one ``ufunc`` pass per
    column, in column order, the sum starting from 0.0 as numpy's does, so
    each row combines its elements in numpy's order and the result is
    numpy's bit for bit. numpy itself leaves one case open: where a maximum
    or minimum is a tie of 0.0 and -0.0, its reduce returns either zero,
    by the SIMD loop it dispatches to and the memory layout.
    """
    n = x.shape[-1]
    if n > _COLUMN_MAX_N:
        return ufunc.reduce(x, axis=-1)
    acc = x[..., 0].copy()  # an array, 0-d for a single row
    if ufunc is np.add:
        acc += 0.0
    for j in range(1, n):
        ufunc(acc, x[..., j], out=acc)
    return acc[()]  # a scalar for a single row, as reduce returns


def _leaders(rows: np.ndarray) -> np.ndarray:
    """``rows.argmax(axis=-1)``: up to ``_COLUMN_MAX_N`` columns the
    first column that equals the row's maximum, or is NaN."""
    n = rows.shape[-1]
    if n > _COLUMN_MAX_N:
        return rows.argmax(axis=-1)
    top = _over_particles(np.maximum, rows)
    lead = np.full(top.shape, n - 1, dtype=np.intp)
    for j in range(n - 2, -1, -1):
        col = rows[..., j]
        np.copyto(lead, j, where=(col == top) | np.isnan(col))
    return lead[()]


def _log_sum_exps(rows: np.ndarray, rate: float,
                  tmp: np.ndarray | None = None) -> np.ndarray:
    """Stable m + ln(sum e^{rate (x - m)}) / rate over the last axis of
    ``rows``, m the max, through the scratch ``tmp`` of ``rows.size`` floats
    or more (a new buffer if None): frontlab's one log-sum-exp."""
    m = _over_particles(np.maximum, rows)
    buf = (np.empty(rows.shape) if tmp is None
           else tmp[:rows.size].reshape(rows.shape))
    np.subtract(rows, m[..., None], out=buf)
    buf *= rate
    return m + np.log(_over_particles(np.add, np.exp(buf, out=buf))) / rate


def log_sum_exp(positions: np.ndarray, rate: float = 1.0) -> float:
    """Stable m + ln(sum e^{rate (x_i - m)}) / rate, m = max(x)."""
    return float(_log_sum_exps(positions[None], rate)[0])


@dataclass(frozen=True)
class FrontFunctional:
    """Shift-covariant monotone summary of a configuration.

    kind: "max", "min", "lse" (param = rate), or "order" (param = rank,
    1 = rightmost particle, N = leftmost).
    """

    kind: str
    param: float | int | None = None

    def __post_init__(self):
        if self.kind not in ("max", "min", "lse", "order"):
            raise ValueError(f"unknown front functional {self.kind!r}")
        if self.kind == "lse" and not (
                self.param is not None and 0.0 < self.param < math.inf):
            raise ValueError(f"lse front needs a finite rate > 0, got "
                             f"{self.param!r}")
        if self.kind == "order" and not (
                self.param is not None and float(self.param).is_integer()
                and self.param >= 1):
            raise ValueError(f"order front needs an integer rank >= 1, got "
                             f"{self.param!r}")

    def __call__(self, positions: np.ndarray) -> float:
        return float(self.rows(positions[None])[0])

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The front of each row of a (T, N) block of configurations, bit
        for bit ``self(row)`` row by row."""
        if self.kind == "max":
            return _over_particles(np.maximum, positions)
        if self.kind == "min":
            return _over_particles(np.minimum, positions)
        if self.kind == "lse":
            return _log_sum_exps(positions, self.param)
        rank = int(self.param)
        if rank > positions.shape[1]:
            raise ValueError(f"rank {rank} exceeds N={positions.shape[1]}")
        return np.partition(positions, -rank, axis=1)[:, -rank]


MAX_FRONT = FrontFunctional("max")
MIN_FRONT = FrontFunctional("min")


def lse_front(rate: float = 1.0) -> FrontFunctional:
    return FrontFunctional("lse", float(rate))


def order_front(rank: int) -> FrontFunctional:
    return FrontFunctional("order", rank)


@dataclass(frozen=True)
class ParticleState:
    positions: np.ndarray
    t: int = 0
    prev_front: float = math.nan  # front of X(t-1) under the run's functional


def initial_state(n: int, positions=None) -> ParticleState:
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    if positions is None:
        positions = np.zeros(n)
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (n,):
        raise ValueError(f"expected {n} positions, got shape {positions.shape}")
    return ParticleState(positions=positions, t=0)


def step_with_noise(positions: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One max-plus update with an explicit (N, N) noise matrix."""
    return (positions[None, :] + noise).max(axis=1)


def is_renewal(noise: np.ndarray, leader: int | np.ndarray = 0
               ) -> bool | np.ndarray:
    """True when the leader's column attains the max of every row.

    Ties count as attainment, so discrete noise renews at least as often as
    continuous noise (probability exactly N^-N there). An (N, N) matrix gives
    a ``bool``; stacked (b, N, N) noise with (b,) leaders gives a bool array
    with one entry per matrix.
    """
    stacked = np.ndim(noise) == 3
    if not stacked:
        noise = noise[None]
    lead = noise[np.arange(noise.shape[0]), :, leader]
    hit = _over_particles(np.logical_and,
                          lead >= _over_particles(np.maximum, noise))
    return hit if stacked else bool(hit[0])


def step_gumbel_exact(state: ParticleState, law: GumbelLaw,
                      rng: np.random.Generator) -> ParticleState:
    """Theta(N) step, exact in law for Gumbel noise.

    Given X(t-1), the new positions are i.i.d. Gumbel shifted by the
    log-sum-exp front at the noise rate; prev_front is that front value.
    """
    phi = log_sum_exp(state.positions, law.rate)
    fresh = law.sample(rng, state.positions.size)
    return ParticleState(positions=phi + fresh, t=state.t + 1, prev_front=phi)


# source binning and evaluation grid step of step_conditional
_GRID_STEP = 2e-3


def step_conditional(state: ParticleState, law: NoiseLaw,
                     rng: np.random.Generator) -> ParticleState:
    """Theta(N log N) step for continuous laws, exact up to O(_GRID_STEP).

    Given X(t-1) the new positions are conditionally i.i.d. with log-CDF
    L(x) = sum_j ln F(x - X_j). The sources are binned on a uniform grid, L is
    a convolution of the bin counts with the tabulated noise log-CDF, and the
    draws come from inverse transform on the tabulated L. Discrete laws are
    rejected (interpolation would smear their atoms). prev_front is the
    log-sum-exp of X(t-1) at the law's rate (1 for laws without one).
    """
    if isinstance(law, (LatticeLaw, BernoulliLaw)):
        raise TypeError("step_conditional needs a continuous noise law")
    pos = state.positions
    n = pos.size
    lo, hi = float(pos.min()), float(pos.max())

    nb = int(math.ceil((hi - lo) / _GRID_STEP)) + 1
    counts = np.bincount(
        np.clip(((pos - lo) / _GRID_STEP).astype(np.int64), 0, nb - 1),
        minlength=nb).astype(float)

    # expand the evaluation window until the conditional CDF covers
    # [e^-60, 1 - 1e-12]; the end values are summed directly, in O(N),
    # because the FFT's round-off (~1e-6) would swamp the 1e-12 test. The
    # right pad counts from the log-sum-exp of the sources, where the CDF's
    # upper tail sits; counted from their max it would straddle a doubling
    # as max - lse varies from one configuration to the next.
    top = log_sum_exp(pos, getattr(law, "rate", 1.0))
    pad_left, pad_right = 8.0, 16.0
    for _ in range(30):
        k = int(math.ceil((top - lo + pad_left + pad_right) / _GRID_STEP)) + 1
        x0 = lo - pad_left
        ends = np.array([[x0], [x0 + (k - 1) * _GRID_STEP]])
        left, right = law.log_cdf(ends - pos).sum(axis=1)
        if right < -1e-12:
            pad_right *= 2.0
        elif left > -60.0:
            pad_left *= 2.0
        else:
            break
    else:
        raise RuntimeError("conditional CDF window failed to converge")

    offsets = (x0 - lo) + np.arange(-(nb - 1), k) * _GRID_STEP
    # Every term of L is <= 0, so flooring the tabulated log-CDF at -60
    # leaves L unchanged wherever L > -60, the only part that is kept; it
    # stops terms near -1e10 from far sources filling the FFT's round-off.
    # The circular convolution has length >= offsets.size: what wraps
    # around lands below index nb - 1, outside the kept slice.
    size = 1 << (offsets.size - 1).bit_length()
    spec = (np.fft.rfft(counts, size)
            * np.fft.rfft(np.maximum(law.log_cdf(offsets), -60.0), size))
    lcdf = np.fft.irfft(spec, size)[nb - 1:nb - 1 + k]
    grid = x0 + np.arange(k) * _GRID_STEP
    lcdf = np.maximum.accumulate(lcdf)  # fft fuzz can break monotonicity
    keep = (lcdf > -60.0) & (lcdf < -1e-14)
    draws = np.interp(np.log(rng.random(n)), lcdf[keep], grid[keep])
    return ParticleState(positions=draws, t=state.t + 1, prev_front=top)


def advance(state: ParticleState, law: NoiseLaw, rng: np.random.Generator,
            steps: int, front: FrontFunctional | None = None
            ) -> ParticleState:
    """Take ``steps`` steps with the kernel :func:`_position_blocks` picks.

    prev_front is ``front`` of X(t-1); the default is the log-sum-exp front
    at the law's rate (1 for laws without one).
    """
    if steps <= 0:
        return state
    if front is None:
        front = lse_front(getattr(law, "rate", 1.0))
    prev, pos = _last_two(law, steps, rng, state.positions)
    return ParticleState(positions=pos.copy(), t=state.t + steps,
                         prev_front=front(prev))


def _last_two(law: NoiseLaw, steps: int, rng: np.random.Generator,
              positions: np.ndarray):
    """X(steps - 1) and X(steps) from X(0) = ``positions``, steps >= 1."""
    prev = pos = positions
    for block in _position_blocks(law, steps, rng, positions):
        prev = block[-2] if block.shape[0] > 1 else pos
        pos = block[-1]
    return prev, pos


# ---------------------------------------------------------------------------
# speed estimation


@dataclass(frozen=True)
class SpeedEstimate:
    value: float
    std_err: float
    sigma2: float       # CLT variance of one front increment
    n_blocks: int
    method: str = "batch_means"


def default_burn_in(n: int) -> int:
    # 10x the worst-case expected renewal wait N^N, capped
    return min(10 * n ** n, 10_000)


def _check_batches(n_batches: int, steps: int) -> None:
    """A batch-means run needs two batches at least, and a step for each."""
    if not 2 <= n_batches <= steps:
        raise ValueError(f"need 2 <= n_batches <= steps, got n_batches = "
                         f"{n_batches} for {steps} steps")


def batch_means(path: np.ndarray, n_batches: int) -> SpeedEstimate:
    """Batch-means speed of a cumulative path (start, then after each step),
    read at the edges of n_batches equal batches (``_edge_means``)."""
    length = (path.size - 1) // n_batches
    return _edge_means(path[:length * n_batches + 1:length], length)


def _edge_means(edges: np.ndarray, length: int) -> SpeedEstimate:
    """Batch-means speed from a cumulative path's batch edges, ``length``
    steps apart: value is the mean increment over the batches, std_err the
    batch-means standard error and sigma2 the per-step CLT variance."""
    n_batches = edges.size - 1
    means = np.diff(edges) / length
    return SpeedEstimate(
        value=float((edges[-1] - edges[0]) / (length * n_batches)),
        std_err=float(np.std(means, ddof=1) / math.sqrt(n_batches)),
        sigma2=float(length * np.var(means, ddof=1)),
        n_blocks=n_batches, method="batch_means")


# One block of pre-drawn noise, with its scan temporaries, holds at most
# noise._BLOCK_ELEMENTS elements. Above N = _SCAN_MAX_N the per-step loop
# takes the full step. On a 2-core x86 box with numpy 2.4.6 the loop took
# 5-6 us a step at N = 12, the two-level scan 4 us (even at N = 14), and the
# recursive scan 2.7 us on float noise and 1.4 us on int16 noise.
_SCAN_MAX_N = 12
# Above this N continuous laws other than the Gumbel take step_conditional:
# sandwiched +-0.3, ms a step full vs conditional, 2.7 vs 5.7 at N = 256,
# 6.0 vs 5.7 at 384, 8.1 vs 4.3 at 512 (same box)
_FULL_MAX_N = 384
# renewal_speed gives up after this many steps
_STEP_BUDGET = 10_000_000


def _chunk_length(n: int, b: int) -> int:
    """Chunk length L of the scan over b steps: ~sqrt(b/2), 1 above N = 12."""
    return max(1, math.isqrt(b // 2)) if n <= _SCAN_MAX_N else 1


def _full_step_elements(n: int, b: int) -> int:
    """Elements a block of b full steps holds at once, at most.

    The (b, N, N) noise, and for L > 1 its chunk-major copy and the
    (N, N, N, c) temporary of the chunk products, c = b // L; then the same
    two for the scan of the c - 1 chunk products, and so on down the
    recursion of :func:`_full_steps`.
    """
    used = b * n * n
    chunk = _chunk_length(n, b)
    while chunk > 1:
        c = b // chunk
        used += b * n * n + n ** 3 * c
        b = c - 1
        chunk = _chunk_length(n, b)
    return used


def _full_block(n: int, steps: int) -> int:
    """Steps per block of full steps: up to ``steps``, within the bound."""
    bound = noise._BLOCK_ELEMENTS
    b = max(1, min(steps, bound // (n * n)))
    used = _full_step_elements(n, b)
    while b > 1 and used > bound:
        # used / b falls as b grows, so scaling b by bound / used leaves it
        # at or above the size that fits: the loop closes in from above
        b = max(1, min(b - 1, b * bound // used))
        used = _full_step_elements(n, b)
    return b


def _noise_blocks(draw, steps: int, block: int):
    """Yield ``draw(b)`` for block lengths b <= block that add up to
    ``steps``."""
    done = 0
    while done < steps:
        b = min(block, steps - done)
        yield draw(b)
        done += b


def _full_noise(law: NoiseLaw, rng: np.random.Generator, b: int,
                n: int) -> np.ndarray:
    """A (b, N, N) noise block for :func:`_full_steps`.

    At N <= _SCAN_MAX_N an integer law draws it in the narrowest signed
    integer type that holds a sum of b draws (``noise._sum_type``), so the
    scan's products are exact integer sums, in int16 for a block of 10^4
    Bernoulli or three-atom steps. Above it the per-step loop adds the noise
    to float positions, and float noise is the faster there: the loop took
    6-13% more a step on int16 noise at N = 64 and 256 (2-core x86 box,
    numpy 2.4.6). Either way the draws and the stream are those of
    ``law.sample``.
    """
    if n <= _SCAN_MAX_N and isinstance(law, (BernoulliLaw, LatticeLaw)):
        return law.sample(rng, (b, n, n), dtype=noise._sum_type(law, b))
    return law.sample(rng, (b, n, n))


def _full_steps(positions: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """(b, N) positions after each step of a pre-drawn (b, N, N) noise block.

    Row t is A_t (x) X(t-1), as :func:`step_with_noise` gives it. Max-plus
    products are associative, so the block runs as a recursive scan with
    chunk length L = :func:`_chunk_length`: the L-step product of each of the
    c = b // L chunks comes from L - 1 max-plus products vectorized over the
    chunks; the chunk starts are this scan again, run on the first c - 1
    chunk products from the same start; and L steps vectorized over the
    chunks fill in every row. The b mod L steps after the last chunk take
    one call each. The chunk axis is kept last, so every op runs over
    contiguous rows of length c. Where L = 1 (short blocks, and N > 12) this
    is the per-step loop, which ends the recursion. Integer noise (see
    :func:`_full_noise`) gives the loop's positions bit for bit, since its
    sums are exact; continuous noise differs only by re-associated sums.
    """
    b, n, _ = noise.shape
    chunk = _chunk_length(n, b)
    out = np.empty((b, n))
    done = 0
    if chunk > 1:
        c = b // chunk
        done = c * chunk
        # chunk-major copy: a[j, :, :, k] is the noise of step k * L + j
        a = np.ascontiguousarray(
            noise[:done].reshape(c, chunk, n, n).transpose(1, 2, 3, 0))
        prod = a[0]
        for j in range(1, chunk):
            prod = (a[j][:, :, None, :] + prod[None]).max(axis=1)
        x = np.empty((n, c))
        x[:, 0] = positions
        x[:, 1:] = _full_steps(positions, prod[..., :-1].transpose(2, 0, 1)).T
        rows = out[:done].reshape(c, chunk, n)
        for j in range(chunk):
            x = (a[j] + x[None]).max(axis=1)
            rows[:, j] = x.T
        positions = x[:, -1]
    for t in range(done, b):
        out[t] = positions = step_with_noise(positions, noise[t])
    return out


def _gumbel_block(n: int, steps: int) -> int:
    """Rows per block of the exact Gumbel kernel over ``steps`` steps: as
    many as a draw unit of ``noise._UNIT_ELEMENTS`` floats holds."""
    return max(1, min(steps, noise._UNIT_ELEMENTS // n))


def _gumbel_rows(fresh: np.ndarray, start: np.ndarray, rate: float,
                 tmp: np.ndarray) -> None:
    """One block of the exact Gumbel kernel for R replicas, in place.

    ``fresh`` is (R, b, N): replica r's fresh Gumbel draws G_1, ..., G_b
    at noise rate ``rate``, and ``start[r]`` the log-sum-exp Phi_0 of its
    positions before the block. Row s becomes its positions Phi_{s-1} + G_s,
    with Phi_s = Phi_{s-1} + Phi(G_s) by one cumsum over the block, Phi the
    log-sum-exp at ``rate``. ``tmp`` is scratch of R (b - 1) N floats or
    more.
    """
    offsets = np.zeros(fresh.shape[:2])
    np.cumsum(_log_sum_exps(fresh[:, :-1], rate, tmp), axis=1,
              out=offsets[:, 1:])
    offsets += start[:, None]
    fresh += offsets[..., None]


def _position_blocks(law: NoiseLaw, steps: int, rng: np.random.Generator,
                     positions: np.ndarray):
    """Yield (b, N) blocks of the positions after each of ``steps`` steps.

    The one place a step kernel is chosen. Gumbel noise takes the exact
    kernel: given X(t-1) the new positions are Phi(X(t-1)) + G_t, G_t fresh
    i.i.d. draws and Phi the log-sum-exp at the noise rate. A block starts
    from Phi of the last positions and goes on by one cumsum, as Phi_t =
    Phi_{t-1} + Phi(G_t); one-row blocks are the :func:`step_gumbel_exact`
    ladder. Integer laws, and other laws at N <= _FULL_MAX_N, take the full
    O(N^2) step (:func:`_full_steps`); other laws :func:`step_conditional`.
    """
    n = positions.size
    if isinstance(law, GumbelLaw):
        block = _gumbel_block(n, steps)
        tmp = np.empty(max(block - 1, 1) * n)
        for fresh in _noise_blocks(lambda b: law.sample(rng, (b, n)), steps,
                                   block):
            start = _log_sum_exps(positions[None], law.rate, tmp)
            _gumbel_rows(fresh[None], start, law.rate, tmp)
            positions = fresh[-1]
            yield fresh
        return
    if n > _FULL_MAX_N and not isinstance(law, (BernoulliLaw, LatticeLaw)):
        state = ParticleState(positions)
        for _ in range(steps):
            state = step_conditional(state, law, rng)
            yield state.positions[None]
        return
    for noise in _noise_blocks(lambda b: _full_noise(law, rng, b, n), steps,
                               _full_block(n, steps)):
        block = _full_steps(positions, noise)
        positions = block[-1]
        yield block


def _replica_runs(law: NoiseLaw, n: int, steps: int, replicas: int,
                  rng: np.random.Generator, reduce,
                  rate: float | None = None) -> None:
    """Run ``replicas`` systems of N particles from the all-zero start for
    ``steps`` >= 1 steps each, drawing from ``rng`` in replica order.

    Calls ``reduce(i, last, fronts)`` on consecutive replicas i, i + 1, ...,
    i + R - 1 until all are done: ``last`` is their (R, N) positions X(steps),
    scratch that ``reduce`` may overwrite, and ``fronts`` the log-sum-exp at
    ``rate`` of each one's X(steps - 1), or None when ``rate`` is None.
    Everything is bit for bit what one :func:`_position_blocks` run per
    replica gives, and ``rng`` ends in the same state.

    Gumbel noise runs on the draw pipeline of :func:`noise._draw_units` when
    a replica's steps N floats fit in ``noise._BLOCK_ELEMENTS``: a unit is
    one replica, or as many as fit in ``noise._UNIT_ELEMENTS`` floats (each
    one block), and it runs the blocks of :func:`_gumbel_rows` vectorized
    over its replicas, on up to two threads.
    So ``reduce`` may run on a helper thread, on its own replicas, and must
    call no public frontlab function. Other laws, and larger Gumbel
    replicas, run one replica after another on the calling thread.
    """
    if not (isinstance(law, GumbelLaw)
            and steps * n <= noise._BLOCK_ELEMENTS):
        zeros = np.zeros(n)
        for r in range(replicas):
            prev, last = _last_two(law, steps, rng, zeros)
            reduce(r, last[None],
                   None if rate is None else _log_sum_exps(prev[None], rate))
        return
    block = _gumbel_block(n, steps)
    start = log_sum_exp(np.zeros(n), law.rate)  # ln N / rate, once

    def run(i, x, tmp):
        _gumbel_from_uniform(x, law.loc, law.rate)
        phi = np.full(x.shape[0], start)
        for j in range(0, steps, block):
            if j:
                phi = _log_sum_exps(x[:, j - 1], law.rate, tmp)
            _gumbel_rows(x[:, j:j + block], phi, law.rate, tmp)
        fronts = None
        if rate is not None:
            prev = x[:, -2] if steps > 1 else np.zeros((x.shape[0], n))
            fronts = _log_sum_exps(prev, rate, tmp)
        reduce(i, x[:, -1], fronts)

    _draw_units(rng, replicas, (steps, n), run,
                scratch=max(block - 1, 1) * n)


def estimate_speed(law: NoiseLaw, n: int, front: FrontFunctional = MAX_FRONT,
                   t_burn: int | None = None, t_run: int = 2000,
                   rng: np.random.Generator | None = None,
                   n_batches: int = 32) -> SpeedEstimate:
    """Batch-means speed estimate over a single long run.

    The run starts from all N particles at 0 and steps through the kernels
    :func:`_position_blocks` picks, exact in law except for the conditional
    step's grid. Burn-in defaults to :func:`default_burn_in`. The run is cut
    into ``n_batches`` equal batches of front increments; the reported
    sigma2 is the batch-means estimate of the per-step CLT variance and
    std_err is the usual batch-means standard error of the mean increment.
    Only the fronts at the batch edges are taken, so a run holds one block
    of positions at a time, however long it is.
    """
    if rng is None:
        rng = np.random.default_rng()
    if t_run < 100:
        raise ValueError(f"t_run must be >= 100, got {t_run}")
    _check_batches(n_batches, t_run)
    if t_burn is None:
        t_burn = default_burn_in(n)
    if t_burn < 0:
        raise ValueError(f"t_burn must be >= 0, got {t_burn}")
    pos = initial_state(n).positions
    if t_burn:
        # a copy, so that the burn-in's last block is not kept alive
        pos = _last_two(law, t_burn, rng, pos)[1].copy()
    length = t_run // n_batches
    edges, done = [[front(pos)]], 0
    for block in _position_blocks(law, t_run, rng, pos):
        # the block's rows after steps k * length, up to the last whole
        # batch: the steps past it are run, not counted, as in batch_means
        at = np.arange(length - 1 - done % length,
                       min(block.shape[0], length * n_batches - done), length)
        edges.append(front.rows(block[at]))
        done += block.shape[0]
    return _edge_means(np.concatenate(edges), length)


def renewal_speed(law: NoiseLaw, n: int, front: FrontFunctional = MAX_FRONT,
                  n_renewals: int = 200,
                  rng: np.random.Generator | None = None) -> SpeedEstimate:
    """Regenerative speed estimate from renewal blocks.

    The run starts from all N particles at 0. A renewal is a step whose
    noise lets the current leader's column attain every row max; the
    segment before the first renewal is discarded and the (displacement,
    duration) block pairs give the ratio estimator with a delta-method
    standard error. Noise is drawn in (b, N, N) blocks, each
    sized to the expected wait of the renewals still needed (N^N steps
    each, at least 64) and capped by the remaining budget and the block
    bound; a block's positions come from the chunked full step, its
    renewals are screened at once, and fronts are taken only at renewal
    steps. Aborts once ``_STEP_BUDGET`` steps pass without collecting
    ``n_renewals`` blocks (the waiting time can be as bad as N^N).
    """
    if rng is None:
        rng = np.random.default_rng()
    if n_renewals < 10:
        raise ValueError("need at least 10 renewal blocks")
    pos = initial_state(n).positions

    marks, mark_steps = [], []     # front and step count at each renewal
    found = 0
    steps = 0
    while found <= n_renewals:
        if steps >= _STEP_BUDGET:
            raise RuntimeError(
                f"renewal budget exhausted: {max(found - 1, 0)} blocks in "
                f"{steps} steps (worst-case expected wait is N^N = {n ** n})")
        wait = max(64, (n_renewals + 1 - found) * n ** n)
        b = min(_STEP_BUDGET - steps, _full_block(n, wait))
        noise = _full_noise(law, rng, b, n)
        block = _full_steps(pos, noise)
        leaders = _leaders(np.vstack((pos, block[:-1])))
        hits = np.flatnonzero(is_renewal(noise, leaders))
        marks.append(front.rows(block[hits]))
        mark_steps.append(steps + 1 + hits)
        found += hits.size
        steps += b
        pos = block[-1]

    f = np.concatenate(marks)[:n_renewals + 1]
    d = np.diff(f)
    ell = np.diff(np.concatenate(mark_steps)[:n_renewals + 1]).astype(float)
    v_hat = d.sum() / ell.sum()
    resid = d - v_hat * ell
    se = float(np.std(resid, ddof=1) / (ell.mean() * math.sqrt(len(d))))
    sigma2 = float(np.var(resid, ddof=1) / ell.mean())
    return SpeedEstimate(value=float(v_hat), std_err=se, sigma2=sigma2,
                         n_blocks=len(d), method="regenerative")


def run_trajectory(law: NoiseLaw, n: int, t: int,
                   rng: np.random.Generator | None = None,
                   front: FrontFunctional = MAX_FRONT) -> np.ndarray:
    """Dynamics for t steps; rows (t, phi, max, min, gap) incl. t=0.

    The run starts from all N particles at 0 and steps through the kernels
    :func:`_position_blocks` picks.
    """
    if t < 0:
        raise ValueError(f"need t >= 0 steps, got {t}")
    if rng is None:
        rng = np.random.default_rng()
    pos = initial_state(n).positions
    rows = np.empty((t + 1, 5))
    rows[0] = (0, front(pos), pos.max(), pos.min(), pos.max() - pos.min())
    i = 1
    for block in _position_blocks(law, t, rng, pos):
        hi = _over_particles(np.maximum, block)
        lo = _over_particles(np.minimum, block)
        rows[i:i + block.shape[0]] = np.column_stack(
            (np.arange(i, i + block.shape[0]), front.rows(block), hi, lo,
             hi - lo))
        i += block.shape[0]
    return rows
