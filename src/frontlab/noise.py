"""Noise laws driving the max-plus particle dynamics.

Every law exposes i.i.d. sampling, a vectorized log-CDF, and the Gumbel
comparison index eps(x) = 1 + e^x * ln P(xi <= x), which measures how far the
law sits from a unit-rate Gumbel (eps identically 0). Laws serialize to small
JSON dicts so experiment configs are self-contained and reproducible.
"""
from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseLaw",
    "GumbelLaw",
    "BernoulliLaw",
    "LatticeLaw",
    "SandwichedGumbelLaw",
    "SandwichReport",
    "check_sandwich",
    "shift_bounds_for_delta",
    "to_json",
    "from_json",
]

# SandwichedGumbelLaw.log_cdf leaves the E1 difference for the asymptotic
# tail of ln E1(z_lo) above this z_lo: E1 itself keeps its relative accuracy
# until e^{-z} turns subnormal near z = 708, and at z = 500 the tail's
# 1 - 1/z + 2/z^2 - 6/z^3 is off by ~4e-10 absolute, out of |ln F| ~ 506.
_EXP1_ASYMPTOTIC = 500.0
_EXP_CLAMP = 690.0
# E1 is the power series up to x = 1 (Abramowitz & Stegun 5.1.11) and the
# even continued fraction above it (A&S 5.1.22). The series' first dropped
# term, 1/(19 * 19!) at x = 1, is 2e-18 of E1(1). The fraction converges
# slowest at the switch: at x = 1, 20, 40, 60 and 80 terms leave 2.4e-7,
# 1.8e-10, 6.6e-13 and 5.8e-15, and 100 terms reach the float64 round-off.
# Moving the switch up to 1.5 or 2 costs the series digits (1.1e-14,
# 4.2e-12 relative, against mpmath).
_E1_SWITCH = 1.0
_E1_SERIES = tuple(1.0 / (k * math.factorial(k)) for k in range(1, 19))
_E1_FRACTION_TERMS = 100
_EULER_GAMMA = float(np.euler_gamma)
# smallest exponential draw: -ln(1 - u) is 0 only at u = 0, which is read as
# the middle of its cell [0, 2^-53)
_EXP_FLOOR = 2.0 ** -54


def _exponential_from_uniform(u: np.ndarray) -> np.ndarray:
    """Map float64 uniforms on [0, 1) in place to Exp(1) draws.

    E = max(-log1p(-u), 2^-54), elementwise through numpy's vectorized log1p,
    so E is finite and positive and ln E and 1/E never overflow. Returns u.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return np.maximum(u, _EXP_FLOOR, out=u)


def _gumbel_from_uniform(u: np.ndarray, loc: float, rate: float
                         ) -> np.ndarray:
    """Map float64 uniforms in place to Gumbel(loc, 1/rate) draws,
    loc - ln(E)/rate with E from :func:`_exponential_from_uniform`."""
    g = _exponential_from_uniform(u)
    np.log(g, out=g)
    np.divide(g, -rate, out=g)
    g += loc
    return g


def _exp1_series(x):
    """-gamma - ln x - sum_k (-x)^k / (k k!) for x in (0, 1], by Horner.

    x is a float or an array; on an array the augmented operations run in
    place, on a float they are plain float arithmetic.
    """
    y = -x
    s = _E1_SERIES[-1] * y
    for c in _E1_SERIES[-2::-1]:
        s += c
        s *= y
    s += _EULER_GAMMA
    s += np.log(x)
    return -s


def _exp1_fraction(x: np.ndarray) -> np.ndarray:
    """e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...))) for an array of x > 1,
    evaluated backward from a fixed depth, in place."""
    t = x + (2 * _E1_FRACTION_TERMS + 1)
    for k in range(_E1_FRACTION_TERMS, 0, -1):
        np.divide(-k * k, t, out=t)
        t += x
        t += 2 * k - 1
    return np.divide(np.exp(-x), t, out=t)


def _exp1(x):
    """Exponential integral E1(x) = integral_x^inf e^{-t} / t dt, for x > 0.

    Relative error within a few float64 round-offs while e^{-x} is a
    normal float (x < 708), and 0 once it underflows (x >= 746). A float
    or 0-d x gives a numpy float, an array an array of its shape. A scalar
    in the series range runs on floats, so a single b_N costs microseconds,
    not a hundred array passes; an array runs each branch only when it
    holds elements for it.
    """
    if np.ndim(x) == 0 and x <= _E1_SWITCH:
        return _exp1_series(float(x))
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x <= _E1_SWITCH
    if low.any():
        out[low] = _exp1_series(x[low])
    high = ~low
    if high.any():
        out[high] = _exp1_fraction(x[high])
    return out[()]


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


# Floats a draw unit, or a block of the exact Gumbel kernel, holds (whole
# rows, one at least): 2^16 float64s, 512 KiB, stay in cache through the
# in-place passes; at N = 10^5, t = 3, whole-run blocks were ~10% slower.
_UNIT_ELEMENTS = 1 << 16
# Floats a chunked temporary (a block of full steps and its scan, a slice of
# an outer product) holds at most
_BLOCK_ELEMENTS = 4_000_000


def _draw_units(rng: np.random.Generator, count: int, shape: tuple,
                finish, scratch: int = 0) -> None:
    """Draw ``count`` rows of ``shape`` uniforms in order, a unit at a time.

    A row is ``shape``'s floats, and a unit holds max(1, _UNIT_ELEMENTS //
    row) rows (the last may hold fewer). A worker claims the next unit and
    fills its own reused buffer with uniforms while holding a lock, so
    ``rng`` is read unit by unit in order, as one
    ``rng.random((count, *shape))`` would read it. Outside the lock it calls
    ``finish(i, x, tmp)``: ``x`` is the buffer holding rows i, i + 1, ... of
    the unit, and ``tmp`` the worker's own reused scratch of ``scratch``
    floats for each row a unit holds. With two units or more and two CPUs
    or more, a second worker runs on a thread that lives only for the call:
    numpy's passes release the GIL, so one unit's ``finish`` overlaps the
    next unit's draw. ``finish`` must then be safe to run on that thread: it
    writes only what belongs to its rows, and calls no public frontlab
    function, whose tracing wrappers keep one call stack. If a worker
    raises, the other stops before its next unit and the first exception
    is re-raised.
    """
    per_unit = max(1, _UNIT_ELEMENTS // math.prod(shape))
    starts = iter(range(0, count, per_unit))
    lock = threading.Lock()
    errors = []

    def work():
        rows = min(per_unit, count)
        buf = np.empty((rows, *shape))
        tmp = np.empty(rows * scratch)
        try:
            while True:
                with lock:
                    i = None if errors else next(starts, None)
                    if i is None:
                        return
                    x = buf[:min(per_unit, count - i)]
                    rng.random(out=x)
                finish(i, x, tmp)
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)

    helper = None
    if count > per_unit and _cpus() > 1:
        helper = threading.Thread(target=work, name="frontlab-draws")
        helper.start()
    work()
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]


class NoiseLaw:
    """Interface shared by all jump laws."""

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        raise NotImplementedError

    def log_cdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def epsilon(self, x) -> np.ndarray:
        """Gumbel comparison index 1 + e^x ln P(xi <= x)."""
        x = np.asarray(x, dtype=float)
        return 1.0 + np.exp(x) * self.log_cdf(x)


@dataclass(frozen=True)
class GumbelLaw(NoiseLaw):
    """Gumbel law with CDF exp(-e^{-rate (x - loc)})."""

    loc: float = 0.0
    rate: float = 1.0

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive, got {self.rate}")
        if not math.isfinite(self.loc):
            raise ValueError(f"loc must be finite, got {self.loc}")

    def sample(self, rng, size=None):
        # loc - ln(E) / rate with E ~ Exp(1), one uniform per element, so a
        # block draws the same as its rows in order
        g = _gumbel_from_uniform(np.asarray(rng.random(size)), self.loc,
                                 self.rate)
        return float(g) if size is None else g

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.exp(-self.rate * (x - self.loc))


@dataclass(frozen=True)
class BernoulliLaw(NoiseLaw):
    """Jump of 1 with probability p, else 0."""

    p: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")

    def sample(self, rng, size=None):
        return (rng.random(size) < self.p).astype(float)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[x < 1.0] = math.log1p(-self.p)
        out[x < 0.0] = -np.inf
        return out


@dataclass(frozen=True)
class LatticeLaw(NoiseLaw):
    """Integer-valued jump law with finite support and top atom at ``top``.

    ``atoms`` maps value -> probability, values <= top, probabilities summing
    to 1.
    """

    top: int
    atoms: tuple[tuple[int, float], ...]
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = sorted((int(v), float(p)) for v, p in self.atoms)
        if len(pairs) != len({v for v, _ in pairs}):
            raise ValueError("duplicate lattice values")
        if any(p < 0.0 for _, p in pairs):
            raise ValueError("negative probability")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        vmax = max(v for v, p in pairs if p > 0.0)
        if vmax != self.top:
            raise ValueError(f"top atom is {vmax}, declared top {self.top}")
        object.__setattr__(self, "atoms", tuple(pairs))
        object.__setattr__(self, "_values", np.array([v for v, _ in pairs]))
        cum = np.cumsum([p for _, p in pairs])
        cum[-1] = 1.0
        object.__setattr__(self, "_cum", cum)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def probs(self) -> np.ndarray:
        return np.diff(self._cum, prepend=0.0)

    @property
    def bottom(self) -> int:
        return int(self._values[0])

    def prob_of(self, value: int) -> float:
        i = np.searchsorted(self._values, value)
        if i < len(self._values) and self._values[i] == value:
            return float(self.probs[i])
        return 0.0

    def cdf_int(self, i) -> np.ndarray:
        """P(xi <= i) for integer (array) i."""
        i = np.asarray(i)
        idx = np.searchsorted(self._values, i, side="right")
        return np.concatenate(([0.0], self._cum))[idx]

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self._values[np.searchsorted(self._cum, u)].astype(float)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(self.cdf_int(np.floor(x).astype(int)))


@dataclass(frozen=True)
class SandwichedGumbelLaw(NoiseLaw):
    """Unit-rate Gumbel plus an independent shift W uniform on [lo, hi].

    An interval narrower than 1e-8, lo == hi included, is the unit-rate
    Gumbel shifted by its midpoint.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("shift bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got ({self.lo}, {self.hi})")

    def _is_point(self) -> bool:
        # widths below ~1e-8 would cancel in the E1 difference anyway
        return (self.hi - self.lo) < 1e-8

    def sample(self, rng, size=None):
        if self._is_point():
            return GumbelLaw(loc=0.5 * (self.lo + self.hi)).sample(rng, size)
        # one uniform pair per element: a block draws the same as its rows
        u = rng.random(2 if size is None else (*np.atleast_1d(size), 2))
        e = _exponential_from_uniform(u[..., 0])
        return self.lo + (self.hi - self.lo) * u[..., 1] - np.log(e)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self._is_point():
            return -np.exp(-(x - 0.5 * (self.lo + self.hi)))
        # F(x) = (E1(e^{lo-x}) - E1(e^{hi-x})) / (hi - lo)
        w = self.hi - self.lo
        z_lo = np.exp(np.minimum(self.lo - x, _EXP_CLAMP))
        z_hi = np.exp(np.minimum(self.hi - x, _EXP_CLAMP))
        out = np.empty_like(z_lo)

        tiny = z_hi < 1e-6
        big = ~tiny & (z_lo > _EXP1_ASYMPTOTIC)
        mid = ~tiny & ~big

        # E1(a) - E1(b) = ln(b/a) - (b - a) + (b^2 - a^2)/4 + O(z^3)
        a, b = z_lo[tiny], z_hi[tiny]
        out[tiny] = np.log1p((-(b - a) + (b * b - a * a) / 4.0) / w)

        # below z = e^-690, E1(z) = -gamma - ln z to round-off, and ln z =
        # lo - x stays exact where z itself underflows
        a, b, ln_a = z_lo[mid], z_hi[mid], (self.lo - x)[mid]
        far = ln_a < -_EXP_CLAMP
        e_lo = _exp1(np.where(far, 1.0, a))
        e_lo[far] = -_EULER_GAMMA - ln_a[far]
        out[mid] = np.log(e_lo - _exp1(b)) - math.log(w)

        # the e^{hi-x} term is smaller by e^{-(e^{w}-1) z} and drops out
        z = z_lo[big]
        corr = ((-6.0 / z + 2.0) / z - 1.0) / z  # 3-term asymptotic series
        out[big] = -z - np.log(z) + np.log1p(corr) - math.log(w)
        return out


# ---------------------------------------------------------------------------
# sandwich diagnostics


@dataclass(frozen=True)
class SandwichReport:
    eps_inf: float
    eps_sup: float
    delta_max: float
    satisfied: bool
    first_exit: float  # nan when satisfied

    def shift_bounds(self) -> tuple[float, float]:
        return shift_bounds_for_delta(self.delta_max)


def shift_bounds_for_delta(delta: float) -> tuple[float, float]:
    """Shift interval [ln delta, ln(1 + 1/delta)] matching a band parameter."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return math.log(delta), math.log1p(1.0 / delta)


def check_sandwich(law: NoiseLaw, grid=None) -> SandwichReport:
    """Test whether eps(x) stays inside some band [-1/delta, 1 - delta].

    A law passes iff eps is bounded below and bounded away from 1 above on
    the grid; delta_max is the largest admissible band parameter. The first
    grid point violating the band (eps >= 1 or eps = -inf) is reported for
    failing laws.
    """
    if grid is None:
        grid = np.linspace(-20.0, 30.0, 2001)
    grid = np.asarray(grid, dtype=float)
    eps = law.epsilon(grid)
    eps_inf = float(np.min(eps))
    eps_sup = float(np.max(eps))
    bad = (eps >= 1.0) | ~np.isfinite(eps)
    if np.any(bad):
        return SandwichReport(eps_inf, eps_sup, 0.0, False,
                              float(grid[np.argmax(bad)]))
    delta_max = 1.0 - eps_sup
    if eps_inf < 0.0:
        delta_max = min(delta_max, -1.0 / eps_inf)
    return SandwichReport(eps_inf, eps_sup, float(delta_max), True, math.nan)


# ---------------------------------------------------------------------------
# JSON serialization


def to_json(law: NoiseLaw) -> str:
    if isinstance(law, GumbelLaw):
        d = {"type": "gumbel", "a": law.loc, "lambda": law.rate}
    elif isinstance(law, BernoulliLaw):
        d = {"type": "bernoulli", "p": law.p}
    elif isinstance(law, LatticeLaw):
        d = {"type": "lattice", "k": law.top,
             "probs": [[v, p] for v, p in reversed(law.atoms)]}
    elif isinstance(law, SandwichedGumbelLaw):
        d = {"type": "sandwiched_gumbel", "c": law.lo, "d": law.hi}
    else:
        raise TypeError(f"cannot serialize {type(law).__name__}")
    return json.dumps(d)


def from_json(text) -> NoiseLaw:
    """Parse a law from a JSON string or an already-decoded dict.

    A field the law does not take is refused, not ignored.
    """
    d = json.loads(text) if isinstance(text, (str, bytes)) else dict(text)
    try:
        kind = d.pop("type")
    except KeyError:
        raise ValueError("noise spec missing 'type'") from None
    try:
        if kind == "gumbel":
            law = GumbelLaw(loc=float(d.pop("a", 0.0)),
                            rate=float(d.pop("lambda", 1.0)))
        elif kind == "bernoulli":
            law = BernoulliLaw(p=float(d.pop("p")))
        elif kind == "lattice":
            atoms = tuple((int(v), float(p)) for v, p in d.pop("probs"))
            law = LatticeLaw(top=int(d.pop("k")), atoms=atoms)
        elif kind == "sandwiched_gumbel":
            law = SandwichedGumbelLaw(lo=float(d.pop("c")),
                                      hi=float(d.pop("d")))
        else:
            raise ValueError(f"unknown noise type {kind!r}")
    except KeyError as e:
        raise ValueError(f"noise spec missing field {e}") from None
    if d:
        raise ValueError(f"unknown field(s) for a {kind} law: "
                         f"{', '.join(sorted(map(repr, d)))}")
    return law
