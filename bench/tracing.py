"""Spans around frontlab's public functions, and the per-layer metrics.

A traced run replaces every public module-level function of frontlab's
`noise`, `engine`, `gumbel_exact`, `profile` and `zchain` modules, and the
`sample` and `log_cdf` methods of the four noise laws, by a wrapper that
records a span (name, start, end, parent). Nothing under `src/` changes: the
wrappers are installed from here and removed afterwards. Spans stay in memory
until the run ends. A layer is a module; its self time is the time its spans
cover minus the time covered by their direct children.

Functions that run once per step of a dynamics are counted, not timed: a span
costs about 1.3 us, a large share of the 8 us an N = 2 step takes. They
belong to the same layer as their callers, so the layer self times keep
their meaning.
"""
from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("noise", "engine", "gumbel_exact", "profile", "zchain")
LAWS = {"GumbelLaw": "gumbel", "BernoulliLaw": "bernoulli",
        "LatticeLaw": "lattice", "SandwichedGumbelLaw": "sandwiched"}
STEP_SPANS = ("engine.step_gumbel_exact", "engine.step_conditional")
HOT = ("engine.step_with_noise", "engine.log_sum_exp", "engine.is_renewal",
       "zchain.lattice_step", "zchain.lattice_s")
EXACT_SOLVES = ("zchain.bernoulli_stationary", "zchain.expected_return_time",
                "zchain.hitting_analysis")


def _size(result):
    return {"elems": int(result.size)}


def _estimate(a, result):
    return {"law": type(a["law"]).__name__, "n": a["n"],
            "steps": a["t_burn"] + a["t_run"]}


def _state_n(result):
    return {"n": int(result.positions.size)}


def _draws(a, result):
    return {"draws": int(a["n_particles"]) * int(a["n_samples"])}


def _replica_steps(a, result):
    rows = len(tuple(a["n_list"])) if "n_list" in a else 1
    return {"replica_steps": a["replicas"] * a["t"] * rows}


def _exact_flag(a, result):
    return {"exact": bool(a["exact"])}


def _lattice(a, result):
    return {"states": result.n_states, "boundary": result.boundary_mass,
            "widenings": round(math.log2(result.window / a["window"]))}


def _steps(a, result):
    return {"steps": int(a["steps"])}


# Per-span facts that the metrics need, keyed by span name. A one-argument
# entry reads only the result; a two-argument one also gets the arguments.
INFO = {
    **{f"noise.{cls}.{meth}": _size
       for cls in LAWS for meth in ("sample", "log_cdf")},
    "engine.estimate_speed": _estimate,
    "engine.step_gumbel_exact": _state_n,
    "engine.step_conditional": _state_n,
    "gumbel_exact.upsilon_samples": _draws,
    "gumbel_exact.normalized_increment_samples": _draws,
    "gumbel_exact.s_hat_samples": _draws,
    "gumbel_exact.empirical_cf": lambda a, result: {
        "evals": int(a["samples"].size) * int(result.size)},
    "profile.marginal_gumbel_test": _replica_steps,
    "profile.fluctuation_experiment": _replica_steps,
    **{name: _exact_flag for name in EXACT_SOLVES},
    "zchain.lattice_speed": _lattice,
    "zchain.bernoulli_chain_sim": _steps,
    "zchain.lattice_chain_sim": _steps,
}


class _Span:
    """One open span; entering it yields a dict for the span's facts.

    The dict is stored with the span, so facts added after the span has
    closed (computed outside its timing) are kept too.
    """
    __slots__ = ("tracer", "name", "idx", "parent", "start", "facts")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        spans, stack = self.tracer.spans, self.tracer._stack
        self.idx = len(spans)
        spans.append(None)
        self.parent = stack[-1] if stack else -1
        stack.append(self.idx)
        self.facts = {}
        self.start = time.perf_counter_ns()
        return self.facts

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.spans[self.idx] = (self.name, self.start, end,
                                       self.parent, self.facts)
        return False


class Tracer:
    """In-memory span recorder; `instrumented()` installs the wrappers."""

    def __init__(self):
        self.spans = []      # (name, start_ns, end_ns, parent index, facts)
        self.counts = defaultdict(int)     # calls of the HOT functions
        self._stack = []
        self.enabled = True

    def span(self, name):
        """A span around a `with` block, such as one task or one call."""
        return _Span(self, name)

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                counts[name] += 1
                if result is True:         # is_renewal
                    counts[name + ".true"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, name, fn):
        if name in HOT:
            return self._count(name, fn)
        info = INFO.get(name)
        sig = (inspect.signature(fn)
               if info is not None and info.__code__.co_argcount == 2
               else None)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as facts:
                result = fn(*args, **kwargs)
            if info is not None:
                if sig is None:
                    facts.update(info(result))
                else:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    facts.update(info(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def paused(self):
        """Calls made inside (result checks) record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def instrumented(self):
        import frontlab
        mods = [getattr(frontlab, m) for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if (inspect.isfunction(inspect.unwrap(obj))
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}",
                                                         obj))
        # a function imported by name into another module is patched there
        # too, so calls inside frontlab go through the wrapper
        undo = []
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for cls_name in LAWS:
            cls = getattr(frontlab.noise, cls_name)
            for meth in ("sample", "log_cdf"):
                fn = cls.__dict__[meth]
                undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"noise.{cls_name}.{meth}", fn))
        try:
            yield self
        finally:
            for owner, attr, val in reversed(undo):
                setattr(owner, attr, val)

    def write(self, path):
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ns": start,
                       "end_ns": end, "parent": parent}
                if info:
                    row["info"] = info
                fh.write(json.dumps(row) + "\n")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else math.nan


def layer_metrics(spans, counts):
    """Per-layer metrics (name -> (value, unit)) from spans and HOT counts."""
    dur = [(end - start) * 1e-9 for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_s = defaultdict(float)
    by_name = defaultdict(list)      # name -> [(seconds, info)]
    for i, (name, _, _, _, info) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += dur[i] - child[i]
        by_name[name].append((dur[i], info))

    def total(name, key=None, where=lambda info: True):
        rows = [(d, info) for d, info in by_name[name] if where(info)]
        return (sum(d for d, _ in rows),
                sum(info.get(key, 0) for _, info in rows) if key else len(rows))

    m = {}
    for cls in ("GumbelLaw", "BernoulliLaw", "LatticeLaw"):
        secs, elems = total(f"noise.{cls}.sample", "elems")
        m[f"noise.sample_ns_per_elem.{LAWS[cls]}"] = (_ratio(secs, elems, 1e9),
                                                      "ns")
    secs, elems = total("noise.SandwichedGumbelLaw.log_cdf", "elems")
    m["noise.log_cdf_ns_per_elem.sandwiched"] = (_ratio(secs, elems, 1e9), "ns")
    m["noise.sample_elems"] = (sum(total(f"noise.{cls}.sample", "elems")[1]
                                   for cls in LAWS), "count")
    m["noise.self_s"] = (self_s["noise"], "s")

    for n in (2, 64, 256):
        secs, steps = total("engine.estimate_speed", "steps",
                            lambda i, n=n: i.get("law") == "GumbelLaw"
                            and i.get("n") == n)
        m[f"engine.full_step_us.n{n}"] = (_ratio(secs, steps, 1e6), "us")
    m["engine.self_s"] = (self_s["engine"], "s")
    m["engine.steps"] = (counts["engine.step_with_noise"]
                         + sum(len(by_name[s]) for s in STEP_SPANS), "count")
    m["engine.renewal_accept_ratio"] = (_ratio(
        counts["engine.is_renewal.true"], counts["engine.is_renewal"]), "1")
    big = lambda info: info.get("n") == 100_000
    secs, calls = total("engine.step_gumbel_exact", where=big)
    m["engine.exact_step_ms.n100000"] = (_ratio(secs, calls, 1e3), "ms")
    secs, calls = total("engine.step_conditional", where=big)
    m["engine.conditional_step_ms.n100000"] = (_ratio(secs, calls, 1e3), "ms")
    # log_cdf passes per conditional step: one per window the step tries
    passes = sum(spans[parent][0] == "engine.step_conditional"
                 and (spans[parent][4] or {}).get("n") == 100_000
                 for name, _, _, parent, _ in spans
                 if parent >= 0 and name.endswith(".log_cdf"))
    m["engine.conditional_window_passes"] = (_ratio(passes, calls), "count")
    first = by_name["engine.step_conditional"]
    m["engine.conditional_first_call_s"] = (first[0][0] if first else math.nan,
                                            "s")

    secs = draws = 0
    for name in ("upsilon_samples", "normalized_increment_samples",
                 "s_hat_samples"):
        s, d = total(f"gumbel_exact.{name}", "draws")
        secs, draws = secs + s, draws + d
    m["gumbel_exact.recip_ns_per_draw"] = (_ratio(secs, draws, 1e9), "ns")
    m["gumbel_exact.recip_draws"] = (draws, "count")
    secs, evals = total("gumbel_exact.empirical_cf", "evals")
    m["gumbel_exact.cf_ns_per_eval"] = (_ratio(secs, evals, 1e9), "ns")
    m["gumbel_exact.self_s"] = (self_s["gumbel_exact"], "s")

    secs = steps = 0
    for name in ("marginal_gumbel_test", "fluctuation_experiment"):
        s, k = total(f"profile.{name}", "replica_steps")
        secs, steps = secs + s, steps + k
    m["profile.replica_steps_per_s"] = (_ratio(steps, secs), "1/s")
    m["profile.self_s"] = (self_s["profile"], "s")
    secs, calls = total("profile.centered_ks")
    m["profile.ks_ms"] = (_ratio(secs, calls, 1e3), "ms")

    secs, states = total("zchain.lattice_speed", "states")
    m["zchain.lattice_us_per_state"] = (_ratio(secs, states, 1e6), "us")
    m["zchain.lattice_states"] = (states, "count")
    m["zchain.widenings"] = (total("zchain.lattice_speed", "widenings")[1],
                             "count")
    m["zchain.boundary_mass_max"] = (max(
        (info.get("boundary", math.nan)
         for _, info in by_name["zchain.lattice_speed"]),
        default=math.nan), "1")
    for mode, exact in (("fraction", True), ("float", False)):
        m[f"zchain.{mode}_solve_s"] = (sum(
            total(name, where=lambda i: i.get("exact") is exact)[0]
            for name in EXACT_SOLVES), "s")
    for law in ("bernoulli", "lattice"):
        secs, steps = total(f"zchain.{law}_chain_sim", "steps")
        m[f"zchain.sim_us_per_step.{law}"] = (_ratio(secs, steps, 1e6), "us")
    return m


def cli_metrics(spans, commands):
    """cli.* metrics from the cli task spans, which carry the child's facts."""
    m = {}
    imports = []
    failed_cells = 0
    for name, start, end, _, info in spans:
        if not name.startswith("task.cli."):
            continue
        cmd = name[len("task.cli."):]
        m[f"cli.cmd_s.{cmd}"] = ((end - start) * 1e-9, "s")
        info = info or {}
        if "import_s" in info:
            imports.append(info["import_s"])
        failed_cells += info.get("failed_cells", 0)
    for cmd in commands:
        m.setdefault(f"cli.cmd_s.{cmd}", (math.nan, "s"))
    m["cli.import_s"] = (statistics.median(imports) if imports else math.nan,
                         "s")
    m["cli.sweep_failed_cells"] = (failed_cells, "count")
    return m
