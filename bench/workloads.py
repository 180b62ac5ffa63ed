"""The benchmark's workloads: fixed task lists with exact-reference checks.

A task does one piece of work through frontlab's public API and returns the
result; its check compares the result with an exact reference from `oracles`
and returns the failures it finds. Task i of a workload draws its randomness
from SeedSequence([seed, i]), so the workload seed fixes every input. Sizes
are fixed; `scale` shrinks sample counts (never N) for the smoke test. Why
each workload exists, and which layer metric should move which end-to-end
metric, is written down in NOTES.md.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import kolmogorov

import oracles
from frontlab import engine, gumbel_exact, profile, zchain
from frontlab.noise import (BernoulliLaw, GumbelLaw, LatticeLaw,
                            SandwichedGumbelLaw)
from oracles import mc_failures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

BATCHES = 64                 # batch-means batches for every MC speed
KS_P_MIN = 1e-6              # smallest Kolmogorov p-value a check accepts
GRID_STEP = 2e-3             # step_conditional's default grid step
U_GRID = np.array([u for u in np.arange(-2.0, 2.0001, 0.25) if u != 0.0])
SANDWICHED = SandwichedGumbelLaw(-0.5, 0.5)
CLI_TIMEOUT_S = 150

# Code timed in a fresh interpreter for setup_s: the imports and the
# once-per-process lazy costs the workload's user pays.
LAZY = """
import numpy as np
from frontlab import engine, gumbel_exact
from frontlab.noise import SandwichedGumbelLaw
engine.step_conditional(engine.initial_state(16),
                        SandwichedGumbelLaw(-0.5, 0.5),
                        np.random.default_rng(0))
gumbel_exact.constant_C()
"""
SETUP = {
    "speed-mc": "import frontlab",
    "large-n": "import frontlab" + LAZY,
    "chain-exact": "import frontlab",
    "cli": "import frontlab.cli",
}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    facts: Callable[[Any], dict] = field(default=lambda result: {})


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence([seed, index])))


def _size(full: int, scale: float, least: int) -> int:
    return max(least, int(round(full * scale)))


def warm(name: str) -> None:
    """Pay the workload's lazy costs before timing (setup_s times them)."""
    if name == "large-n":
        exec(LAZY, {})


def build(name: str, seed: int, scale: float = 1.0) -> list[Task]:
    """The workload's task list; its exact references are computed here."""
    return {"speed-mc": _speed_mc, "large-n": _large_n,
            "chain-exact": _chain_exact, "cli": _cli}[name](seed, scale)


# ---------------------------------------------------------------------------
# speed-mc: the full O(N^2) step, from Python-bound N = 2 to RNG-bound N = 256


def _speed_mc(seed, scale):
    gumbel, lse = GumbelLaw(), engine.lse_front(1.0)
    v = oracles.gumbel_speed
    # discrete laws are run with the log-sum-exp front: its increments vary
    # every step, so batch means do not hinge on a few rare slow steps
    rows = [
        ("gumbel_n2_max", gumbel, 2, engine.MAX_FRONT, 2, 12800, v(2)),
        ("gumbel_n2_lse", gumbel, 2, lse, 2, 6400, v(2)),
        ("gumbel_n64", gumbel, 64, engine.MAX_FRONT, 2, 1280, v(64)),
        ("gumbel_n256", gumbel, 256, engine.MAX_FRONT, 2, 128, v(256)),
        ("bernoulli_n4", BernoulliLaw(0.5), 4, lse, 200, 10000,
         float(oracles.bernoulli_speed(4, Fraction(1, 2)))),
        ("lattice3_n3", LatticeLaw(top=0, atoms=oracles.THREE_ATOM), 3, lse,
         200, 10000, oracles.lattice_speed(oracles.THREE_ATOM, 3)),
    ]
    tasks = [_speed_task(name, seed, i, law, n, front, burn,
                         _size(t_run, scale, 128), ref)
             for i, (name, law, n, front, burn, t_run, ref)
             in enumerate(rows)]
    renewals = _size(2000, scale, 20)
    tasks.append(Task(
        "renewal_n2",
        lambda: engine.renewal_speed(gumbel, 2, n_renewals=renewals,
                                     rng=_rng(seed, len(rows))),
        lambda est: mc_failures("renewal_n2", est.value, v(2), est.std_err)))
    return tasks


def _speed_task(name, seed, index, law, n, front, t_burn, t_run, reference):
    def run():
        return engine.estimate_speed(law, n, front=front, t_burn=t_burn,
                                     t_run=t_run, rng=_rng(seed, index),
                                     n_batches=BATCHES)
    return Task(name, run, lambda est: mc_failures(name, est.value, reference,
                                                   est.std_err))


# ---------------------------------------------------------------------------
# large-n: Gumbel and profile work at N = 10^3 to 10^5, through O(N) kernels


def _large_n(seed, scale):
    v_n, v_samples = 10 ** 4, _size(2000, scale, 50)
    v_ref, s2_ref = oracles.gumbel_speed(v_n), oracles.gumbel_variance(v_n)

    def check_v_sigma(est):
        return (mc_failures("v_sigma_mc v", est.v, v_ref, est.v_std_err)
                + mc_failures("v_sigma_mc sigma2", est.sigma2, s2_ref,
                              est.sigma2_std_err))

    st_n, st_samples = 1000, _size(20000, scale, 200)
    st_mean = oracles.normalized_increment_mean(st_n)

    def stable():
        x = gumbel_exact.normalized_increment_samples(st_n, st_samples,
                                                      _rng(seed, 1))
        return x, gumbel_exact.cf_distance(x, U_GRID)

    def check_stable(res):
        x, dist = res
        out = mc_failures("normalized increment mean", float(x.mean()),
                          st_mean, float(x.std(ddof=1) / math.sqrt(x.size)))
        if not 0.0 <= dist <= 2.0:
            out.append(f"cf_distance {dist!r} outside [0, 2]")
        return out

    replicas, ref_draws = _size(16, scale, 4), _size(500, scale, 20)

    def check_fluct(rep):
        out = []
        for what, q in (("stat", rep.stat_quantiles[0]),
                        ("ref", rep.ref_quantiles)):
            if not (np.all(np.isfinite(q)) and np.all(np.diff(q) >= 0)):
                out.append(f"fluctuation {what} quantiles not monotone: {q}")
        return out

    m_replicas = _size(800, scale, 50)

    def check_marginal(rep):
        # the exact Gumbel step makes the centered coordinates exactly
        # i.i.d. Gumbel, so each KS statistic follows Kolmogorov's law
        p = kolmogorov(math.sqrt(rep.replicas) * rep.ks)
        return [f"marginal KS p-values {p} below {KS_P_MIN}"] \
            if np.any(p < KS_P_MIN) else []

    ks_n = 10 ** 5

    def exact_ks():
        # the exact Gumbel step at the conditional step's size: its cost is
        # the same for every seed, unlike step_conditional's (NOTES.md)
        rng, state = _rng(seed, 7), engine.initial_state(ks_n)
        for _ in range(3):
            state = engine.step_gumbel_exact(state, GumbelLaw(), rng)
        return profile.centered_ks(state)

    def check_ks(ks):
        # the centered coordinates are exactly i.i.d. Gumbel here
        p = kolmogorov(math.sqrt(ks_n) * ks)
        return [] if p >= KS_P_MIN else [
            f"centered_ks {ks!r} at N = {ks_n}: p-value {p!r} below "
            f"{KS_P_MIN}"]

    return [
        Task("v_sigma_n10000",
             lambda: gumbel_exact.v_sigma_mc(v_n, v_samples, _rng(seed, 0)),
             check_v_sigma),
        Task("stable_cf_n1000", stable, check_stable),
        Task("fluctuation_n100000",
             lambda: profile.fluctuation_experiment(
                 [10 ** 5], 3, 0.0, _rng(seed, 2), replicas=replicas,
                 ref_size=10 ** 4, ref_draws=ref_draws),
             check_fluct),
        Task("marginal_n1000",
             lambda: profile.marginal_gumbel_test(
                 GumbelLaw(), 1000, 3, _rng(seed, 3), k=4,
                 replicas=m_replicas),
             check_marginal),
        Task("exact_ks_n100000", exact_ks, check_ks),
    ]


def conditional_task(seed: int) -> Task:
    """Three step_conditional steps at N = 10^5, then centered_ks.

    Only the traced run does this (see NOTES.md, "Left out"): the step's
    window test sits below FFT round-off, so its window doubles a random,
    geometrically distributed number of times, and a step costs from 20 ms
    to seconds.
    """
    cond_n = 10 ** 5

    def conditional():
        rng = _rng(seed, 4)
        states = [engine.initial_state(cond_n)]
        for _ in range(3):
            states.append(engine.step_conditional(states[-1], SANDWICHED,
                                                  rng))
        return states[-2], states[-1], profile.centered_ks(states[-1])

    def check_conditional(res):
        # empirical CDF of the last step's draws against the exact one-step
        # conditional CDF prod_j F(x - X_j); binning the sources on the grid
        # moves the CDF by at most one grid step
        prev, last, ks = res
        x = last.prev_front + np.array([-0.5, 0.4, 1.5])
        exact = 1.0 - profile.conditional_tail(prev, SANDWICHED, x)
        emp = (last.positions[:, None] <= x).mean(axis=0)
        se = np.sqrt(exact * (1.0 - exact) / cond_n)
        out = [f"conditional CDF at {xi:.3f}: {e!r} vs exact {f!r}"
               for xi, e, f, s in zip(x, emp, exact, se)
               if abs(e - f) > oracles.MC_SIGMAS * s + GRID_STEP]
        if not 0.0 < ks < 1.0:
            out.append(f"centered_ks {ks!r} outside (0, 1)")
        return out

    return Task("conditional_n100000", conditional, check_conditional)


# ---------------------------------------------------------------------------
# chain-exact: Fraction and float chain solves, and the chain simulations


def _lattice_invariants(name, law):
    def check(rep):
        out = []
        if rep.truncated or rep.boundary_mass > 1e-12:
            out.append(f"{name}: boundary mass {rep.boundary_mass!r}")
        if np.any(rep.ladder > rep.ladder_bounds + 1e-12):
            out.append(f"{name}: ladder above its caps F(top - j)^N")
        if not law.bottom <= rep.value <= law.top:
            out.append(f"{name}: speed {rep.value!r} outside the support")
        return out
    return check


def _chain_exact(seed, scale):
    half = Fraction(1, 2)
    return_time = oracles.bernoulli_return_time(16, half)
    three = LatticeLaw(top=0, atoms=oracles.THREE_ATOM)
    five = LatticeLaw(top=0, atoms=oracles.FIVE_ATOM)
    ref4 = oracles.lattice_speed(oracles.THREE_ATOM, 4)
    ref2 = oracles.lattice_speed(oracles.THREE_ATOM, 2)

    def check_bern16(res):
        exact, flt = res
        out = []
        if not (isinstance(exact, Fraction) and 1 - exact == 1 / return_time):
            out.append("bernoulli_speed(16, 1/2) breaks Kac's formula")
        if abs(flt - float(exact)) > 1e-12:
            out.append(f"float speed {flt!r} vs exact {float(exact)!r}")
        return out

    def check_hitting(rep):
        out = []
        if rep.identity_residual != 0.0:
            out.append(f"hitting identity residual {rep.identity_residual!r}")
        for k in (1, 2):
            got = getattr(rep, f"prob_bottom_at_{k}")
            want = getattr(rep, f"closed_form_at_{k}")
            if got != want:
                out.append(f"P(T_0 = {k} < T_N) {got!r} vs closed {want!r}")
        return out

    def check_sandwich(sb):
        return [] if sb.lower <= ref4 <= sb.upper else [
            f"sandwich [{sb.lower!r}, {sb.upper!r}] misses {ref4!r}"]

    b_steps, l_steps = _size(100000, scale, 2000), _size(3000, scale, 640)

    def bernoulli_sim():
        return (zchain.bernoulli_speed(2, "1/2", exact=True),
                zchain.bernoulli_chain_sim(2, 0.5, b_steps, _rng(seed, 5),
                                           n_batches=BATCHES))

    def check_bernoulli_sim(res):
        exact, est = res
        out = [] if exact == oracles.BERNOULLI_N2_HALF else [
            f"bernoulli_speed(2, 1/2) = {exact}, not 6/7"]
        return out + mc_failures("bernoulli_chain_sim", est.value,
                                 float(oracles.BERNOULLI_N2_HALF),
                                 est.std_err)

    return [
        Task("bernoulli_n16",
             lambda: (zchain.bernoulli_speed(16, "1/2", exact=True),
                      zchain.bernoulli_speed(16, 0.5)),
             check_bern16),
        Task("hitting_n10", lambda: zchain.hitting_analysis(10, "3/5",
                                                            exact=True),
             check_hitting),
        Task("lattice3_n5", lambda: zchain.lattice_speed(three, 5),
             _lattice_invariants("lattice3_n5", three)),
        Task("lattice5_n6", lambda: zchain.lattice_speed(five, 6),
             _lattice_invariants("lattice5_n6", five)),
        Task("sandwich_n4", lambda: zchain.sandwich_bounds(three, 4),
             check_sandwich),
        Task("bernoulli_sim_n2", bernoulli_sim, check_bernoulli_sim),
        Task("lattice_sim_n2",
             lambda: zchain.lattice_chain_sim(three, 2, l_steps,
                                              _rng(seed, 6),
                                              n_batches=BATCHES),
             lambda est: mc_failures("lattice_chain_sim", est.value, ref2,
                                     est.std_err)),
    ]


# ---------------------------------------------------------------------------
# cli: the README's commands, each a fresh process


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict          # output path -> bytes, for commands with --out
    facts: dict          # child's import time and peak RSS


def child_env() -> dict:
    """The environment for a child interpreter that imports src/frontlab."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _run_cli(argv, outputs):
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "cli_entry.py"), *argv], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the sweep's workers too
        proc.communicate()
        raise
    try:
        facts = json.loads(err.strip().splitlines()[-1])
    except (IndexError, ValueError):
        facts = {}
    files = {p: (ROOT / p).read_bytes() for p in outputs
             if (ROOT / p).is_file()}
    return CliResult(proc.returncode, out, err, files, facts)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _named(text):
    """name -> (value, std_err or None) from a two- or three-column CSV."""
    rows = _csv_rows(text)[1:]
    return {r[0]: (float(r[1]), float(r[2]) if len(r) > 2 and r[2] else None)
            for r in rows}


def _check_gumbel(res, n):
    rows = _named(res.stdout.decode())
    (v, v_se), (s2, s2_se) = rows["v_mc"], rows["sigma2_mc"]
    return (mc_failures("gumbel v_mc", v, oracles.gumbel_speed(n), v_se)
            + mc_failures("gumbel sigma2_mc", s2, oracles.gumbel_variance(n),
                          s2_se))


def _check_speed(reference):
    def check(res):
        obj = json.loads(res.stdout)
        return mc_failures("speed v_hat", obj["v_hat"], reference,
                           obj["std_err"])
    return check


def _check_hitting(res):
    rows = {k: v for k, (v, _) in _named(res.stdout.decode()).items()}
    out = []
    if rows["identity_residual"] != 0.0:
        out.append(f"identity residual {rows['identity_residual']!r}")
    for k in (1, 2):
        if rows[f"prob_bottom_at_{k}"] != rows[f"closed_form_at_{k}"]:
            out.append(f"P(T_0 = {k} < T_N) differs from its closed form")
    # rows 0 and N of the leader-count chain coincide, so E_N[T_0] equals
    # E_0[T_0], which Kac's formula ties to the speed: 1 / (1 - 6/7) = 7
    if rows["mean_time_bottom"] != float(1 / (1 - oracles.BERNOULLI_N2_HALF)):
        out.append(f"E_N[T_0] = {rows['mean_time_bottom']!r}, not 7")
    return out


def _check_ks(res):
    obj = json.loads(res.stdout)
    return [] if obj["p_value"] >= KS_P_MIN else [
        f"profile ks p-value {obj['p_value']!r} below {KS_P_MIN}"]


def _check_scaling(res):
    rows = _csv_rows(res.stdout.decode())[1:]
    return [f"scaling cf_distance {r[1]} outside [0, 2]" for r in rows
            if not 0.0 <= float(r[1]) <= 2.0]


def _sweep_check(out_path, cells, steps):
    refs = {(n, q): float(oracles.bernoulli_speed(n, Fraction(q)))
            for n, q in cells}

    def check(res):
        data = res.files.get(out_path, b"")
        side = json.loads(res.files.get(out_path + ".manifest.json", b"{}"))
        out = []
        if side.get("sha256") != hashlib.sha256(data).hexdigest():
            out.append("sweep manifest sha256 does not match its CSV")
        rows = _csv_rows(data.decode())[1:]
        if len(rows) != len(cells):
            out.append(f"sweep wrote {len(rows)} rows, not {len(cells)}")
        for row in rows:
            if row[-1] != "ok":
                out.append(f"sweep cell {row[:2]} {row[-1]}")
                continue
            n, q = int(row[0]), row[1]
            v_exact, v_sim, se = (float(x) for x in row[2:5])
            ref = refs[(n, q)]
            if abs(v_exact - ref) > 1e-12:
                out.append(f"sweep N={n} q={q}: float {v_exact!r} vs "
                           f"Fraction {ref!r}")
            # batch means read se = 0 when no slow step happens in the run;
            # the binomial error at the exact speed bounds it from below
            floor = math.sqrt(ref * (1.0 - ref) / steps)
            out += mc_failures(f"sweep N={n} q={q} v_sim", v_sim, ref,
                               max(se, floor))
        return out

    def facts(res):
        rows = _csv_rows(res.files.get(out_path, b"").decode())[1:]
        return {"failed_cells": sum(row[-1] != "ok" for row in rows)}

    return check, facts


def _cli_task(name, argv, check, outputs=(), facts=lambda res: {}):
    """A README command; every repeat must print the same bytes."""
    first = []

    def verify(res):
        if res.code != 0:
            tail = res.stderr.decode(errors="replace").strip()[-300:]
            return [f"cli {name}: exit code {res.code}: {tail}"]
        digest = hashlib.sha256(res.stdout)
        for path in outputs:
            digest.update(res.files.get(path, b""))
        first[:] = first or [digest.hexdigest()]
        out = [] if digest.hexdigest() == first[0] else [
            f"cli {name}: output differs from the first run with the same "
            f"seed"]
        try:
            return out + check(res)
        except (KeyError, IndexError, ValueError) as e:
            return out + [f"cli {name}: unreadable output: {e!r}"]

    return Task(name, lambda: _run_cli(argv, outputs), verify,
                lambda res: {**res.facts, **facts(res)})


# the names of the tasks _cli builds, one per README command
CLI_COMMANDS = ("gumbel", "speed_batch", "speed_renewal", "zchain", "profile",
                "scaling", "sweep")


def _cli(seed, scale):
    WORK.mkdir(exist_ok=True)
    cli_seed = int(np.random.SeedSequence([seed, 99]).generate_state(1)[0]
                   % 2 ** 31)
    size = lambda full, least: str(_size(full, scale, least))
    out_path = f"{WORK.name}/grid.csv"
    cells = [(n, q) for n in (2, 3, 4) for q in ("0.3", "0.5", "0.7")]
    sweep_steps = _size(20000, scale, 640)
    sweep_check, sweep_facts = _sweep_check(out_path, cells, sweep_steps)
    # the README's commands; the seed goes after the subcommand, where the
    # subcommand's own --seed option cannot override it
    commands = [
        ("gumbel", ["gumbel", "--N", "10", "--samples", size(100000, 1000)],
         lambda res: _check_gumbel(res, 10)),
        ("speed_batch", ["speed", "--spec", '{"type":"bernoulli","p":0.5}',
                         "--N", "1", "--horizon", size(100000, 1000)],
         _check_speed(0.5)),   # one particle moves with probability p
        ("speed_renewal", ["speed", "--spec", '{"type":"gumbel"}', "--N", "2",
                           "--method", "renewal", "--renewals",
                           size(200, 20)],
         _check_speed(oracles.gumbel_speed(2))),
        ("zchain", ["zchain", "--dist", "bernoulli", "--N", "2", "--q", "1/2",
                    "--mode", "precise", "--report", "hitting"],
         _check_hitting),
        ("profile", ["profile", "--spec", '{"type":"gumbel"}', "--N",
                     size(100000, 1000), "--t", "3", "--test", "ks"],
         _check_ks),
        ("scaling", ["scaling", "--N", "100", "--N", "1000", "--N", "10000",
                     "--samples", size(20000, 200)],
         _check_scaling),
    ]
    tasks = [_cli_task(name, argv + ["--seed", str(cli_seed)], check)
             for name, argv, check in commands]
    sweep = ["sweep", "--task", "zchain"]
    sweep += [a for n, _ in cells[::3] for a in ("--N", str(n))]
    sweep += [a for _, q in cells[:3] for a in ("--q", q)]
    sweep += ["--steps", str(sweep_steps), "--workers", "2", "--out", out_path,
              "--seed", str(cli_seed)]
    tasks.append(_cli_task("sweep", sweep, sweep_check,
                           outputs=(out_path, out_path + ".manifest.json"),
                           facts=sweep_facts))
    return tasks
