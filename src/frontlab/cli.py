"""Command-line front end: reproducible experiments with provenance.

Every run is deterministic from its flags and a seed (``--seed``, else the
FRONTLAB_SEED environment variable, else 1729). Results go to stdout or,
with ``--out``, are written atomically; CSV files get a sibling
``<out>.manifest.json`` recording the config, seed, package version and
output digest, while JSON outputs embed the same manifest inline. Exit
codes: 0 success, 2 validation error, 3 numerical or I/O failure, 4 sweep
with failed cells.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, engine, gumbel_exact, profile, zchain
from .noise import GumbelLaw, LatticeLaw, from_json, to_json

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

# the speed options that some modes ignore, at their parser defaults
_SPEED_OPTIONS = {"horizon": 2000, "burn": None, "method": "batch",
                  "renewals": 200}
# per mode (--emit csv, else --method): the options it reads, and what it
# tells of a set option it would ignore
_SPEED_MODES = {
    "csv": ({"horizon"}, "set the speed estimate; --emit csv dumps the "
                         "trajectory"),
    "batch": ({"horizon", "burn", "method"},
              "set the renewal estimate; --method batch runs batch means"),
    "renewal": ({"method", "renewals"},
                "set the batch-means estimate; --method renewal runs "
                "--renewals renewal blocks"),
}

_FRONTS = {
    "max": lambda p: engine.MAX_FRONT,
    "min": lambda p: engine.MIN_FRONT,
    "lse": lambda p: engine.lse_front(p if p is not None else 1.0),
    "order": lambda p: engine.order_front(p if p is not None else 1),
}


def _parse_grid(text: str) -> np.ndarray:
    """Parse "a:b:step" into an inclusive arange."""
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ValueError(f"grid must look like 'a:b:step', got {text!r}") \
            from None
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid bounds {text!r}")
    return np.arange(lo, hi + step / 2, step)


def _rng(seed: int, *cell: int) -> np.random.Generator:
    """The run's generator, or with ``cell`` = (i,) the i-th cell's own
    stream: child i of SeedSequence(seed), as ``spawn`` numbers them."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=cell)))


def _cf_distance(n: int, samples: int, u_grid: np.ndarray,
                 rng: np.random.Generator) -> float:
    """cf distance of ``samples`` normalized increments at N = n to the
    stable limit, on the parsed grid ``u_grid`` less u = 0."""
    grid = u_grid[np.abs(u_grid) > 1e-12]
    return gumbel_exact.cf_distance(
        gumbel_exact.normalized_increment_samples(n, samples, rng), grid)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns ("csv", header, rows) or ("json", obj)


def _run_speed(args, seed):
    law = from_json(args.spec)
    rng = _rng(seed)
    front = _FRONTS[args.front](args.front_param)
    reads, what = _SPEED_MODES["csv" if args.emit == "csv" else args.method]
    ignored = [f"--{key}" for key, default in _SPEED_OPTIONS.items()
               if key not in reads and getattr(args, key) != default]
    if ignored:
        raise ValueError(f"{', '.join(ignored)} {what}")
    if args.emit == "csv":
        table = engine.run_trajectory(law, args.n, args.horizon, rng,
                                      front=front)
        rows = [[int(r[0])] + [_fmt(v) for v in r[1:]] for r in table]
        return "csv", ["t", "phi", "max", "min", "gap"], rows
    if args.method == "renewal":
        est = engine.renewal_speed(law, args.n, front=front,
                                   n_renewals=args.renewals, rng=rng)
    else:
        est = engine.estimate_speed(law, args.n, front=front,
                                    t_burn=args.burn, t_run=args.horizon,
                                    rng=rng)
    return "json", {
        "N": args.n,
        "spec": json.loads(to_json(law)),
        "v_hat": est.value,
        "std_err": est.std_err,
        "sigma2_hat": est.sigma2,
        "n_blocks": est.n_blocks,
        "seed": seed,
    }


def _run_gumbel(args, seed):
    n = args.n
    law = GumbelLaw(args.loc, args.rate)  # refuses a bad --a or --lambda
    rows = [
        ("b_N", gumbel_exact.b_of_N(n), ""),
        ("b_N_over_N_asymptotic", gumbel_exact.b_over_n_asymptotic(n), ""),
        ("constant_C", gumbel_exact.constant_C(), ""),
    ]
    if n >= 3:
        rows += [
            ("v_expansion", gumbel_exact.expansion_v(n, law.loc, law.rate),
             ""),
            ("sigma2_expansion", gumbel_exact.expansion_sigma2(n, law.rate),
             ""),
        ]
    if n >= 4:
        p = gumbel_exact.scaling_params(n)
        rows += [("lambda_N", p.rate, ""), ("a_N", p.shift, "")]
    if args.samples:
        est = gumbel_exact.v_sigma_mc(n, args.samples, _rng(seed),
                                      loc=law.loc, rate=law.rate)
        rows += [("v_mc", est.v, est.v_std_err),
                 ("sigma2_mc", est.sigma2, est.sigma2_std_err)]
    if args.emit == "json":
        return "json", {
            "N": n,
            "seed": seed,
            "rows": [{"name": k, "value": v,
                      "std_err": (s if s != "" else None)}
                     for k, v, s in rows],
        }
    return "csv", ["name", "value", "std_err"], \
        [[k, _fmt(v), _fmt(s) if s != "" else ""] for k, v, s in rows]


def _lattice_law(probs: str) -> LatticeLaw:
    """The lattice law ``--probs`` describes."""
    law = from_json(probs)
    if not isinstance(law, LatticeLaw):
        raise ValueError("--probs must describe a lattice law")
    return law


def _zchain_cell(dist, n, q, probs, mode, steps, rng):
    """One zchain speed row; shared by the subcommand and sweep workers.

    The gap to the top speed is read off the chain directly (nu(0), or the
    summed dive probabilities), not as top - v, which cancels in float.
    """
    exact = mode == "precise"
    if dist == "bernoulli":
        qv = zchain.parse_q(q, exact)
        gap = zchain._bernoulli_gap(n, qv, exact=exact)
        v_exact = 1 - gap
        sim = zchain.bernoulli_chain_sim(n, float(qv), steps, rng)
        q_out = float(qv)
    else:
        law = _lattice_law(probs)
        rep, sim = zchain._lattice_speed_sim(law, n, steps, rng)
        v_exact, gap = rep.value, rep.ladder.sum()
        q_out = 1.0 - law.prob_of(law.top)
    scale = q_out ** (n * n) * 2.0 ** n
    # no ratio where the scale is 0: a point mass at the top, or underflow
    ratio = float(gap) / scale if scale > 0.0 else None
    return [n, q_out, float(v_exact), sim.value, sim.std_err, ratio]


def _run_zchain(args, seed):
    exact = args.mode == "precise"
    if args.dist == "lattice" and args.probs is None:
        raise ValueError("--dist lattice requires --probs")
    if args.dist == "bernoulli" and args.q is None:
        raise ValueError("--dist bernoulli requires --q")
    if args.report == "speed":
        if exact and args.dist == "lattice":
            raise ValueError("precise mode covers the two-point chain only")
        row = _zchain_cell(args.dist, args.n, args.q, args.probs, args.mode,
                           args.steps, _rng(seed))
        header = ["N", "q", "v_exact", "v_sim", "se", "ratio_to_asymptotic"]
        if args.emit == "json":
            return "json", dict(zip(header, row), seed=seed)
        return "csv", header, [[row[0]] + [_fmt(v) for v in row[1:]]]
    if args.report == "hitting":
        if args.dist != "bernoulli":
            raise ValueError("hitting report is for the Bernoulli chain")
        rep = zchain.hitting_analysis(args.n, args.q, exact=exact)
        obj = {k: getattr(rep, k) for k in rep.__dataclass_fields__}
        obj["seed"] = seed
        if args.emit == "csv":
            return "csv", ["name", "value"], \
                [[k, _fmt(v)] for k, v in obj.items()]
        return "json", obj
    # ladder report: lattice stationary dive probabilities
    if args.dist != "lattice":
        raise ValueError("ladder report is for the lattice chain")
    rep = zchain.lattice_speed(_lattice_law(args.probs), args.n)
    obj = {
        "N": args.n,
        "v_exact": rep.value,
        "window": rep.window,
        "n_states": rep.n_states,
        "ladder": list(rep.ladder),
        "ladder_bounds": list(rep.ladder_bounds),
        "seed": seed,
    }
    if args.emit == "csv":
        rows = [[j + 1, _fmt(p), _fmt(b)]
                for j, (p, b) in enumerate(zip(rep.ladder, rep.ladder_bounds))]
        return "csv", ["depth", "prob", "bound"], rows
    return "json", obj


def _run_profile(args, seed):
    law = from_json(args.spec)
    rng = _rng(seed)
    if args.test == "marginal":
        rep = profile.marginal_gumbel_test(law, args.n, args.t, rng,
                                           k=args.k, replicas=args.replicas)
        return "json", {"test": "marginal", "N": rep.n, "t": rep.t,
                        "k": rep.k, "replicas": rep.replicas,
                        "ks": list(rep.ks), "max_corr": rep.max_corr,
                        "seed": seed}
    if args.test == "fluct":
        rep = profile.fluctuation_experiment(
            [args.n], args.t, args.x, rng, law=law, replicas=args.replicas,
            ref_size=args.ref_size)
        return "json", {"test": "fluct", "N": args.n, "t": rep.t, "x": rep.x,
                        "levels": list(rep.levels),
                        "stat_quantiles": list(rep.stat_quantiles[0]),
                        "ref_quantiles": list(rep.ref_quantiles),
                        "seed": seed}

    state = engine.advance(engine.initial_state(args.n), law, rng, args.t)
    rate, loc = profile._gumbel_target(law)
    if args.test == "ks":
        from scipy.special import kolmogorov

        ks = profile.centered_ks(state, rate=rate, loc=loc)
        p_value = float(kolmogorov(ks * math.sqrt(args.n)))
        return "json", {"test": "ks", "N": args.n, "t": args.t, "ks": ks,
                        "p_value": p_value, "seed": seed}
    grid = _parse_grid(args.grid)
    prof = profile.empirical_profile(state, grid)
    wave = profile.gumbel_wave(grid, rate, loc)
    rows = [[_fmt(x), _fmt(v), _fmt(w), _fmt(v - w)]
            for x, v, w in zip(grid, prof.values, wave)]
    return "csv", ["x", "U_N", "u", "diff"], rows


def _run_scaling(args, seed):
    if not args.n_list:
        raise ValueError("need at least one --N")
    u_grid = _parse_grid(args.u_grid)
    rows = [[n, _fmt(_cf_distance(n, args.samples, u_grid, _rng(seed, i)))]
            for i, n in enumerate(args.n_list)]
    return "csv", ["N", "cf_distance"], rows


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(n, q, steps, seed, index):
    try:
        row = _zchain_cell("bernoulli", n, q, None, "float", steps,
                           _rng(seed, index))
        return [str(row[0])] + [_fmt(v) for v in row[1:]] + ["ok"]
    except Exception as e:  # cell failures are flagged, not fatal
        return [str(n), str(q), "", "", "", "", f"failed: {e}"]


def _run_sweep(args, seed):
    if not args.n_list:
        raise ValueError("need at least one --N")
    if not args.q_list:
        raise ValueError("zchain sweep needs at least one --q")
    if args.workers < 1:
        raise ValueError(f"need --workers >= 1, got {args.workers}")
    # every cell's chain simulation would refuse these steps
    engine._check_batches(zchain._SIM_BATCHES, args.steps)
    cells = [(n, q) for n in args.n_list for q in args.q_list]
    header = ["N", "q", "v_exact", "v_sim", "se", "ratio_to_asymptotic",
              "status"]
    jobs = [(n, q, args.steps, seed, i) for i, (n, q) in enumerate(cells)]
    if args.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_cell, *zip(*jobs)))
    else:
        rows = [_sweep_cell(*job) for job in jobs]
    failed = any(row[-1] != "ok" for row in rows)
    return ("csv", header, rows), failed


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _render(payload, manifest: dict) -> bytes:
    """JSON with the manifest inline, or CSV."""
    if payload[0] == "json":
        obj = dict(payload[1], manifest=manifest)
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    _, header, rows = payload
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _manifest(args, seed: int) -> dict:
    config = {}
    for key, val in sorted(vars(args).items()):
        if key in ("seed", "out") or val is None:
            continue
        config[key] = val
    return {"config": config, "seed": seed, "version": __version__}


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".frontlab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, payload, seed: int) -> None:
    manifest = _manifest(args, seed)
    data = _render(payload, manifest)
    if args.out is None:
        sys.stdout.write(data.decode())
        return
    _write_atomic(args.out, data)
    if payload[0] == "csv":
        manifest["sha256"] = hashlib.sha256(data).hexdigest()
        side = (json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        _write_atomic(args.out + ".manifest.json", side.encode())
    print(f"{args.cmd}: wrote {args.out} ({len(data)} bytes, seed {seed})")


# ---------------------------------------------------------------------------
# parser


def _int_list(parser, flag):
    parser.add_argument(flag, dest="n_list", action="append", type=int,
                        metavar="N", help="repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Max-plus particle fronts: simulation and exact solves.")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {DEFAULT_SEED}, or "
                             "FRONTLAB_SEED)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("speed", help="front speed of the particle system")
    p.add_argument("--spec", required=True, help="noise law JSON")
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--horizon", "-T", type=int, default=2000)
    p.add_argument("--front", choices=sorted(_FRONTS), default="max")
    p.add_argument("--front-param", type=float, default=None)
    p.add_argument("--burn", type=int, default=None)
    p.add_argument("--method", choices=["batch", "renewal"], default="batch")
    p.add_argument("--renewals", type=int, default=200,
                   help="renewal blocks for --method renewal")
    p.add_argument("--emit", choices=["csv", "json"], default="json",
                   help="csv dumps the trajectory instead of the estimate")

    p = sub.add_parser("gumbel", help="exact Gumbel-noise diagnostics")
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--a", dest="loc", type=float, default=0.0)
    p.add_argument("--lambda", dest="rate", type=float, default=1.0)
    p.add_argument("--emit", choices=["csv", "json"], default="csv")

    p = sub.add_parser("zchain", help="exact leader-count chain reports")
    p.add_argument("--dist", choices=["bernoulli", "lattice"],
                   default="bernoulli")
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--q", default=None, help="P(jump = 0), e.g. 0.5 or 1/2")
    p.add_argument("--probs", default=None, help="lattice law JSON")
    p.add_argument("--mode", choices=["float", "precise"], default="float")
    p.add_argument("--report", choices=["speed", "hitting", "ladder"],
                   default="speed")
    p.add_argument("--steps", type=int, default=100_000,
                   help="simulation steps for the v_sim column")
    p.add_argument("--emit", choices=["csv", "json"], default="csv")

    p = sub.add_parser("profile", help="front-profile tests and dumps")
    p.add_argument("--spec", required=True, help="noise law JSON")
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--grid", default="-6:12:0.05", metavar="A:B:STEP")
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--test", choices=["ks", "marginal", "fluct"],
                   default=None, help="omit to dump the profile CSV")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--ref-size", type=int, default=200_000)

    p = sub.add_parser("scaling", help="stable-limit distance ladder")
    _int_list(p, "--N")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--u-grid", default="-2:2:0.25", metavar="U0:U1:STEP")

    p = sub.add_parser("sweep", help="cartesian sweep with one row per cell")
    p.add_argument("--task", choices=["zchain"], required=True)
    _int_list(p, "--N")
    p.add_argument("--q", dest="q_list", action="append", default=None)
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="output path")
        # SUPPRESS: an absent subcommand --seed must not reset a value
        # given before the subcommand
        sp.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (also accepted before the subcommand)")
    return parser


_HANDLERS = {
    "speed": _run_speed,
    "gumbel": _run_gumbel,
    "zchain": _run_zchain,
    "profile": _run_profile,
    "scaling": _run_scaling,
}


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FRONTLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FRONTLAB_SEED must be an integer, got {env!r}") \
                from None
    return DEFAULT_SEED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_VALIDATION
    try:
        seed = _resolve_seed(args)
        if args.cmd == "sweep":
            payload, failed = _run_sweep(args, seed)
            _emit(args, payload, seed)
            return EXIT_PARTIAL if failed else EXIT_OK
        payload = _HANDLERS[args.cmd](args, seed)
    except (ValueError, TypeError) as e:
        print(f"frontlab: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, ArithmeticError) as e:
        print(f"frontlab: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        _emit(args, payload, seed)
    except OSError as e:
        print(f"frontlab: cannot write output: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
