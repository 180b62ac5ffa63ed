"""frontlab benchmark: one closed-loop client runs a workload's task list.

Usage, from the root of a frontlab checkout:

    python3 bench/run.py --workload speed-mc --seed 1 --seconds 40 --trace 0

With --trace 0 the workload's fixed task list runs again and again, task
after task in one process (the cli workload starts one process per command),
with the fresh interpreters that time set-up in between, until --seconds
have passed; every result is checked against an exact reference, and the
end-to-end metrics are printed. With --trace 1 the task lists of all
workloads run once each with spans around frontlab's public functions, then
untraced and traced rounds of the chosen workload alternate for the rest of
--seconds; the per-layer metrics and the tracing overhead are printed. The
last line of stdout is the result as one JSON object; the line before it
gives sample counts.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 12         # fresh interpreters for setup_s, after one warm-up
MIN_ROUNDS = 2          # cli needs a repeat to check byte-identical output
WORKLOADS = ("speed-mc", "large-n", "chain-exact", "cli")
MEMORY_CAP = 3 << 30    # bytes of address space for this process and children


def setup_sampler(workload: str):
    """A function that times imports and lazy set-up in a fresh interpreter."""
    import workloads
    code = ("import time\nstart = time.perf_counter()\n"
            + workloads.SETUP[workload]
            + "\nprint(repr(time.perf_counter() - start))\n")

    def sample() -> float:
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=workloads.child_env(),
                             capture_output=True, text=True, check=True,
                             timeout=120)
        return float(out.stdout.strip().splitlines()[-1])

    return sample


def run_round(tasks, prefix, tracer=None):
    """Run every task once; returns (seconds per task, failures, facts)."""
    seconds, failures, facts = [], [], []
    for task in tasks:
        span = tracer.span(f"task.{prefix}.{task.name}") if tracer else None
        start = time.perf_counter()
        try:
            with span if span is not None else nullcontext({}) as task_facts:
                result = task.run()
                task_facts.update(task.facts(result))
        except Exception as e:   # a task that raises is a failed operation
            seconds.append(time.perf_counter() - start)
            failures.append([f"{task.name}: {type(e).__name__}: {e}"])
            facts.append({})
            continue
        seconds.append(time.perf_counter() - start)
        with tracer.paused() if tracer else nullcontext():
            try:
                failures.append(task.check(result))
            except Exception as e:
                failures.append([f"{task.name}: check raised {e!r}"])
        facts.append(task_facts)
    return seconds, failures, facts


def repeat(seconds: float, least: int, step) -> None:
    """Call step(elapsed share of `seconds`) until the next call would end
    after `seconds`, assuming it lasts as long as the last one; at least
    `least` calls."""
    start = last = time.perf_counter()
    calls = 0
    while calls < least or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        step((last - start) / seconds if seconds > 0 else 1.0)
        calls += 1


class Tally:
    """Tasks attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted, self.failed, self.messages = 0, 0, []

    def add(self, secs, fails, facts):
        self.attempted += len(secs)
        self.failed += sum(bool(f) for f in fails)
        self.messages += [m for f in fails for m in f]
        return secs, facts


def measure(workload: str, seed: int, seconds: float, scale: float = 1.0):
    """End-to-end metrics with tracing off.

    Every round repeats identical work, so the differences between repeats
    of one task are interference from other tenants of the machine, which
    only ever adds time. A task's time is therefore its fastest repeat in the
    run; wall_s sums these over the task list, and task_p50_ms / task_p90_ms
    are percentiles over the task list. setup_s is, for the same reason, the
    fastest of SETUP_RUNS fresh interpreters; they are spread evenly over
    the run, between rounds, so a slow spell of the machine does not hold
    all of them.
    """
    import workloads
    sample_setup = setup_sampler(workload)
    setup_runs = max(2, round(SETUP_RUNS * scale))
    sample_setup()          # warm-up: compiles bytecode, fills the disk cache
    tasks = workloads.build(workload, seed, scale)
    workloads.warm(workload)
    tally, walls, setup, peak_kb = Tally(), [], [], 0
    per_task = {task.name: [] for task in tasks}

    def step(elapsed):
        nonlocal peak_kb
        if len(walls) >= MIN_ROUNDS and len(setup) < setup_runs * elapsed:
            setup.append(sample_setup())
            return
        secs, facts = tally.add(*run_round(tasks, workload))
        walls.append(sum(secs))
        for task, sec in zip(tasks, secs):
            per_task[task.name].append(sec)
        peak_kb = max([peak_kb] + [f.get("maxrss_kb", 0) for f in facts])

    repeat(seconds, MIN_ROUNDS, step)
    while len(setup) < setup_runs:
        setup.append(sample_setup())
    if workload != "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = [min(v) for v in per_task.values()]
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    metrics = {
        "wall_s": (sum(best), "s"),
        "task_p50_ms": (deciles[4] * 1e3, "ms"),
        "task_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (min(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    counts = {"rounds": len(walls), "tasks": len(tasks),
              "setup_samples": len(setup),
              "setup_median_s": statistics.median(setup),
              "fail_frac": tally.failed / tally.attempted,
              "median_round_wall_s": statistics.median(walls),
              "task_best_ms": {k: round(min(v) * 1e3, 2)
                               for k, v in per_task.items()},
              "task_median_ms": {k: round(statistics.median(v) * 1e3, 2)
                                 for k, v in per_task.items()}}
    return metrics, tally.attempted, tally.failed, tally.messages, counts


def traced(workload: str, seed: int, seconds: float, scale: float = 1.0):
    """Per-layer metrics from one traced round of every workload.

    The tracing overhead is the traced wall_s minus the untraced wall_s of
    the chosen workload, both taken as in measure() (the sum over tasks of
    each task's fastest round) from alternating untraced and traced rounds.
    The pairs fill what the traced rounds leave of `seconds` (at least one
    pair), so a traced run lasts about as long as an untraced one.
    """
    start = time.perf_counter()
    import tracing
    import workloads
    tasks = {w: workloads.build(w, seed, scale) for w in WORKLOADS}
    extra = {"large-n": [workloads.conditional_task(seed)]}
    tracer, tally = tracing.Tracer(), Tally()

    with tracer.instrumented():
        workloads.warm("large-n")     # the first step_conditional call
        for w in WORKLOADS:
            tally.add(*run_round(tasks[w] + extra.get(w, []), w, tracer))
    plain, marked = [], []      # seconds per task, one list per round

    def step(elapsed):
        plain.append(tally.add(*run_round(tasks[workload], workload))[0])
        scratch = tracing.Tracer()
        with scratch.instrumented():
            marked.append(tally.add(*run_round(tasks[workload], workload,
                                               scratch))[0])

    repeat(seconds - (time.perf_counter() - start), 1, step)
    untraced_wall = sum(map(min, zip(*plain)))
    overhead = sum(map(min, zip(*marked))) - untraced_wall

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    metrics.update(tracing.cli_metrics(tracer.spans, workloads.CLI_COMMANDS))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_wall, "1")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    workloads.WORK.mkdir(exist_ok=True)
    path = workloads.WORK / f"spans-{workload}-{seed}.jsonl"
    tracer.write(path)
    counts = {"spans_file": str(path.relative_to(ROOT)),
              "overhead_pairs": len(plain),
              "untraced_wall_s": untraced_wall,
              "fail_frac": tally.failed / tally.attempted}
    return metrics, tally.attempted, tally.failed, tally.messages, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sample counts (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0.0 < args.scale <= 1.0:
        parser.error("need --seed >= 0 and 0 < --scale <= 1")
    if not (ROOT / "src" / "frontlab" / "__init__.py").is_file():
        print(f"bench: no frontlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # a runaway allocation (see NOTES.md, "Left out") fails its task with
    # MemoryError instead of taking memory from the rest of the machine
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    run = traced if args.trace else measure
    metrics, attempted, failed, messages, counts = run(
        args.workload, args.seed, args.seconds, args.scale)
    missing = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        if not failed:       # a fault of the benchmark, not of the program
            return 3
        # a failed task left them undefined: report the failure without them
        metrics = {k: m for k, m in metrics.items() if k not in missing}
    for msg in messages[:20]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **counts}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
