"""Smoke test of the benchmark at tiny sizes (about a minute).

Run from the root of the checkout:

    python3 -m pytest bench/test_smoke.py
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.05"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_declared(result, group):
    want = {m["name"]: m["unit"] for m in DECLARED[group]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


# cli is not a declared workload (see NOTES.md, "Left out") but still runs
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]] + ["cli"])
def test_workload_emits_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--trace", "0", *TINY))
    _check_declared(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2


def test_traced_run_emits_every_layer_metric():
    result = _result(_bench("--workload", "chain-exact", "--trace", "1",
                            *TINY))
    _check_declared(result, "per_layer")
    assert result["failed"] == 0
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_wrong_reference_counts_as_failure(monkeypatch):
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import oracles
    import run
    exact = oracles.gumbel_speed
    monkeypatch.setattr(oracles, "gumbel_speed", lambda n: exact(n) + 0.5)
    _, attempted, failed, messages, counts = run.measure(
        "speed-mc", seed=3, seconds=0.0, scale=0.05)
    assert failed > 0 and counts["fail_frac"] == failed / attempted > 0
    assert any("exact" in m for m in messages)


def test_failed_conditional_step_leaves_every_layer_metric(monkeypatch):
    # step_conditional's later windows can run out of memory (NOTES.md,
    # "Left out"); the layer metrics must not hinge on those steps
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import run
    from frontlab import engine
    exact = engine.step_conditional

    def runaway(state, *args, **kwargs):
        if state.t >= 1 and state.positions.size == 10 ** 5:
            raise MemoryError("window too wide")
        return exact(state, *args, **kwargs)

    runaway.__module__ = exact.__module__     # so the tracer wraps it
    monkeypatch.setattr(engine, "step_conditional", runaway)
    metrics, _, failed, messages, _ = run.traced(
        "chain-exact", seed=3, seconds=0.0, scale=0.05)
    assert failed == 1 and "MemoryError" in messages[0]
    assert {m["name"] for m in DECLARED["per_layer"]} == {
        k for k, (v, _) in metrics.items() if math.isfinite(v)}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "speed-mc", "--trace", "0", *TINY,
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
