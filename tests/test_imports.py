"""What importing frontlab gives: every name its modules export, and no
scipy until a call needs it."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frontlab

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def run_fresh(code: str) -> list[str]:
    """stdout lines of ``code`` run in a new interpreter on src/."""
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.splitlines()


def test_import_loads_no_scipy():
    out = run_fresh(f"import frontlab, frontlab.cli\nprint({SCIPY_MODULES})")
    assert out == ["[]"]


def test_scipy_calls_load_scipy_and_keep_their_values():
    out = run_fresh(
        "import numpy as np\n"
        "from frontlab import engine, gumbel_exact\n"
        "from frontlab.noise import SandwichedGumbelLaw\n"
        "print(repr(gumbel_exact.constant_C()))\n"
        "x = np.linspace(-3, 3, 7)\n"
        "print(*SandwichedGumbelLaw(-0.3, 0.3).log_cdf(x))\n"
        "print(gumbel_exact.b_of_N(10))\n"
        "engine.step_conditional(engine.initial_state(16),\n"
        "                        SandwichedGumbelLaw(-0.5, 0.5),\n"
        "                        np.random.default_rng(0))\n"
        f"print({SCIPY_MODULES})\n"
        "gumbel_exact.s_hat_sum_quantiles(100, 2, [0.5])\n"
        f"print(bool({SCIPY_MODULES}))")
    # C = 1 - gamma is a closed form, and E1 (the sandwiched log-CDF, b_N,
    # the conditional step) is numpy's: no scipy until the exact
    # fluctuation reference calls kve
    assert out[0] == "0.42278433509846713"
    assert out[3:] == ["[]", "True"]
    # values from when scipy's exp1 gave them
    log_cdf = [-17.13038301817754, -6.818052097921876, -2.6516135771467884,
               -0.9999337948775562, -0.37135338183502775,
               -0.13709355159683512, -0.0504991831952587]
    np.testing.assert_allclose([float(v) for v in out[1].split()], log_cdf,
                               rtol=1e-13)
    np.testing.assert_allclose(float(out[2]), 18.229239584193905, rtol=1e-13)


@pytest.mark.parametrize("module", [
    m.name for m in pkgutil.iter_modules(frontlab.__path__)])
def test_every_exported_name_exists(module):
    # the bench tracer calls getattr on every __all__ name
    mod = importlib.import_module(f"frontlab.{module}")
    assert [name for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []


def traced_names() -> list[str]:
    """The names bench/tracing.py reads spans or counts of: its name
    tuples, its INFO keys and the literal names its metrics total."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {*tracing.STEP_SPANS, *tracing.HOT, *tracing.EXACT_SOLVES,
             *tracing.INFO}
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "total"
                and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return sorted(names)


def test_bench_traced_names_are_exported():
    # the tracer wraps only what __all__ lists, so a traced name that
    # leaves __all__ or its module reads as an empty metric, not an error
    names = traced_names()
    assert "profile.centered_ks" in names
    lost = []
    for name in names:
        module, attr, *method = name.split(".")
        mod = importlib.import_module(f"frontlab.{module}")
        obj = getattr(mod, attr, None)
        if attr not in mod.__all__ or obj is None:
            lost.append(name)
        elif method:                       # noise.<Law>.sample / log_cdf
            if not inspect.isfunction(vars(obj).get(method[0])):
                lost.append(name)
        elif not (inspect.isfunction(inspect.unwrap(obj))
                  and obj.__module__ == mod.__name__):
            lost.append(name)
    assert lost == []
