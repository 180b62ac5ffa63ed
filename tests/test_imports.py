"""What importing frontlab gives: every name its modules export, and no
scipy until a call needs it."""

import importlib
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
        "from frontlab import gumbel_exact\n"
        "from frontlab.noise import SandwichedGumbelLaw\n"
        "print(repr(gumbel_exact.constant_C()))\n"
        f"print({SCIPY_MODULES})\n"
        "x = np.linspace(-3, 3, 7)\n"
        "print(*SandwichedGumbelLaw(-0.3, 0.3).log_cdf(x))\n"
        "print(gumbel_exact.b_of_N(10))\n"
        f"print(bool({SCIPY_MODULES}))")
    # C = 1 - gamma is a closed form: no scipy
    assert out[:2] == ["0.42278433509846713", "[]"]
    assert out[4] == "True"
    # values from when scipy was imported at module level
    log_cdf = [-17.13038301817754, -6.818052097921876, -2.6516135771467884,
               -0.9999337948775562, -0.37135338183502775,
               -0.13709355159683512, -0.0504991831952587]
    np.testing.assert_allclose([float(v) for v in out[2].split()], log_cdf,
                               rtol=1e-13)
    np.testing.assert_allclose(float(out[3]), 18.229239584193905, rtol=1e-13)


@pytest.mark.parametrize("module", [
    m.name for m in pkgutil.iter_modules(frontlab.__path__)])
def test_every_exported_name_exists(module):
    # the bench tracer calls getattr on every __all__ name
    mod = importlib.import_module(f"frontlab.{module}")
    assert [name for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []
