"""Public surface: each module's __all__ names real objects, the only
zero-mean Gaussian type is simulate.GaussianZeroMean (no PowerAllocation),
and the bare package import stays free of numpy."""

import importlib
import subprocess
import sys

import pytest

MODULES = ("series", "moments", "rectenna", "simulate", "tradeoff", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"swipt.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert hasattr(module, attr), f"swipt.{name}.{attr}"
    assert "PowerAllocation" not in module.__all__


def test_package_import_is_numpy_free():
    """`import swipt` runs only the package docstring and version."""
    code = "import sys, swipt; print(swipt.__version__, 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0.1.0", "False"]
