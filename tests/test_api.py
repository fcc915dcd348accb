"""Public surface: each module's __all__ names real objects, the only
zero-mean Gaussian type is simulate.GaussianZeroMean (no PowerAllocation),
test oracles live in tests/, the JSON format is read by the CLI alone, and
the bare package import stays free of numpy."""

import ast
import importlib
import inspect
import subprocess
import sys

import pytest

from swipt.moments import MomentProfile

MODULES = ("series", "moments", "rectenna", "simulate", "tradeoff", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"swipt.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert hasattr(module, attr), f"swipt.{name}.{attr}"
    assert "PowerAllocation" not in module.__all__


@pytest.mark.parametrize("name", MODULES)
def test_oracles_live_in_tests(name):
    """Code only tests use lives in tests/oracles.py, not in the package."""
    module = importlib.import_module(f"swipt.{name}")
    for attr in ("half_sample_value", "half_samples_one_fft", "_pad_spectrum", "_upsample",
                 "empirical_profile"):
        assert not hasattr(module, attr), f"swipt.{name}.{attr}"
    assert not hasattr(MomentProfile, "swapped")


@pytest.mark.parametrize("name", MODULES)
def test_json_is_read_by_the_cli_alone(name):
    """No record parses itself from a dict, and only swipt.cli imports json."""
    module = importlib.import_module(f"swipt.{name}")
    for attr, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            assert not hasattr(obj, "from_dict"), f"swipt.{name}.{attr}"
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert ("json" in imported) == (name == "cli")


def test_package_import_is_numpy_free():
    """`import swipt` runs only the package docstring and version."""
    code = "import sys, swipt; print(swipt.__version__, 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0.1.0", "False"]
