"""Public surface: each module's __all__ names real objects, the only
zero-mean Gaussian type is moments.GaussianZeroMean (no PowerAllocation),
which simulate exports too, every public function runs outside tests and
test oracles live in tests/, the JSON format is read by the CLI alone, the
bare package import stays free of numpy, and so do the CLI runs that build
no array; a rejected input raises ValueError."""

import ast
import importlib
import inspect
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from swipt.moments import MomentProfile
from swipt.rectenna import ChannelParams
from swipt.tradeoff import Infeasible, RPPoint

MODULES = ("series", "moments", "rectenna", "simulate", "tradeoff", "cli")
ROOT = Path(__file__).resolve().parents[1]


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
                 "empirical_profile", "mc_even_fourth_moment", "fourth_moment_even",
                 "delivered_power_gaussian_zero_mean", "_finite_nonnegative",
                 "partial_sum", "analytic_value", "SERIES_IDS"):
        assert not hasattr(module, attr), f"swipt.{name}.{attr}"
    assert not hasattr(MomentProfile, "swapped")
    assert not hasattr(RPPoint, "allocation")


def _loaded_names(source):
    # Names a source reads as a variable or an attribute.  Imports, defs,
    # assignments and strings (an __all__ entry, a docstring) are not uses.
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def _outside_test_uses():
    # Every name read by package code or by the benchmark under perfbench/,
    # and the function the `swipt` entry point names ("swipt.cli:main").
    sources = [inspect.getsource(importlib.import_module(f"swipt.{name}"))
               for name in MODULES]
    sources += [path.read_text() for path in (ROOT / "perfbench").glob("*.py")
                if not path.name.startswith("test_")]
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    return set().union(*map(_loaded_names, sources),
                       (target.partition(":")[2] for target in scripts.values()))


def _public_functions():
    # (module, name) for each function listed in __all__ where it is
    # defined: a re-export is checked in its own module.
    for name in MODULES:
        module = importlib.import_module(f"swipt.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield pytest.param(name, attr, id=f"{name}.{attr}")


_OUTSIDE_TEST_USES = _outside_test_uses()


@pytest.mark.parametrize("name, attr", _public_functions())
def test_public_functions_run_outside_tests(name, attr):
    """Every public function is used by package code, the `swipt` entry
    point or perfbench/, not only by tests: what only tests call belongs in
    tests/oracles.py."""
    assert attr in _OUTSIDE_TEST_USES, f"swipt.{name}.{attr} is used only by tests"


def test_tradeoff_builds_no_moment_profile():
    """tradeoff evaluates one power expression, rectenna's zero-mean
    Gaussian quadratic (kkt_check less its closed-form mean term), and
    never goes through a moment profile."""
    from swipt import tradeoff

    for attr in ("derived_moments", "gaussian_profile", "_power", "MomentProfile"):
        assert not hasattr(tradeoff, attr), f"swipt.tradeoff.{attr}"


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


def test_one_zero_mean_gaussian_type():
    """The input types live in moments; simulate and tradeoff use them."""
    from swipt import moments, simulate, tradeoff

    for name in ("GaussianZeroMean", "GaussianGeneral", "FiniteConstellation",
                 "profile_of"):
        assert getattr(simulate, name) is getattr(moments, name)
        assert name in simulate.__all__
    alloc = tradeoff.optimal_allocation(1.0, 1.0, ChannelParams())
    assert type(alloc) is moments.GaussianZeroMean


_PROFILE = ('{"mu_r": 0, "mu_i": 0, "P_r": 0.5, "P_i": 0.5, '
            '"T_r": 0, "T_i": 0, "Q_r": 0.75, "Q_i": 0.75}')
_CONSTELLATION = '{"kind": "constellation", "points": [[1, 0], [0, -1]], "probs": [0.25, 0.75]}'


@pytest.mark.parametrize("argv, code", [
    pytest.param(["power-eval", "--profile", _PROFILE], 0, id="power-eval-profile"),
    pytest.param(["power-eval", "--dist", '{"kind": "qpsk"}'], 0, id="power-eval-qpsk"),
    pytest.param(["power-eval", "--dist", _CONSTELLATION], 0, id="power-eval-constellation"),
    pytest.param(["power-eval", "--dist", '{"kind": "gaussian", "mu_r": 0.5, "var_i": 0.25}'],
                 0, id="power-eval-gaussian"),
    pytest.param(["region", "--dump-config"], 0, id="dump-config"),
    pytest.param(["region", "--config", '{"P_a": -1}'], 2, id="config-error"),
    pytest.param(["mc-validate", "--config", '{"P_a": 1e154}'], 2, id="overflowing-budget"),
])
def test_cli_runs_without_arrays_leave_numpy_unloaded(argv, code):
    """power-eval, --dump-config and a config error finish, in a fresh
    process, with numpy never imported."""
    script = ("import sys\n"
              "from swipt.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print('numpy' in sys.modules, file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == "False"
    assert (proc.stdout != "") == (code == 0)


@pytest.mark.parametrize("message", [
    "P_a must be positive and finite", "overflows the delivered power",
    "P_d must be finite", "leaves the float range", "must be at most", "must be >= {",
    "2|h|^2/(f_w*sigma_w2) is not finite", "has no finite delivered power",
    "is not finite at these powers",
])
def test_each_input_rule_has_one_owner(message):
    """Each input rule is written once in the package: the budget, its
    overflow bound and the target in rectenna, the float range in simulate,
    sizes in moments._integer, the SNR slope in tradeoff._snr_gain, the
    rate in tradeoff._rate and the candidate in tradeoff.kkt_check."""
    sources = [inspect.getsource(importlib.import_module(f"swipt.{name}"))
               for name in MODULES]
    assert sum(source.count(message) for source in sources) == 1


def test_rejected_input_is_a_value_error():
    """Every input rule raises ValueError itself, which the CLI turns into
    exit 2: the only exception class any module holds is
    tradeoff.Infeasible, a ValueError for a target no split reaches."""
    held = {f"swipt.{name}.{attr}": obj
            for name in MODULES
            for attr, obj in vars(importlib.import_module(f"swipt.{name}")).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException)}
    assert held == {"swipt.tradeoff.Infeasible": Infeasible}
    assert issubclass(Infeasible, ValueError)
