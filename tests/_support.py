"""Helpers the test modules share: a traced-memory probe, a fresh-process
CLI runner and the log-uniform Hypothesis strategies."""

import contextlib
import math
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

from hypothesis import strategies as st


@contextlib.contextmanager
def traced_memory():
    """Trace the with block's allocations.  The yielded record's peak and
    held are, after the block, its traced peak and the memory it left held,
    both above what was traced as it began."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    memory = SimpleNamespace()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield memory
        held, peak = tracemalloc.get_traced_memory()
        memory.peak, memory.held = peak - base, held - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def run_cli(*argv, env=None, text=True):
    """`python -m swipt.cli *argv` in a fresh interpreter: its exit code,
    stdout and stderr."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", *argv],
                          capture_output=True, env=env, text=text)
    return proc.returncode, proc.stdout, proc.stderr


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# The 50-digit properties' channel fields and budgets, each log-uniform
# over the decades it spans.
CHANNEL_FIELDS = {"h": log_uniform(1e-3, 1e3), "h_tilde": log_uniform(1e-3, 1e3),
                  "sigma_w2": log_uniform(1e-12, 1e2), "f_w": log_uniform(1e-3, 1e15),
                  "k2": log_uniform(1e-4, 1e2), "k4": log_uniform(1e-4, 1e4)}
LOG_BUDGETS = log_uniform(1e-6, 1e6)

