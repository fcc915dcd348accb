"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces each hook point below with a wrapper wherever a
`swipt` module binds it, so calls made by other package modules and by the
benchmark are both seen, without any edit to the package.  Each call records
a span (name, start, end, parent span, operation id).  Spans stay in memory
until `write()` puts them in a JSON Lines file at the end of the run;
`summary()` reduces them to per-hook call counts, self times and work counts.

A hook point the package no longer has (a later change may drop the SciPy
calls, for instance) is reported as absent, not treated as an error.

Run as a script, this file is the traced `swipt` CLI process:

    python perfbench/tracing.py SPANS.jsonl [swipt arguments...]

It runs `swipt.cli.main` under the tracer and writes its spans to SPANS.jsonl.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("series", "moments", "rectenna", "simulate", "tradeoff", "cli")

# (module, name) as the package looks it up.  simulate.resample,
# simulate.fftconvolve and tradeoff.nnls are the SciPy entry points.
HOOKS = (
    ("cli", "main"),
    ("series", "verify"),
    ("moments", "derived_moments"),
    ("moments", "gaussian_profile"),
    ("rectenna", "coeffs"),
    ("rectenna", "delivered_power"),
    ("rectenna", "delivered_power_gaussian_zero_mean"),
    ("simulate", "draw_symbols"),
    ("simulate", "mc_delivered_power"),
    ("simulate", "mc_q_tilde"),
    ("simulate", "resample"),
    ("simulate", "fftconvolve"),
    ("tradeoff", "rp_region"),
    ("tradeoff", "optimal_allocation"),
    ("tradeoff", "kkt_check"),
    ("tradeoff", "nnls"),
)

# The fields of one span line in a file from `Tracer.write`.
SPAN_FIELDS = ("name", "start", "end", "parent", "op", "philox", "work")

# A solve is one optimal_allocation plus its kkt_check.
SOLVE_SPANS = ("tradeoff.optimal_allocation", "tradeoff.kkt_check")


def _mc_power_detail(args, result):
    n, oversample = int(args["n_symbols"]), int(args["oversample"])
    estimator = args["estimator"]
    generated = n * oversample if estimator == "oversampled" else 2 * n
    work = {"symbols": n, "samples_generated": generated,
            "samples_used": result.n_samples}
    if estimator == "oversampled":
        work["waveform_bytes"] = n * oversample * 16
    return "." + estimator, work


def _q_tilde_detail(args, result):
    return "", {"symbols": int(args["n_blocks"]) * (2 * int(args["window"]) + 1)}


def _sweep_detail(args, result):
    return "", {"sweep_points": int(args["n_points"])}


# Hooks whose arguments and result are read: a span-name suffix and work counts.
_DETAILS = {
    "simulate.mc_delivered_power": _mc_power_detail,
    "simulate.mc_q_tilde": _q_tilde_detail,
    "tradeoff.rp_region": _sweep_detail,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the hook wrappers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.philox = {}   # span index -> np.random.Philox constructions inside it
        self.work = {}     # span index -> work counts from _DETAILS
        self.op_id = -1
        self.absent = []
        self._stack = []
        self._patches = []

    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name):
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        detail = _DETAILS.get(name)
        signature = inspect.signature(fn) if detail else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if detail is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                suffix, tracer.work[i] = detail(bound.arguments, result)
                tracer.name_id[i] = tracer._intern(name + suffix)
            return result

        return traced

    def _count_philox(self, philox):
        tracer = self

        @functools.wraps(philox)
        def counted(*args, **kwargs):
            for i in tracer._stack:
                tracer.philox[i] = tracer.philox.get(i, 0) + 1
            return philox(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every present hook point; record the absent ones."""
        import numpy as np

        modules = [importlib.import_module("swipt")]
        modules += [importlib.import_module(f"swipt.{m}") for m in MODULES]
        self.absent = []
        for module_name, attr in HOOKS:
            home = sys.modules[f"swipt.{module_name}"]
            original = vars(home).get(attr)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        self._patches.append((np.random, "Philox", np.random.Philox))
        np.random.Philox = self._count_philox(np.random.Philox)

    def uninstall(self):
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches = []

    def merge(self, records, op_id):
        """Append spans dumped by a traced child process under `op_id`."""
        base = len(self.start)
        for name, start, end, parent, _, philox, work in records["spans"]:
            i = len(self.start)
            self.name_id.append(self._intern(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
            if philox:
                self.philox[i] = philox
            if work:
                self.work[i] = work
        for hook in records["absent"]:
            if hook not in self.absent:
                self.absent.append(hook)

    def write(self, path):
        """Write the spans as JSON Lines: a header with the absent hook
        points, then one line per span with SPAN_FIELDS."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent, "fields": SPAN_FIELDS}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i], self.philox.get(i, 0),
                                     self.work.get(i)]) + "\n")

    def summary(self):
        """Per span name: calls, self seconds, calls inside a solve, Philox
        constructions and summed work counts."""
        import numpy as np

        n = len(self.start)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.zeros(n)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time

        is_solve_name = np.array([name in SOLVE_SPANS for name in self.names] or [False])
        in_solve = np.zeros(n, dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            in_solve[live] |= is_solve_name[name_id[ancestor[live]]]
            ancestor[live] = parent[ancestor[live]]

        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        solve_calls = np.bincount(name_id[in_solve], minlength=len(self.names))
        out = {name: {"calls": int(calls[k]), "self_s": float(self_s[k]),
                      "calls_in_solve": int(solve_calls[k]), "philox": 0, "work": {}}
               for k, name in enumerate(self.names)}
        for i, count in self.philox.items():
            out[self.names[self.name_id[i]]]["philox"] += count
        for i, work in self.work.items():
            totals = out[self.names[self.name_id[i]]]["work"]
            for key, value in work.items():
                if key == "waveform_bytes":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return out


def read_records(path):
    """The absent hook points and the spans of a file from `Tracer.write`."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return {"absent": header["absent"], "spans": [json.loads(line) for line in fh]}


def _traced_cli(spans_path, argv):
    cli = importlib.import_module("swipt.cli")
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
