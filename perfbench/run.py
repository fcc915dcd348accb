"""Benchmark of the `swipt` package, built from the `src/` of this checkout.

    python3 perfbench/run.py --workload {cli,mc,frontier,all} --seed N --seconds S --trace 0|1

Each workload runs in its own fresh process (perfbench/workloads.py) with
BLAS and OpenMP pinned to one thread.  Set-up time is measured SETUP_SAMPLES
times per run, from process spawn to the workload's `ready` line, each in
a fresh process, and reported as the median.  The run prints a table of
every metric with its unit, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists: the
end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.

Exit code 0 on a completed run; 1 if a workload process fails; 2 if the
checkout has no `src/swipt` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import THREAD_PINS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = Path(__file__).with_name("workloads.py")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """A workload process failed or the checkout cannot be benchmarked."""


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args, setup_only, env):
    """Run one workload process; return (seconds until `ready`, result or None)."""
    argv = [sys.executable, str(WORKLOADS_PY), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    # Own session, so a timeout also stops the CLI processes a workload starts.
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchError(f"{args.workload}: no ready line within {SETUP_TIMEOUT_S} s")
            out, _ = proc.communicate(timeout=args.seconds + 120)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args.workload}: no result within {args.seconds + 120} s") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: workload process exited {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(out.splitlines()[-1]))


def run_workload(args, spec):
    env = child_env()
    # Set-up samples before and after the measured process, so they span the run.
    setups = [spawn(args, True, env)[0] for _ in range(SETUP_SAMPLES // 2)]
    setup_s, result = spawn(args, False, env)
    setups.append(setup_s)
    setups += [spawn(args, True, env)[0] for _ in range((SETUP_SAMPLES - 1) // 2)]
    result["metrics"]["setup_s"] = statistics.median(setups)
    print_table(args, result)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in result["metrics"] or unit_of(name) != entry["unit"]:
            raise BenchError(f"metric {name!r} is not computed with unit {entry['unit']!r}")
        metrics[name] = {"value": result["metrics"][name], "unit": entry["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_table(args, result):
    info = result["info"]
    env = info["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']} (affinity {env['affinity']})  threads pinned to "
          f"{env['thread_pins']['OMP_NUM_THREADS']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"  rounds {info['rounds']} untraced, {info['traced_rounds']} traced; "
          f"{info['ops_per_round']} ops per round; {info['op_samples']} latency samples; "
          f"setup median of {SETUP_SAMPLES} processes")
    for name in sorted(result["metrics"]):
        print(f"  {name:<52} {result['metrics'][name]:>14.6g} {unit_of(name)}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for name, problems in info["failures"].items():
        known = "" if name in info["unexpected_failures"] else " (known)"
        print(f"  failed{known}: {name}: {'; '.join(problems)}")
    for hook in info.get("absent_hooks", ()):
        print(f"  absent hook point: {hook}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swipt" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {ROOT / 'src' / 'swipt'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                         spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
