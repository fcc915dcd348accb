"""The benchmark's workloads, each run by run.py in a fresh process.

    python perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports what the workload needs, generates its inputs from the
seed, runs one untimed warm-up operation (not for `cli`, whose operations
each pay their own start-up), and prints `ready`: run.py times set-up up to
that line.  It then runs the workload's fixed round of operations in a
closed loop with one client, whole rounds until `--seconds` have passed (the
last one may end after), checks every operation's output, and prints one
JSON line with the counts and metrics.

Workloads, and why each was chosen:

* `cli`: fresh `swipt` processes in a fixed cycle.  Interpreter start and
  imports are most of each call, so import and dependency changes show here.
* `mc`: the Monte-Carlo estimators at n = 1e6 in process.  `simulate`
  dominates and `tradeoff` is never called; only the oversampled estimator
  runs `resample` on the 8x waveform, so resample and streaming changes
  show against `half_rate`.
* `frontier`: sweeps and target solves over seeded random channels.
  `tradeoff`, `rectenna` and `moments` do all the work and `simulate` none;
  sweeps and solves are separate operations, so a faster sweep that slows
  the solve shows.

With `--trace 1` rounds alternate between untraced and traced (at most
MAX_TRACED_ROUNDS traced); per-layer metrics come from the traced rounds,
and the tracing overhead is the difference of the two round times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MAX_TRACED_ROUNDS = 3
CHILD_TIMEOUT_S = 120
# Set to 1 by run.py for every benchmark process.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class Op:
    """One timed operation: `call()` returns the output that `check` inspects.

    An exception raised by `call()` fails the operation, unless it is an
    instance of `raises`; then it is the output passed to `check`.  `known`,
    given the output of a failed check, says whether the failure is the
    operation's known one (checks.KNOWN_FAILURES).
    """

    __slots__ = ("name", "call", "work", "check", "raises", "known")

    def __init__(self, name, call, work, check, raises=None, known=None):
        self.name, self.call, self.work, self.check = name, call, work, check
        self.raises, self.known = raises, known


class CliWorkload:
    """Fresh `swipt` processes: series-verify, power-eval x2, mc-validate, region."""

    name = "cli"
    peak_rss_of = resource.RUSAGE_CHILDREN  # the swipt processes, not the runner

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        # Gaussian profile with independent parts: E[X^p] for p = 1..4.
        profile = {}
        for dim in ("r", "i"):
            mu, var = rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.6)
            profile[f"mu_{dim}"] = mu
            profile[f"P_{dim}"] = mu * mu + var
            profile[f"T_{dim}"] = mu ** 3 + 3.0 * mu * var
            profile[f"Q_{dim}"] = mu ** 4 + 6.0 * mu * mu * var + 3.0 * var * var
        profile_path = scratch / "profile.json"
        profile_path.write_text(json.dumps(profile), encoding="utf-8")
        self.cycle = (
            ("series-verify", ["series-verify", "--n-terms", "1000000"]),
            ("power-eval-dist", ["power-eval", "--dist", '{"kind":"qpsk"}']),
            ("power-eval-profile", ["power-eval", "--profile", str(profile_path)]),
            ("mc-validate", ["mc-validate", "--seed", str(rng.getrandbits(32))]),
            ("region", ["region", "--n-points", "101", "--target", "70", "--target", "80"]),
        )
        self.references = {}
        self.main_s = {}  # op name -> cli.main span seconds, from traced rounds
        self.spans_path = scratch / "spans.jsonl"

    def warm_up(self):
        pass

    def _run(self, argv):
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout

    def _call(self, name, argv, tracer):
        if tracer is None:
            return lambda: self._run(["-m", "swipt.cli", *argv])

        def traced():
            self.spans_path.unlink(missing_ok=True)
            out = self._run([str(Path(__file__).with_name("tracing.py")),
                             str(self.spans_path), *argv])
            records = tracing.read_records(self.spans_path)
            tracer.merge(records, tracer.op_id)
            self.main_s.setdefault(name, []).append(sum(
                end - start for span_name, start, end, *_ in records["spans"]
                if span_name == "cli.main"))
            return out

        return traced

    def _check(self, name):
        def check(out):
            returncode, stdout = out
            reference = self.references.get(name)
            if reference is None:
                self.references[name] = stdout
            return checks.cli_problems(returncode, stdout, reference)
        return check

    def round_ops(self, r, tracer):
        # No work counts: a process's wall time is mostly start-up, so a
        # symbols, sweep-point or solve rate from it would measure start-up.
        return [Op(name, self._call(name, argv, tracer), {}, self._check(name))
                for name, argv in self.cycle]

    def layer_metrics(self, untraced):
        """Interpreter start, import breakdown and per-subcommand wall/main split."""
        interp = statistics.median(_wall([sys.executable, "-c", "pass"]) for _ in range(3))
        imports = [_import_times() for _ in range(3)]
        out = {"cli.interp_start_s": interp}
        for key in imports[0]:
            out[key] = statistics.median(t[key] for t in imports)
        out["cli.main_s"] = 0.0
        for name, _ in self.cycle:
            main_s = statistics.median(self.main_s.get(name, [0.0]))
            out["cli.main_s"] += main_s
            out[f"cli.{name}.main_s"] = main_s
            out[f"cli.{name}.wall_s"] = statistics.median(untraced.by_name[name])
        return out


def _wall(argv):
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def _import_times():
    """`python -X importtime -c "import swipt.cli"`: total and per-package self times."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import swipt.cli"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    total, by_package = 0.0, {"numpy": 0.0, "scipy": 0.0, "swipt": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        module = fields[2].strip()
        if module == "swipt.cli":
            total = int(fields[1]) / 1e6
        package = module.split(".")[0]
        if package in by_package:
            by_package[package] += int(fields[0]) / 1e6
    out = {"cli.import_s": total}
    for package, seconds in by_package.items():
        out[f"cli.import.{package}_s"] = seconds
    return out


class McWorkload:
    """Both Monte-Carlo estimators on the four acceptance-gate inputs, the
    mid-sample fourth moment, and one high-noise oversampled run."""

    name = "mc"
    peak_rss_of = resource.RUSAGE_SELF
    N_SYMBOLS, OVERSAMPLE, WINDOW, Q_BLOCKS = 1_000_000, 8, 128, 10_000
    WARM_UP_SYMBOLS = 10_000

    def __init__(self, seed, scratch):
        from swipt import moments, rectenna, simulate

        self.simulate = simulate
        rng = random.Random(seed)
        ch = self.channel = rectenna.ChannelParams()
        dists = (
            ("gaussian_symmetric", simulate.GaussianZeroMean(0.5, 0.5)),
            ("gaussian_asymmetric", simulate.GaussianZeroMean(1.0, 0.0)),
            ("gaussian_nonzero_mean", simulate.GaussianGeneral(0.5, 0.0, 0.5, 0.25)),
            ("qpsk", simulate.FiniteConstellation.qpsk()),
        )
        self.ops = []
        for label, dist in dists:
            mc_seed = rng.getrandbits(63)
            closed = simulate.closed_form_delivered_power(dist, ch)
            for estimator in ("oversampled", "half_rate"):
                self.ops.append(self._power_op(f"mc_delivered_power/{label}/{estimator}",
                                               dist, ch, mc_seed, estimator, closed))
        for label, dist in (dists[0], dists[3]):
            mc_seed = rng.getrandbits(63)
            closed = moments.q_tilde(simulate.profile_of(dist))
            self.ops.append(_z_op(f"mc_q_tilde/{label}", self._q_tilde_call(dist, mc_seed),
                                  {}, closed))
        noisy = rectenna.ChannelParams(sigma_w2=0.5)
        self.ops.append(self._power_op(
            "mc_delivered_power/gaussian_symmetric/oversampled/sigma_w2=0.5", dists[0][1],
            noisy, rng.getrandbits(63), "oversampled",
            simulate.closed_form_delivered_power(dists[0][1], noisy)))

    def _power_op(self, name, dist, ch, mc_seed, estimator, closed):
        def call():
            return self.simulate.mc_delivered_power(
                dist, ch, self.N_SYMBOLS, self.OVERSAMPLE, mc_seed,
                window=self.WINDOW, estimator=estimator)
        return _z_op(name, call, {"symbols": self.N_SYMBOLS}, closed)

    def _q_tilde_call(self, dist, mc_seed):
        return lambda: self.simulate.mc_q_tilde(dist, self.Q_BLOCKS, self.WINDOW, mc_seed)

    def warm_up(self):
        """One oversampled call at WARM_UP_SYMBOLS: every code path, little work."""
        dist, ch = self.simulate.GaussianZeroMean(0.5, 0.5), self.channel
        self.simulate.mc_delivered_power(dist, ch, self.WARM_UP_SYMBOLS, self.OVERSAMPLE, 0,
                                         window=self.WINDOW)

    def round_ops(self, r, tracer):
        return self.ops


def _z_op(name, call, work, closed):
    """An operation returning a Monte-Carlo estimate, checked by its z."""
    return Op(name, call, work,
              lambda est: checks.z_problems(est.mean, est.std_error, closed),
              known=lambda est: checks.is_known_failure(
                  name, checks.z_score(est.mean, est.std_error, closed)))


class FrontierWorkload:
    """Frontier sweeps and target solves over seeded random channels."""

    name = "frontier"
    peak_rss_of = resource.RUSAGE_SELF
    P_A, SWEEP_POINTS, CHANNELS, CHANNELS_PER_ROUND = 1.0, 10_000, 64, 8

    def __init__(self, seed, scratch):
        import numpy as np
        from swipt import moments, rectenna, tradeoff

        self.tradeoff = tradeoff
        self.check_power = lambda p_r, p_i, ch: rectenna.delivered_power(
            moments.gaussian_profile(0.0, 0.0, p_r, p_i), ch)
        rng = np.random.default_rng(seed)
        self.channels = []
        for _ in range(self.CHANNELS):
            h, h_tilde = (complex(*rng.standard_normal(2)) / math.sqrt(2.0) for _ in range(2))
            ch = rectenna.ChannelParams(h=h, h_tilde=h_tilde,
                                        sigma_w2=10.0 ** rng.uniform(-5.0, -1.0))
            lo, hi = tradeoff.pdc_min(self.P_A, ch), tradeoff.pdc_max(self.P_A, ch)
            targets = [("interior", lo + (hi - lo) * (k + rng.uniform()) / 15.0)
                       for k in range(15)]
            targets += [("corner", hi * (1.0 - 5e-7)), ("below", 0.5 * lo),
                        ("above", hi * (1.0 + 1e-3))]
            self.channels.append((ch, targets))

    def _sweep_op(self, ch):
        def call():
            return self.tradeoff.rp_region(self.P_A, ch, self.SWEEP_POINTS)

        def check(points):
            return checks.sweep_problems([p.rate for p in points],
                                         [p.power for p in points])
        return Op("rp_region", call, {"sweep_points": self.SWEEP_POINTS}, check)

    def _solve_op(self, ch, kind, target):
        def call():
            alloc = self.tradeoff.optimal_allocation(self.P_A, target, ch)
            return alloc, self.tradeoff.kkt_check(alloc, 0.0, 0.0, self.P_A, target, ch)

        infeasible = self.tradeoff.Infeasible
        if kind == "above":
            return Op("solve/above", call, {"solves": 1},
                      lambda outcome: checks.infeasible_problems(outcome, infeasible),
                      raises=infeasible)

        def check(outcome):
            alloc, report = outcome
            delivered = self.check_power(alloc.P_r, alloc.P_i, ch)
            return (checks.power_miss_problems(delivered, target, may_exceed=kind == "below")
                    + checks.kkt_problems(report))
        return Op(f"solve/{kind}", call, {"solves": 1}, check)

    def warm_up(self):
        ch, targets = self.channels[-1]
        self._solve_op(ch, *targets[0]).call()
        self._sweep_op(ch).call()

    def round_ops(self, r, tracer):
        ops = []
        for c in range(self.CHANNELS_PER_ROUND):
            ch, targets = self.channels[(r * self.CHANNELS_PER_ROUND + c) % self.CHANNELS]
            ops.append(self._sweep_op(ch))
            ops += [self._solve_op(ch, kind, target) for kind, target in targets]
        return ops


WORKLOADS = {w.name: w for w in (CliWorkload, McWorkload, FrontierWorkload)}


class Rounds:
    """Timings of one kind of round (traced or untraced).

    Latency percentiles are taken per round, over its fixed mix of
    operations, and averaged over rounds.  A shared virtual machine can flip
    between a fast and a slower CPU state every few seconds (1.7x apart on
    the 2-vCPU machine this was tuned on).  A percentile pooled over a run
    then jumps between the two states' values with the share of time spent
    in each, while the round average moves in proportion to that share.
    """

    def __init__(self):
        self.walls = []
        self.p50s = []
        self.p90s = []
        self.ops = 0
        self.by_name = {}
        self.work = {}  # work key -> [amount, seconds of the ops doing it]

    def add(self, wall, timed):
        self.walls.append(wall)
        latencies = [seconds for _, seconds, _ in timed]
        self.p50s.append(statistics.median(latencies))
        self.p90s.append(statistics.quantiles(latencies, n=10, method="inclusive")[8])
        self.ops += len(timed)
        for op, seconds, _ in timed:
            self.by_name.setdefault(op.name, []).append(seconds)
            for key, amount in op.work.items():
                acc = self.work.setdefault(key, [0, 0.0])
                acc[0] += amount
                acc[1] += seconds

    def rate(self, key):
        amount, seconds = self.work.get(key, (0, 0.0))
        return amount / seconds if seconds else 0.0


def run_round(workload, r, tracer, tally):
    ops = workload.round_ops(r, tracer)
    timed = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # the outcome is checked below, like any output
                out = exc
            timed.append((op, time.perf_counter() - t0, out))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, _, out in timed:
        if isinstance(out, Exception) and not (op.raises and isinstance(out, op.raises)):
            tally.record(op.name, [f"raised {out!r}"])
            continue
        problems = op.check(out)
        tally.record(op.name, problems, known=bool(problems and op.known and op.known(out)))
    return wall, timed


def measure(workload, seconds, trace):
    tally = checks.Tally()
    untraced, traced = Rounds(), Rounds()
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    r = 0
    while True:
        use_tracer = tracer if trace and r % 2 and len(traced.walls) < MAX_TRACED_ROUNDS else None
        wall, timed = run_round(workload, r, use_tracer, tally)
        (traced if use_tracer else untraced).add(wall, timed)
        r += 1
        # Whole rounds until `seconds` have passed; the last one may end after.
        if time.perf_counter() - start >= seconds and (not trace or traced.walls):
            break

    info = {"rounds": len(untraced.walls), "traced_rounds": len(traced.walls),
            "ops_per_round": len(timed), "op_samples": untraced.ops,
            "failures": dict(tally.failures),
            "unexpected_failures": sorted(tally.unexpected)}
    metrics = {"failed_frac": tally.failed / tally.attempted}
    if not trace:
        metrics.update({
            "symbols_per_s": untraced.rate("symbols"),
            "solves_per_s": untraced.rate("solves"),
            "sweep_points_per_s": untraced.rate("sweep_points"),
            "wall_s": statistics.fmean(untraced.walls),
            "op_p50_s": statistics.fmean(untraced.p50s),
            "op_p90_s": statistics.fmean(untraced.p90s),
            "ops_per_s": untraced.ops / sum(untraced.walls),
            "peak_rss_mb": resource.getrusage(workload.peak_rss_of).ru_maxrss / 1024.0,
        })
    else:
        metrics.update(layer_metrics(workload, tracer, untraced, traced))
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
        info["absent_hooks"] = tracer.absent
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "info": info}


# Span names reported per layer as `<name>.calls` and `<name>.self_s`.
LAYER_SPANS = (
    "series.verify",
    "moments.derived_moments", "moments.gaussian_profile",
    "rectenna.coeffs", "rectenna.delivered_power",
    "rectenna.delivered_power_gaussian_zero_mean",
    "simulate.draw_symbols", "simulate.mc_delivered_power.oversampled",
    "simulate.mc_delivered_power.half_rate", "simulate.mc_q_tilde",
    "simulate.resample", "simulate.fftconvolve",
    "tradeoff.rp_region", "tradeoff.optimal_allocation", "tradeoff.kkt_check",
    "tradeoff.nnls",
)
# Span names also reported as calls per solve.
PER_SOLVE_SPANS = ("moments.derived_moments", "moments.gaussian_profile",
                   "rectenna.coeffs", "rectenna.delivered_power")
CLI_LAYER_METRICS = (
    "cli.interp_start_s", "cli.import_s", "cli.import.numpy_s", "cli.import.scipy_s",
    "cli.import.swipt_s", "cli.main_s",
) + tuple(f"cli.{name}.{kind}" for name in ("series-verify", "power-eval-dist",
                                             "power-eval-profile", "mc-validate", "region")
          for kind in ("wall_s", "main_s"))


def layer_metrics(workload, tracer, untraced, traced):
    """Per-layer metrics, per traced round; zero for a layer the workload
    does not call."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "calls_in_solve": 0, "philox": 0, "work": {}}
    rounds = len(traced.walls)
    out = {}
    for name in LAYER_SPANS:
        s = summary.get(name, empty)
        out[f"{name}.calls"] = s["calls"] / rounds
        out[f"{name}.self_s"] = s["self_s"] / rounds

    solves = summary.get("tradeoff.optimal_allocation", empty)["calls"]
    for name in PER_SOLVE_SPANS:
        in_solve = summary.get(name, empty)["calls_in_solve"]
        out[f"{name}.calls_per_solve"] = in_solve / solves if solves else 0.0
    evals = summary.get("rectenna.delivered_power_gaussian_zero_mean", empty)["calls_in_solve"]
    out["tradeoff.evals_per_solve"] = evals / solves if solves else 0.0

    def summed(names, key):
        return sum(summary.get(n, empty)["work"].get(key, 0) for n in names)

    mc_power = ("simulate.mc_delivered_power.oversampled",
                "simulate.mc_delivered_power.half_rate")
    for label, names in (("mc_delivered_power", mc_power),
                         ("mc_q_tilde", ("simulate.mc_q_tilde",))):
        symbols = summed(names, "symbols")
        philox = sum(summary.get(n, empty)["philox"] for n in names)
        out[f"simulate.{label}.philox_per_ksymbol"] = 1e3 * philox / symbols if symbols else 0.0
    out["simulate.waveform_bytes"] = float(
        summary.get(mc_power[0], empty)["work"].get("waveform_bytes", 0))
    generated = summed(mc_power, "samples_generated")
    out["simulate.samples_used_frac"] = (
        summed(mc_power, "samples_used") / generated if generated else 0.0)

    out["simulate.symbols_per_s"] = untraced.rate("symbols")
    out["tradeoff.solves_per_s"] = untraced.rate("solves")
    out["tradeoff.sweep_points_per_s"] = untraced.rate("sweep_points")

    out["trace.untraced_wall_s"] = statistics.fmean(untraced.walls)
    out["trace.traced_wall_s"] = statistics.fmean(traced.walls)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    out["trace.spans_per_round"] = len(tracer.start) / rounds
    out["trace.absent_hooks"] = float(len(tracer.absent))

    out.update(dict.fromkeys(CLI_LAYER_METRICS, 0.0))
    if isinstance(workload, CliWorkload):
        out.update(workload.layer_metrics(untraced))
    return out


def environment():
    pins = {k: os.environ.get(k) for k in THREAD_PINS}
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], **versions, "thread_pins": pins}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        workload.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, args.trace)
    result["info"]["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
