"""Command-line front end.

Four subcommands tie the library together: `series-verify` checks the
closed-form constants against their partial sums, `power-eval` prints the
delivered-power breakdown for a moment profile or input distribution,
`mc-validate` cross-checks both Monte-Carlo estimators against the closed
form, and `region` tabulates the rate/power frontier (plus an optional solve
per delivered-power target).

Configuration is one JSON document.  Command-line flags are merged into it,
overriding the file's values, and the result is checked by one reader,
from_json.
Every subcommand writes through one writer, _write, at full double
precision, so a fixed seed reproduces output byte-for-byte; a non-finite
number is an error, not output.  Exit codes: 0 all checks passed, 1 a
validation check failed, 2 a usage error or an input rejected by ValueError.

Only moments and rectenna, which import no numpy, load with this module;
series-verify, mc-validate and region each import the array module they
run (series, simulate, tradeoff).  power-eval, --dump-config and a config
error thus finish without importing numpy, in about half the time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from collections.abc import Iterator
from dataclasses import dataclass

from .moments import (
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    MomentProfile,
    _check_seed,
    _integer,
    derived_moments,
    profile_of,
)
from .rectenna import ChannelParams, _budget, _power, coeffs, delivered_power

__all__ = ["main"]


def _reject_unknown(data, known, what):
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")


def _value(kind, value, name):
    # value converted to the annotated type kind; a bad value names its field.
    args = typing.get_args(kind)
    if dataclasses.is_dataclass(kind):
        return from_json(kind, value, name)
    if type(None) in args:
        return None if value is None else _value(args[0], value, name)
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
        return value
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(_value(args[0], v, f"{name}[{i}]") for i, v in enumerate(value))
    if kind is complex and isinstance(value, list) and len(value) == 2:
        return complex(_value(float, value[0], f"{name}[0]"),
                       _value(float, value[1], f"{name}[1]"))
    numbers = (int, float, complex) if kind is complex else (int, float)
    if isinstance(value, bool) or not isinstance(value, numbers):
        expected = {int: "an integer", float: "a number",
                    complex: "a number or an [re, im] pair"}[kind]
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    try:
        return _integer(value, name) if kind is int else kind(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value!r}") from None


def from_json(cls, data, what):
    """A cls record from a parsed JSON object, its fields converted by annotation.

    Integers accept integral floats such as 2e5, complex numbers an [re, im]
    pair or a plain number; fields with defaults may be left out.  A bad
    value raises ValueError naming its path under what, such as config.mc.seed,
    or, from a record's own rule, its field, such as mc.n_symbols or sigma_w2.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    fields = dataclasses.fields(cls)
    _reject_unknown(data, [f.name for f in fields], what)
    missing = [f.name for f in fields
               if f.name not in data and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    kinds = typing.get_type_hints(cls)
    return cls(**{key: _value(kinds[key], value, f"{what}.{key}")
                  for key, value in data.items()})


# Largest accepted sizes, checked before anything is allocated.  Each keeps
# the largest run at or below about 2 GB of peak memory at its measured cost
# per unit (see README's table): 16 B per series term (0.8 GB at the bound),
# 1.6 kB per JSON sweep point, 50 B per Monte-Carlo symbol, and 200 B per
# unit of window on top of that.
# Memory does not grow with oversample, but time does, linearly.  The 50 B
# per symbol holds for sizes with a divisor near their square root, as
# round sizes have; any other size, a prime above all, takes one
# full-length Bluestein FFT per transform, about 176 MB and 3.6 s per
# oversampled call at 999 983 symbols, and is not bounded separately.
_MAX_N_TERMS = 50_000_000
_MAX_N_POINTS = 1_000_000
_MAX_N_SYMBOLS = 15_000_000
_MAX_WINDOW = 5_000_000
_MAX_OVERSAMPLE = 1024


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run sizing and seeding."""

    n_symbols: int = 200_000
    oversample: int = 8
    window: int = 128
    seed: int = 12345

    def __post_init__(self):
        _check_seed(self.seed)
        _integer(self.n_symbols, "mc.n_symbols", hi=_MAX_N_SYMBOLS)
        _integer(self.oversample, "mc.oversample", hi=_MAX_OVERSAMPLE)
        _integer(self.window, "mc.window", hi=_MAX_WINDOW)


@dataclass(frozen=True)
class SweepConfig:
    """Frontier sweep resolution."""

    n_points: int = 101

    def __post_init__(self):
        _integer(self.n_points, "sweep.n_points", hi=_MAX_N_POINTS)


@dataclass(frozen=True)
class OutputConfig:
    """Where and how results are written; path None means stdout."""

    format: str = "json"
    path: str | None = None

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ValueError(f"output format must be json or csv, got {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs: channel, budget, targets, sizing, output."""

    channel: ChannelParams = ChannelParams()
    P_a: float = 1.0
    targets: tuple[float, ...] = ()
    mc: McConfig = McConfig()
    sweep: SweepConfig = SweepConfig()
    output: OutputConfig = OutputConfig()

    def __post_init__(self):
        P_a, _ = _budget(coeffs(self.channel), self.P_a)
        object.__setattr__(self, "P_a", P_a)
        targets = tuple(float(t) for t in self.targets)
        if not all(math.isfinite(t) for t in targets):
            raise ValueError(f"targets must be finite, got {list(targets)!r}")
        object.__setattr__(self, "targets", targets)


def distribution_from_spec(data):
    """Input distribution from a JSON-style spec dict.

    Kinds: gaussian_zero_mean {P_r, P_i}; gaussian {mu_r, mu_i, var_r, var_i}
    (left-out fields are 0); qpsk {}; constellation {points: [[re, im], ...],
    probs optional, equiprobable when left out or null}.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("distribution spec must be an object with a 'kind' key")
    kind = data["kind"]
    rest = {k: v for k, v in data.items() if k != "kind"}
    if kind in ("gaussian_zero_mean", "gaussian"):
        cls = GaussianZeroMean if kind == "gaussian_zero_mean" else GaussianGeneral
        zeros = {f.name: 0.0 for f in dataclasses.fields(cls)}
        return from_json(cls, {**zeros, **rest}, "distribution")
    if kind == "qpsk":
        _reject_unknown(rest, (), "distribution")
        return FiniteConstellation.qpsk()
    if kind == "constellation":
        return from_json(FiniteConstellation, rest, "distribution")
    raise ValueError(f"unknown distribution kind {kind!r}")


def _load_json(text, what):
    """Parse an argument that is either inline JSON or a path to a JSON file."""
    stripped = text.strip()
    try:
        if stripped.startswith(("{", "[")):
            return json.loads(stripped)
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {text!r} is not valid JSON: {exc}") from exc


def _emit(text, path):
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output {path!r}: {exc.strerror}") from exc


def _complex_pair(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_NON_FINITE = "output holds a non-finite number; nothing written"


def _json_text(payload, indent=2):
    try:
        return json.dumps(payload, indent=indent, default=_complex_pair, allow_nan=False)
    except ValueError:
        raise ValueError(_NON_FINITE) from None


def _csv_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(_NON_FINITE)
    return value if isinstance(value, str) else repr(value)


def _csv_text(records):
    lines = []
    for record in records:
        if not lines:
            lines.append(",".join(record))
        lines.append(",".join(map(_csv_cell, record.values())))
    return "\n".join(lines)


def _write(config, payload, records, csv_stderr=()):
    """Write one command's result as config.output.format asks.

    JSON prints payload, a dict, with a stream of records in it listed.  CSV
    prints records, dicts read once, as one table headed by their keys, then
    each csv_stderr line on stderr.  A non-finite number in what would be
    written raises ValueError before any of it is.
    """
    if config.output.format == "csv":
        _emit(_csv_text(records), config.output.path)
        for line in csv_stderr:
            print(line, file=sys.stderr)
    else:
        # Listed here, not by json's default hook, which would pass every
        # chunk of a 1e6-point sweep through two more generators (+15% time).
        _emit(_json_text({key: list(value) if isinstance(value, Iterator) else value
                          for key, value in payload.items()}), config.output.path)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swipt",
        description="Wireless information + power transfer: series checks, "
                    "harvested-power evaluation, Monte-Carlo validation, and "
                    "the rate/power frontier.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="JSON|PATH", help="JSON config")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--format", choices=("json", "csv"),
                       help="override output.format")
        p.add_argument("--out", metavar="PATH", help="override output.path")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved config as JSON and exit")

    p = sub.add_parser("series-verify",
                       help="check the nine coefficient-series constants")
    common(p)
    p.set_defaults(run=cmd_series_verify)
    p.add_argument("--n-terms", type=int, default=1_000_000,
                   help="truncation window half-width (default 1e6)")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="pass threshold on |error| (default 1e-4)")

    p = sub.add_parser("power-eval",
                       help="delivered-power breakdown for a profile or distribution")
    common(p)
    p.set_defaults(run=cmd_power_eval)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", metavar="JSON|PATH",
                       help="moment profile (mu_r, mu_i, P_r, P_i, T_r, T_i, Q_r, Q_i)")
    group.add_argument("--dist", metavar="JSON|PATH",
                       help="input distribution spec (see distribution_from_spec)")

    p = sub.add_parser("mc-validate",
                       help="compare both Monte-Carlo estimators to the closed form")
    common(p)
    p.set_defaults(run=cmd_mc_validate)
    p.add_argument("--dist", metavar="JSON|PATH",
                   help="input distribution spec; default gaussian_zero_mean "
                        "with P_r = P_i = P_a/2")

    p = sub.add_parser("region",
                       help="sweep the rate/power frontier, optionally solving targets")
    common(p)
    p.set_defaults(run=cmd_region)
    p.add_argument("--n-points", type=int, help="override sweep.n_points")
    p.add_argument("--target", type=float, action="append", dest="targets",
                   metavar="P_D", help="delivered-power target (repeatable; "
                                       "overrides config targets)")
    return parser


# Each flag's place in the config document; a flag given overrides the file.
_FLAG_PATHS = {
    "seed": ("mc", "seed"),
    "format": ("output", "format"),
    "out": ("output", "path"),
    "n_points": ("sweep", "n_points"),
    "targets": ("targets",),
}


def _resolved_config(args):
    data = _load_json(args.config, "config") if args.config else {}
    for flag, (*sections, key) in _FLAG_PATHS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        node = data
        for section in sections:
            # A section that is no object is left for from_json to reject.
            node = node.setdefault(section, {}) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[key] = value
    return from_json(RunConfig, data, "config")


def cmd_series_verify(args, config):
    _integer(args.n_terms, "n_terms", hi=_MAX_N_TERMS)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {args.tol!r}")
    from .series import verify

    reports = [dataclasses.asdict(r) for r in verify(args.n_terms)]
    failed = [r["id"] for r in reports if r["abs_error"] > args.tol]
    _write(config, {"n_terms": args.n_terms, "tolerance": args.tol,
                    "reports": reports, "failed": failed, "pass": not failed},
           reports, [f"failed: {','.join(failed)}"] if failed else [])
    return 1 if failed else 0


def cmd_power_eval(args, config):
    if args.profile is not None:
        data = _load_json(args.profile, "profile")
        profile = from_json(MomentProfile, data, "profile")
    else:
        dist = distribution_from_spec(_load_json(args.dist, "distribution"))
        profile = profile_of(dist)
    c, d = coeffs(config.channel), derived_moments(profile)
    report = {**dataclasses.asdict(c), "Q": d.Q, "Q_tilde": d.Q_tilde, "P": d.P,
              "P_del": _power(c, d)}
    _write(config, report, [report])
    return 0


def cmd_mc_validate(args, config):
    """Both Monte-Carlo estimators against the closed form.

    The two estimates come from one draw of the symbols and both noises:
    the draws, the mid-samples and the channel outputs are made and held
    once, not once per estimator, which saves the slowest part of a second
    run.  Each estimate keeps the bytes of its own mc_delivered_power call.
    """
    from .simulate import ESTIMATORS, _mc_delivered_powers, closed_form_delivered_power

    if args.dist is not None:
        dist = distribution_from_spec(_load_json(args.dist, "distribution"))
    else:
        dist = GaussianZeroMean(0.5 * config.P_a, 0.5 * config.P_a)
    closed_form = closed_form_delivered_power(dist, config.channel)
    estimates = _mc_delivered_powers(
        dist, config.channel, config.mc.n_symbols, config.mc.oversample,
        config.mc.seed, config.mc.window, ESTIMATORS)
    results = []
    for estimator, est in estimates.items():
        results.append({
            "estimator": estimator,
            "estimate": est.mean,
            "std_error": est.std_error,
            "closed_form": closed_form,
            # a zero standard error gives no z-score: NaN, which _write rejects
            "z_score": (est.mean - closed_form) / est.std_error if est.std_error else math.nan,
            "n": est.n_samples,
            "seed": est.seed,
        })
    ok = all(abs(r["z_score"]) <= 4.0 for r in results)
    _write(config, {"closed_form": closed_form, "results": results, "pass": ok},
           results)
    return 0 if ok else 1


def cmd_region(args, config):
    from .tradeoff import Infeasible, kkt_check, optimal_allocation, rate_gaussian, rp_region

    def target_entry(P_d):
        try:
            alloc = optimal_allocation(config.P_a, P_d, config.channel)
        except Infeasible as exc:
            return {"P_d": P_d, "feasible": False, "error": str(exc)}
        report = kkt_check(alloc, 0.0, 0.0, config.P_a, P_d, config.channel)
        return {
            "P_d": P_d,
            "feasible": True,
            "P_r": alloc.P_r,
            "P_i": alloc.P_i,
            "rate_bits": rate_gaussian(alloc, config.channel),
            "delivered_power": delivered_power(profile_of(alloc), config.channel),
            "kkt": report._asdict(),
        }

    points = rp_region(config.P_a, config.channel, config.sweep.n_points)
    targets = [target_entry(t) for t in config.targets]
    # A generator: the CSV table holds no dict per point.
    region = ({"P_r": pt.P_r, "P_i": pt.P_i, "rate_bits": pt.rate,
               "delivered_power": pt.power} for pt in points)
    _write(config, {"region": region, "targets": targets}, region,
           [_json_text(entry, indent=None) for entry in targets])
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolved_config(args)
        if args.dump_config:
            _emit(_json_text(dataclasses.asdict(config)), config.output.path)
            return 0
        return args.run(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
