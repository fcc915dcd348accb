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
All numbers are emitted at full double precision so a fixed seed reproduces
output byte-for-byte.  Exit codes: 0 all checks passed, 1 a validation check
failed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass

from .moments import MomentProfile, derived_moments
from .rectenna import ChannelParams, coeffs, delivered_power
from .series import _integer
from .series import verify as verify_series
from .simulate import (
    ESTIMATORS,
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    _check_seed,
    closed_form_delivered_power,
    mc_delivered_power,
    profile_of,
)
from .tradeoff import (
    Infeasible,
    kkt_check,
    optimal_allocation,
    rate_gaussian,
    rp_region,
)

__all__ = [
    "ConfigError",
    "McConfig",
    "SweepConfig",
    "OutputConfig",
    "RunConfig",
    "from_json",
    "distribution_from_spec",
    "build_parser",
    "main",
]


class ConfigError(ValueError):
    """Malformed configuration or command input."""


def _reject_unknown(data, known, what):
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")


def _value(kind, value, name):
    # value converted to the annotated type kind; a bad value names its field.
    args = typing.get_args(kind)
    if dataclasses.is_dataclass(kind):
        return from_json(kind, value, name)
    if type(None) in args:
        return None if value is None else _value(args[0], value, name)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_value(args[0], v, f"{name}[{i}]") for i, v in enumerate(value))
    if kind is complex and isinstance(value, list) and len(value) == 2:
        return complex(_value(float, value[0], f"{name}[0]"),
                       _value(float, value[1], f"{name}[1]"))
    numbers = (int, float, complex) if kind is complex else (int, float)
    if isinstance(value, bool) or not isinstance(value, numbers):
        expected = {int: "an integer", float: "a number",
                    complex: "a number or an [re, im] pair"}[kind]
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    try:
        return _integer(value, name) if kind is int else kind(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of range, got {value!r}") from None
    except ValueError as exc:
        raise ConfigError(exc) from None


def from_json(cls, data, what):
    """A cls record from a parsed JSON object, its fields converted by annotation.

    Integers accept integral floats such as 2e5, complex numbers an [re, im]
    pair or a plain number; fields with defaults may be left out.  Any
    malformed value raises ConfigError naming its path under what, such as
    config.mc.seed.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be an object, got {data!r}")
    fields = dataclasses.fields(cls)
    _reject_unknown(data, [f.name for f in fields], what)
    missing = [f.name for f in fields
               if f.name not in data and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    kinds = typing.get_type_hints(cls)
    return cls(**{key: _value(kinds[key], value, f"{what}.{key}")
                  for key, value in data.items()})


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run sizing and seeding."""

    n_symbols: int = 200_000
    oversample: int = 8
    window: int = 128
    seed: int = 12345

    def __post_init__(self):
        _check_seed(self.seed)


@dataclass(frozen=True)
class SweepConfig:
    """Frontier sweep resolution."""

    n_points: int = 101


@dataclass(frozen=True)
class OutputConfig:
    """Where and how results are written; path None means stdout."""

    format: str = "json"
    path: str | None = None

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ConfigError(f"output format must be json or csv, got {self.format!r}")


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
        if not (math.isfinite(self.P_a) and self.P_a > 0.0):
            raise ConfigError(f"P_a must be positive and finite, got {self.P_a!r}")
        targets = tuple(float(t) for t in self.targets)
        if not all(math.isfinite(t) for t in targets):
            raise ConfigError(f"targets must be finite, got {list(targets)!r}")
        object.__setattr__(self, "targets", targets)


def distribution_from_spec(data):
    """Input distribution from a JSON-style spec dict.

    Kinds: gaussian_zero_mean {P_r, P_i}; gaussian {mu_r, mu_i, var_r, var_i}
    (left-out fields are 0); qpsk {}; constellation {points: [[re, im], ...],
    probs optional, equiprobable when left out or null}.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("distribution spec must be an object with a 'kind' key")
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
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _load_json(text, what):
    """Parse an argument that is either inline JSON or a path to a JSON file."""
    stripped = text.strip()
    try:
        if stripped.startswith(("{", "[")):
            return json.loads(stripped)
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {text!r} is not valid JSON: {exc}") from exc


def _emit(text, path):
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _complex_pair(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(payload):
    return json.dumps(payload, indent=2, default=_complex_pair)


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            value if isinstance(value, str) else repr(value) for value in row))
    return "\n".join(lines)


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
    p.add_argument("--n-terms", type=int, default=1_000_000,
                   help="truncation window half-width (default 1e6)")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="pass threshold on |error| (default 1e-4)")

    p = sub.add_parser("power-eval",
                       help="delivered-power breakdown for a profile or distribution")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", metavar="JSON|PATH",
                       help="moment profile (mu_r, mu_i, P_r, P_i, T_r, T_i, Q_r, Q_i)")
    group.add_argument("--dist", metavar="JSON|PATH",
                       help="input distribution spec (see distribution_from_spec)")

    p = sub.add_parser("mc-validate",
                       help="compare both Monte-Carlo estimators to the closed form")
    common(p)
    p.add_argument("--dist", metavar="JSON|PATH",
                   help="input distribution spec; default gaussian_zero_mean "
                        "with P_r = P_i = P_a/2")

    p = sub.add_parser("region",
                       help="sweep the rate/power frontier, optionally solving targets")
    common(p)
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
    reports = verify_series(args.n_terms)
    failed = [r.id for r in reports if r.abs_error > args.tol]
    if config.output.format == "csv":
        text = _csv_text(
            ("id", "analytic", "partial_sum", "truncation", "abs_error"),
            [(r.id, r.analytic, r.partial_sum, r.truncation, r.abs_error)
             for r in reports])
        if failed:
            print(f"failed: {','.join(failed)}", file=sys.stderr)
    else:
        text = _json_text({
            "n_terms": args.n_terms,
            "tolerance": args.tol,
            "reports": [dataclasses.asdict(r) for r in reports],
            "failed": failed,
            "pass": not failed,
        })
    _emit(text, config.output.path)
    return 1 if failed else 0


def cmd_power_eval(args, config):
    if args.profile is not None:
        data = _load_json(args.profile, "profile")
        profile = from_json(MomentProfile, data, "profile")
    else:
        dist = distribution_from_spec(_load_json(args.dist, "distribution"))
        profile = profile_of(dist)
    c = coeffs(config.channel)
    d = derived_moments(profile)
    report = {
        "alpha": c.alpha,
        "alpha_tilde": c.alpha_tilde,
        "beta": c.beta,
        "beta_tilde": c.beta_tilde,
        "gamma": c.gamma,
        "Q": d.Q,
        "Q_tilde": d.Q_tilde,
        "P": d.P,
        "P_del": delivered_power(profile, config.channel),
    }
    if config.output.format == "csv":
        keys = tuple(report)
        text = _csv_text(keys, [tuple(report[k] for k in keys)])
    else:
        text = _json_text(report)
    _emit(text, config.output.path)
    return 0


def cmd_mc_validate(args, config):
    if args.dist is not None:
        dist = distribution_from_spec(_load_json(args.dist, "distribution"))
    else:
        dist = GaussianZeroMean(0.5 * config.P_a, 0.5 * config.P_a)
    closed_form = closed_form_delivered_power(dist, config.channel)
    results = []
    for estimator in ESTIMATORS:
        est = mc_delivered_power(
            dist, config.channel, config.mc.n_symbols, config.mc.oversample,
            config.mc.seed, window=config.mc.window, estimator=estimator)
        results.append({
            "estimator": estimator,
            "estimate": est.mean,
            "std_error": est.std_error,
            "closed_form": closed_form,
            "z_score": (est.mean - closed_form) / est.std_error,
            "n": est.n_samples,
            "seed": est.seed,
        })
    ok = all(abs(r["z_score"]) <= 4.0 for r in results)
    if config.output.format == "csv":
        keys = ("estimator", "estimate", "std_error", "closed_form",
                "z_score", "n", "seed")
        text = _csv_text(keys, [tuple(r[k] for k in keys) for r in results])
    else:
        text = _json_text({"closed_form": closed_form, "results": results,
                           "pass": ok})
    _emit(text, config.output.path)
    return 0 if ok else 1


def _target_entry(P_d, config):
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
        "kkt": dataclasses.asdict(report),
    }


def cmd_region(args, config):
    points = rp_region(config.P_a, config.channel, config.sweep.n_points)
    targets = [_target_entry(t, config) for t in config.targets]
    if config.output.format == "csv":
        text = _csv_text(
            ("P_r", "P_i", "rate_bits", "delivered_power"),
            [(pt.allocation.P_r, pt.allocation.P_i, pt.rate, pt.power)
             for pt in points])
        _emit(text, config.output.path)
        for entry in targets:
            print(json.dumps(entry), file=sys.stderr)
    else:
        text = _json_text({
            "region": [{"P_r": pt.allocation.P_r, "P_i": pt.allocation.P_i,
                        "rate_bits": pt.rate, "delivered_power": pt.power}
                       for pt in points],
            "targets": targets,
        })
        _emit(text, config.output.path)
    return 0


_COMMANDS = {
    "series-verify": cmd_series_verify,
    "power-eval": cmd_power_eval,
    "mc-validate": cmd_mc_validate,
    "region": cmd_region,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolved_config(args)
        if args.dump_config:
            _emit(_json_text(dataclasses.asdict(config)), config.output.path)
            return 0
        return _COMMANDS[args.command](args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
