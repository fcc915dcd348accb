"""Command-line interface: argument handling, config resolution, output
formats, and exit codes.  Most tests run in-process through main(argv).
The ones that call subprocess.run start a fresh interpreter because they
need one:

* the import check reads a new process's sys.modules;
* the overflow, non-finite and degenerate-input checks (and _power_eval's
  callers) read a real run's stderr: a test run turns numpy's
  RuntimeWarning into an error (pyproject's filterwarnings), so only a
  fresh process shows that stderr holds one error line and no warning or
  traceback;
* the low-SNR region rate and lambda2 read the digits a
  `python -m swipt.cli` run prints, and the signed-zeros check builds equal
  channels in turn in one process of its own.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt.cli import (
    _MAX_N_POINTS,
    _MAX_N_SYMBOLS,
    _MAX_N_TERMS,
    _MAX_OVERSAMPLE,
    _MAX_WINDOW,
    McConfig,
    OutputConfig,
    RunConfig,
    SweepConfig,
    distribution_from_spec,
    from_json,
    main,
)
from swipt.moments import MomentProfile, gaussian_profile
from swipt.rectenna import ChannelParams, delivered_power
from swipt.simulate import (
    ESTIMATORS,
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
    mc_delivered_power,
)

from oracles import SERIES_IDS, rate_mp


SYM_DIST = '{"kind": "gaussian_zero_mean", "P_r": 0.5, "P_i": 0.5}'


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestDistributionSpec:
    def test_all_kinds(self):
        assert distribution_from_spec(json.loads(SYM_DIST)) == GaussianZeroMean(0.5, 0.5)
        spec = {"kind": "gaussian", "mu_r": 0.5, "mu_i": 0.0,
                "var_r": 0.5, "var_i": 0.25}
        assert distribution_from_spec(spec) == GaussianGeneral(0.5, 0.0, 0.5, 0.25)
        assert distribution_from_spec({"kind": "qpsk"}) == FiniteConstellation.qpsk()

    def test_constellation_defaults_to_uniform(self):
        spec = {"kind": "constellation", "points": [[1.0, 0.0], [-1.0, 0.0]]}
        dist = distribution_from_spec(spec)
        assert dist.probs == (0.5, 0.5)
        assert dist.points == (1.0 + 0j, -1.0 + 0j)
        assert distribution_from_spec({**spec, "probs": None}) == dist
        assert distribution_from_spec({**spec, "points": [1, -1]}) == dist

    def test_unknown_kind_and_keys_rejected(self):
        for kind in ("laplace", ["qpsk"]):
            with pytest.raises(ValueError, match="kind"):
                distribution_from_spec({"kind": kind})
        with pytest.raises(ValueError, match="unknown"):
            distribution_from_spec({"kind": "qpsk", "power": 2.0})


class TestSeriesVerifyCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code = main(["series-verify", "--n-terms", "2000", "--tol", "1e-2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["pass"] is True
        assert out["failed"] == []
        assert [r["id"] for r in out["reports"]] == list(SERIES_IDS)
        assert set(out["reports"][0]) == {
            "id", "analytic", "partial_sum", "truncation", "abs_error"}

    def test_fails_at_impossible_tolerance(self, capsys):
        code = main(["series-verify", "--n-terms", "500", "--tol", "1e-15"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["pass"] is False
        assert out["failed"]

    def test_csv_format(self, capsys):
        code = main(["series-verify", "--n-terms", "500", "--tol", "1e-15",
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.out.strip().splitlines()
        assert lines[0] == "id,analytic,partial_sum,truncation,abs_error"
        assert len(lines) == 1 + len(SERIES_IDS)
        assert captured.err.startswith("failed: ")
        # every cell after the id must be a bare parseable number
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] in SERIES_IDS
            for cell in cells[1:]:
                float(cell)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tolerance_is_a_config_error(self, capsys, tol):
        code = main(["series-verify", "--n-terms", "500", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: tol must be finite")


class TestPowerEvalCommand:
    def test_symmetric_gaussian_breakdown(self, capsys):
        code = main(["power-eval", "--dist", SYM_DIST])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert list(out) == ["alpha", "alpha_tilde", "beta", "beta_tilde",
                             "gamma", "Q", "Q_tilde", "P", "P_del"]
        assert out["Q"] == pytest.approx(2.0, rel=1e-12)
        assert out["Q_tilde"] == pytest.approx(2.0, rel=1e-12)
        assert out["P_del"] == pytest.approx(57.79799157435, rel=1e-11)

    def test_qpsk_breakdown(self, capsys):
        code = main(["power-eval", "--dist", '{"kind": "qpsk"}'])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["Q"] == pytest.approx(1.0, rel=1e-12)
        assert out["Q_tilde"] == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert out["P_del"] == pytest.approx(38.65299157435, rel=1e-11)

    def test_profile_from_file(self, tmp_path, capsys):
        profile = {"mu_r": 0.0, "mu_i": 0.0, "P_r": 0.5, "P_i": 0.5,
                   "T_r": 0.0, "T_i": 0.0, "Q_r": 0.75, "Q_i": 0.75}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        code = main(["power-eval", "--profile", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["Q"] == pytest.approx(2.0, rel=1e-12)

    def test_invalid_profile_is_a_config_error(self, capsys):
        bad = ('{"mu_r": 0, "mu_i": 0, "P_r": 1, "P_i": 1,'
               ' "T_r": 0, "T_i": 0, "Q_r": 0.5, "Q_i": 3}')
        code = main(["power-eval", "--profile", bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Jensen" in captured.err

    def test_impossible_third_moment_is_a_config_error(self, capsys):
        bad = ('{"mu_r": 0, "mu_i": 0, "P_r": 1, "P_i": 1,'
               ' "T_r": 100, "T_i": 0, "Q_r": 1, "Q_i": 1}')
        code = main(["power-eval", "--profile", bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: moment violation")

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["power-eval"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            main(["power-eval", "--dist", SYM_DIST, "--profile", "{}"])
        capsys.readouterr()


SMALL_MC = {"mc": {"n_symbols": 2000, "oversample": 4, "window": 16, "seed": 1}}


class TestMcValidateCommand:
    def test_default_distribution_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MC)
        code = main(["mc-validate", "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["pass"] is True
        assert [r["estimator"] for r in out["results"]] == list(ESTIMATORS)
        for r in out["results"]:
            assert set(r) == {"estimator", "estimate", "std_error",
                              "closed_form", "z_score", "n", "seed"}
            assert abs(r["z_score"]) <= 4.0
            assert r["seed"] == 1

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MC)
        main(["mc-validate", "--config", cfg])
        first = capsys.readouterr().out
        main(["mc-validate", "--config", cfg])
        second = capsys.readouterr().out
        assert first == second

    def test_explicit_distribution_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MC)
        dist = '{"kind": "gaussian", "mu_r": 0, "mu_i": 0, "var_r": 0.5, "var_i": 0.5}'
        code = main(["mc-validate", "--config", cfg, "--dist", dist])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"][0]["closed_form"] == pytest.approx(
            57.79799157435, rel=1e-11)

    def test_undersampled_config_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mc": {**SMALL_MC["mc"], "oversample": 1}})
        code = main(["mc-validate", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: " in captured.err

    def test_two_gains_at_oversample_eight_is_an_error(self, tmp_path, capsys):
        """The oversampled estimator interpolates between the phases, which
        models the waveform only when h = h_tilde: the one error line is the
        one its own mc_delivered_power call raises."""
        cfg = write_config(tmp_path, {"mc": {**SMALL_MC["mc"], "oversample": 8},
                                      "channel": {"h_tilde": 0.5}})
        code = main(["mc-validate", "--config", cfg])
        captured = capsys.readouterr()
        with pytest.raises(ValueError) as raised:
            mc_delivered_power(GaussianZeroMean(0.5, 0.5), ChannelParams(h_tilde=0.5),
                               2000, 8, 1, window=16)
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {raised.value}\n"
        assert captured.err.startswith("error: channel.h_tilde must equal channel.h")

    @pytest.mark.parametrize("dist, document", [
        pytest.param(None, {}, id="default-gaussian"),
        pytest.param('{"kind": "qpsk"}', {}, id="qpsk"),
        pytest.param(None, {"mc": {"oversample": 5}}, id="oversample-5"),
        pytest.param(None, {"channel": {"sigma_w2": 0.5}}, id="sigma_w2-0.5"),
    ])
    def test_estimates_are_two_separate_calls(self, dist, document, capsys):
        """Both estimates come from one draw, and each has the bytes of its
        own mc_delivered_power call."""
        mc = {"n_symbols": 20_000, "window": 32, "seed": 5, **document.get("mc", {})}
        document = {**document, "mc": mc}
        argv = ["mc-validate", "--config", json.dumps(document)]
        code = main(argv + (["--dist", dist] if dist else []))
        results = json.loads(capsys.readouterr().out)["results"]
        assert code in (0, 1)
        config = from_json(RunConfig, document, "config")
        spec = distribution_from_spec(json.loads(dist)) if dist else GaussianZeroMean(0.5, 0.5)
        for r in results:
            est = mc_delivered_power(spec, config.channel, mc["n_symbols"],
                                     config.mc.oversample, mc["seed"], window=mc["window"],
                                     estimator=r["estimator"])
            assert r["estimate"].hex() == est.mean.hex()
            assert r["std_error"].hex() == est.std_error.hex()
            assert r["n"] == est.n_samples

    @pytest.mark.parametrize("P_a, code", [(1e76, 0), (1e77, 2), (1e153, 2)], ids=repr)
    def test_estimate_past_the_float_range_is_one_error_line(self, P_a, code):
        """At 1e77 the block means' spread overflows, at 1e153 the integrand
        itself: either exits 2 with one error line and no numpy warning.  A
        fresh process, where numpy's overflow would be a warning."""
        document = {"P_a": P_a, "mc": {"n_symbols": 2000, "oversample": 8}}
        proc = subprocess.run([sys.executable, "-m", "swipt.cli", "mc-validate",
                               "--config", json.dumps(document)],
                              capture_output=True, text=True)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
            assert json.loads(proc.stdout)["pass"]
        else:
            assert proc.stdout == ""
            [line] = proc.stderr.splitlines()
            assert line.startswith("error: the estimate leaves the float range")

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_MC)
        code = main(["mc-validate", "--config", cfg, "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "estimator,estimate,std_error,closed_form,z_score,n,seed"
        assert len(lines) == 3


class TestRegionCommand:
    def test_csv_header_and_target_stream(self, capsys):
        code = main(["region", "--n-points", "5", "--format", "csv",
                     "--target", "70", "--target", "100"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "P_r,P_i,rate_bits,delivered_power"
        assert len(lines) == 6
        entries = [json.loads(line) for line in captured.err.strip().splitlines()]
        assert entries[0]["feasible"] is True
        assert entries[0]["P_i"] == pytest.approx(0.174078995824, rel=1e-9)
        assert "kkt" in entries[0]
        assert entries[1] == {"P_d": 100.0, "feasible": False,
                              "error": entries[1]["error"]}
        assert "exceeds" in entries[1]["error"]

    def test_json_shape_and_easy_target(self, capsys):
        code = main(["region", "--n-points", "3", "--target", "50"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["region"]) == 3
        first = out["region"][0]
        assert (first["P_r"], first["P_i"]) == (1.0, 0.0)
        target = out["targets"][0]
        assert target["feasible"] is True
        assert (target["P_r"], target["P_i"]) == (0.5, 0.5)
        assert target["kkt"]["complementary_slackness_ok"] is True

    def test_csv_floats_round_trip(self, capsys):
        main(["region", "--n-points", "4"])
        as_json = json.loads(capsys.readouterr().out)["region"]
        main(["region", "--n-points", "4", "--format", "csv"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        for row, ref in zip(rows, as_json):
            p_r, p_i, rate, power = (float(x) for x in row.split(","))
            assert (p_r, p_i) == (ref["P_r"], ref["P_i"])
            assert rate == ref["rate_bits"]
            assert power == ref["delivered_power"]

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "region.csv"
        code = main(["region", "--n-points", "3", "--format", "csv",
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        text = out_path.read_text()
        assert text.startswith("P_r,P_i,rate_bits,delivered_power\n")
        assert text.endswith("\n")


class TestConfigHandling:
    def test_dump_config_round_trips(self, capsys):
        code = main(["region", "--dump-config"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        defaults = dataclasses.asdict(RunConfig())
        channel = defaults["channel"]
        for key in ("h", "h_tilde"):
            channel[key] = [channel[key].real, channel[key].imag]
        assert out == {**defaults, "targets": list(defaults["targets"])}
        assert from_json(RunConfig, out, "config") == RunConfig()

    def test_flag_overrides_config_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mc": {"seed": 5}})
        main(["region", "--config", cfg, "--seed", "9", "--dump-config"])
        out = json.loads(capsys.readouterr().out)
        assert out["mc"]["seed"] == 9

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bandwidth": 2.0})
        code = main(["region", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown config keys" in captured.err

    def test_malformed_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["region", "--config", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code = main(["region", "--config", "/nonexistent/config.json"])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_negative_seed_flag(self, capsys):
        code = main(["region", "--seed", "-3", "--dump-config"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_non_finite_target_flag(self, capsys):
        code = main(["region", "--n-points", "3", "--target", "nan"])
        assert code == 2
        assert "targets must be finite" in capsys.readouterr().err

    def test_non_finite_budget_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"P_a": float("inf")})
        code = main(["region", "--config", cfg])
        assert code == 2
        assert "P_a must be positive and finite" in capsys.readouterr().err

    def test_run_config_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="P_a"):
            RunConfig(P_a=float("nan"))
        with pytest.raises(ValueError, match="targets"):
            RunConfig(targets=(70.0, float("-inf")))

    def test_non_integral_mc_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mc": {"seed": 1.9}})
        code = main(["mc-validate", "--config", cfg])
        assert code == 2
        assert "mc.seed must be an integer" in capsys.readouterr().err

    def test_non_integral_sweep_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": {"n_points": 10.5}})
        code = main(["region", "--config", cfg])
        assert code == 2
        assert "sweep.n_points must be an integer" in capsys.readouterr().err

    def test_integral_floats_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mc": {"n_symbols": 2e5, "seed": 7.0},
                                      "sweep": {"n_points": 11.0}})
        code = main(["region", "--config", cfg, "--dump-config"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["mc"]["n_symbols"] == 200000
        assert out["mc"]["seed"] == 7
        assert out["sweep"]["n_points"] == 11

    def test_negative_quartic_weight_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"channel": {"k4": -1.0}})
        code = main(["region", "--config", cfg])
        assert code == 2
        assert "k4 must be nonnegative" in capsys.readouterr().err

    def test_negative_quadratic_weight_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"channel": {"k2": -0.1}})
        code = main(["region", "--config", cfg])
        assert code == 2
        assert "k2 must be nonnegative" in capsys.readouterr().err

    def test_channel_override_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"channel": {"h": [2.0, 0.0]}})
        main(["power-eval", "--config", cfg, "--dist", SYM_DIST])
        out = json.loads(capsys.readouterr().out)
        assert out["alpha"] == pytest.approx(16 * 14.35875, rel=1e-12)


PROFILE = {"mu_r": 0.0, "mu_i": 0.0, "P_r": 1.0, "P_i": 1.0,
           "T_r": 0.0, "T_i": 0.0, "Q_r": 3.0, "Q_i": 3.0}
POINTS = [[1.0, 0.0], [-1.0, 0.0]]


@pytest.mark.parametrize("flag, document, field", [
    ("--config", {"channel": {"sigma_w2": "x"}}, "config.channel.sigma_w2"),
    ("--config", {"channel": {"k2": None}}, "config.channel.k2"),
    ("--config", {"channel": []}, "config.channel"),
    ("--config", {"P_a": [1]}, "config.P_a"),
    ("--config", {"mc": None}, "config.mc"),
    ("--config", {"mc": {"seed": [1]}}, "config.mc.seed"),
    ("--config", {"mc": {"seed": True}}, "config.mc.seed"),
    ("--config", {"mc": {"seed": -1}}, "seed"),
    ("--config", {"targets": 70}, "config.targets"),
    ("--config", {"output": {"path": 3}}, "config.output.path"),
    ("--config", [1, 2], "config"),
    ("--profile", {**PROFILE, "mu_r": [1]}, "profile.mu_r"),
    ("--dist", {"kind": "constellation", "points": POINTS, "probs": 5},
     "distribution.probs"),
])
def test_malformed_input_is_a_config_error(tmp_path, capsys, flag, document, field):
    """Each malformed value exits 2 with one line naming its field, not a
    traceback."""
    command = "region" if flag == "--config" else "power-eval"
    code = main([command, flag, write_config(tmp_path, document)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err
    assert "Traceback" not in captured.err


def test_integer_output_path_writes_to_no_descriptor(tmp_path, capsys):
    read_end, write_end = os.pipe()
    cfg = write_config(tmp_path, {"output": {"path": write_end}})
    code = main(["region", "--config", cfg, "--n-points", "3"])
    os.close(write_end)  # raises if main wrote to the descriptor and closed it
    with os.fdopen(read_end, "rb") as pipe:
        assert pipe.read() == b""
    assert code == 2
    assert "config.output.path must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing_dir", "empty", "directory"])
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, where):
    path = {"missing_dir": str(tmp_path / "missing" / "x.json"), "empty": "",
            "directory": str(tmp_path)}[where]
    code = main(["region", "--n-points", "3", f"--out={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output ")
    assert repr(path) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, field", [
    (["series-verify", f"--n-terms={_MAX_N_TERMS + 1}"], "n_terms"),
    (["region", f"--n-points={_MAX_N_POINTS + 1}"], "sweep.n_points"),
    (["region", "--config", json.dumps({"sweep": {"n_points": _MAX_N_POINTS + 1}})],
     "sweep.n_points"),
    (["mc-validate", "--config", json.dumps({"mc": {"n_symbols": _MAX_N_SYMBOLS + 1}})],
     "mc.n_symbols"),
    (["mc-validate", "--config", json.dumps({"mc": {"window": _MAX_WINDOW + 1}})],
     "mc.window"),
    (["mc-validate", "--config", json.dumps({"mc": {"oversample": _MAX_OVERSAMPLE + 1}})],
     "mc.oversample"),
])
def test_sizes_above_their_bound_are_rejected_before_allocating(capsys, argv, field):
    """Each size just above its documented bound exits 2 naming its field,
    with no more than 1 MB traced while doing so."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field} must be at most ")
    assert peak < 1 << 20


def test_sizes_at_their_bound_are_accepted():
    document = {"mc": {"n_symbols": _MAX_N_SYMBOLS, "oversample": _MAX_OVERSAMPLE,
                       "window": _MAX_WINDOW},
                "sweep": {"n_points": _MAX_N_POINTS}}
    out = json.loads(_run_main(["region", "--dump-config", "--config", json.dumps(document)]))
    assert out["mc"] == {**document["mc"], "seed": 12345}
    assert out["sweep"] == document["sweep"]


def _run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Channel fields of magnitude 1e-30 to 1e30 keep every response coefficient
# below 1e181, so a budget up to 1e60 delivers a power below 1e302: every
# channel and budget drawn from these ranges is valid.
GAINS = st.floats(-1e30, 1e30) | st.complex_numbers(max_magnitude=1e30)
SCALES = st.floats(1e-30, 1e30)
WEIGHTS = st.floats(0.0, 1e30)
CHANNELS = st.builds(ChannelParams, h=GAINS, h_tilde=GAINS, sigma_w2=SCALES, f_w=SCALES,
                     k2=WEIGHTS, k4=WEIGHTS)
BUDGETS = st.floats(0.0, 1e60, exclude_min=True)
# Where each single-valued flag lands in the config document.
FLAG_FIELDS = {"--seed": ("mc", "seed"), "--format": ("output", "format"),
               "--out": ("output", "path"), "--n-points": ("sweep", "n_points")}


@st.composite
def run_configs(draw, path):
    return RunConfig(
        channel=draw(CHANNELS),
        P_a=draw(BUDGETS),
        targets=draw(st.lists(FINITE, max_size=3).map(tuple)),
        mc=draw(st.builds(McConfig, n_symbols=st.integers(max_value=_MAX_N_SYMBOLS),
                          oversample=st.integers(max_value=_MAX_OVERSAMPLE),
                          window=st.integers(max_value=_MAX_WINDOW),
                          seed=st.integers(0, 2**64 - 1))),
        sweep=draw(st.builds(SweepConfig, n_points=st.integers(max_value=_MAX_N_POINTS))),
        output=draw(st.builds(OutputConfig, format=st.sampled_from(["json", "csv"]),
                              path=st.none() | st.just(path))))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_dump_config_reads_back_as_the_config(tmp_path_factory, data):
    """Any valid config, given partly as inline JSON and partly as flags,
    is dumped in a form from_json reads back to the same config."""
    dump_path = str(tmp_path_factory.mktemp("dump") / "config.json")
    config = data.draw(run_configs(dump_path))
    document = json.loads(json.dumps(dataclasses.asdict(config),
                                     default=lambda z: [z.real, z.imag]))
    argv = ["region", "--dump-config"]
    for flag in data.draw(st.sets(st.sampled_from(list(FLAG_FIELDS)))):
        section, key = FLAG_FIELDS[flag]
        value = document[section].pop(key)
        if value is not None:
            argv.append(f"{flag}={value}")
    if data.draw(st.booleans()):
        argv += [f"--target={t}" for t in document.pop("targets")]
    out = _run_main([*argv, "--config", json.dumps(document)])
    if config.output.path is not None:
        assert out == ""
        with open(config.output.path, encoding="utf-8") as fh:
            out = fh.read()
    assert from_json(RunConfig, json.loads(out), "config") == config


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mu_r=st.floats(-1e3, 1e3), mu_i=st.floats(-1e3, 1e3),
       var_r=st.floats(0.0, 1e3), var_i=st.floats(0.0, 1e3))
def test_gaussian_profiles_read_back(mu_r, mu_i, var_r, var_i):
    """A Gaussian moment profile written as JSON reads back unchanged, and
    power-eval --profile evaluates exactly that profile."""
    profile = gaussian_profile(mu_r, mu_i, var_r, var_i)
    text = json.dumps(dataclasses.asdict(profile))
    assert from_json(MomentProfile, json.loads(text), "profile") == profile
    out = json.loads(_run_main(["power-eval", "--profile", text]))
    assert out["P_del"] == delivered_power(profile, ChannelParams())


def test_import_leaves_scipy_unloaded():
    """The package is numpy-only: importing the CLI pulls in no SciPy module."""
    code = "import sys, swipt.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, key", [
    (["series-verify", "--n-terms", "2000", "--tol", "1e-2"], "reports"),
    (["power-eval", "--dist", SYM_DIST], None),
    (["mc-validate", "--config", json.dumps(SMALL_MC)], "results"),
    (["region", "--n-points", "5", "--target", "70"], "region"),
])
def test_csv_rows_are_the_json_records(argv, key):
    """Each command's CSV table is its JSON records, headed by their keys,
    with every number read back exactly."""
    document = json.loads(_run_main(argv))
    records = [document] if key is None else document[key]
    lines = _run_main([*argv, "--format", "csv"]).splitlines()
    assert lines[0].split(",") == list(records[0])
    assert len(lines) == 1 + len(records)
    for line, record in zip(lines[1:], records):
        cells = line.split(",")
        assert {k: type(v)(cell) for (k, v), cell in zip(record.items(), cells)} == record


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_is_written_nowhere(tmp_path, fmt):
    """A valid profile whose delivered power overflows exits 2 with one
    error line, and leaves stdout and --out empty, in a fresh process."""
    out_path = tmp_path / "power.out"
    profile = dataclasses.asdict(gaussian_profile(0.0, 0.0, 1.0, 1.0))
    base = [sys.executable, "-m", "swipt.cli", "power-eval",
            "--profile", json.dumps({**profile, "Q_r": 1e308}), "--format", fmt]
    for extra in ([], ["--out", str(out_path)]):
        proc = subprocess.run(base + extra, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "non-finite" in errors[0]
        assert "Traceback" not in proc.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("document, code", [
    ({"P_a": 1e153}, 0),
    ({"P_a": 1e154}, 2),
    ({"P_a": 1e200}, 2),
    ({"channel": {"h": 1e40}, "P_a": 1e73}, 0),
    ({"channel": {"h": 1e40}, "P_a": 1e74}, 2),
], ids=repr)
def test_budget_overflowing_the_delivered_power_is_a_config_error(document, code):
    """P_a is bounded per channel: the single-axis delivered power, the
    largest of any split, must be finite.  Past that, one error line names
    P_a, ahead of any numpy warning or a moment the overflow reaches first.
    A fresh process, where numpy's overflow would be a warning."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", "region", "--n-points", "3",
                           "--target", "1", "--config", json.dumps(document)],
                          capture_output=True, text=True)
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["targets"][0]["feasible"]
    else:
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: P_a = ")
        assert "overflows the delivered power" in line


def test_gain_squaring_past_the_float_range_is_a_config_error():
    """ChannelParams itself refuses such a gain, and the one error line names
    the gain, not P_a.  A fresh process, as in the budget test above."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", "region", "--n-points", "3",
                           "--target", "1", "--config",
                           json.dumps({"channel": {"h": 1e200}, "P_a": 1.0})],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: channel field h overflows when squared")


def test_region_rate_below_the_float_epsilon():
    """At f_w = 1e20 every per-dimension SNR a*P is at most 2e-16, and each
    split's rate is f_w*a*P_a/(2 ln 2) to within 1e-16 relative.  A fresh
    process prints it within 1e-15 of the 50-digit rate at all three splits."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", "region", "--n-points", "3",
                           "--format", "csv", "--config",
                           json.dumps({"channel": {"f_w": 1e20}})],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    header, *rows = proc.stdout.splitlines()
    assert header == "P_r,P_i,rate_bits,delivered_power"
    assert len(rows) == 3
    ch = ChannelParams(f_w=1e20)
    for row in rows:
        P_r, P_i, rate, _ = map(float, row.split(","))
        exact = rate_mp(P_r, P_i, ch)
        assert abs(rate - exact) <= 1e-15 * exact


def test_region_lambda2_keeps_its_digits_at_low_snr():
    """At f_w = 1e14 the per-dimension SNR a*P is near 1e-10, where the
    marginal rates' gap is below their rounding: a fresh process prints the
    50-digit lambda2 rounded to a float, 2511874.3633680237 (subtracting
    the two rounded rates printed 2511873.6542622154)."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", "region", "--n-points", "2",
                           "--target", "6.842346657435001e-13", "--config",
                           json.dumps({"channel": {"f_w": 1e14}})],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert '        "lambda2": 2511874.3633680237,' in proc.stdout.splitlines()


def test_power_eval_keeps_each_channels_signed_zeros():
    """One fresh process runs power-eval on the default channel, then on
    k2 = k4 = 0.0, then on k2 = k4 = -0.0, a channel equal to the one before:
    each prints its own coefficients, so the last prints -0.0 for alpha
    through gamma and for P_del."""
    code = ("import sys\nfrom swipt.cli import main\n"
            "for document in sys.argv[1:]:\n"
            "    main(['power-eval', '--dist', '{\"kind\": \"qpsk\"}', "
            "'--format', 'csv', '--config', document])\n")
    documents = [{}, {"channel": {"k2": 0.0, "k4": 0.0}},
                 {"channel": {"k2": -0.0, "k4": -0.0}}]
    proc = subprocess.run([sys.executable, "-c", code, *map(json.dumps, documents)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    assert header[:5] == ["alpha", "alpha_tilde", "beta", "beta_tilde", "gamma"]
    assert header[-1] == "P_del"
    default, positive, negative = (lines[i].split(",") for i in (1, 3, 5))
    assert default[0] == "14.35875"
    assert positive[:5] + positive[-1:] == ["0.0"] * 6
    assert negative[:5] + negative[-1:] == ["-0.0"] * 6


_ZERO_SE_DIST = '{"kind": "constellation", "points": [[0, 0]]}'
_SLOPE_CHANNELS = {"slope-underflowing-noise": {"sigma_w2": 1e-200, "f_w": 1e-200},
                   "slope-overflow": {"sigma_w2": 1e-320}}


@pytest.mark.parametrize("argv", [
    pytest.param(["mc-validate", "--dist", _ZERO_SE_DIST, "--config",
                  json.dumps({"channel": {"sigma_w2": 1e-300},
                              "mc": {"n_symbols": 2000, "oversample": 2}})],
                 id="zero-standard-error"),
    *(pytest.param(["region", "--n-points", "3", "--config", json.dumps({"channel": channel})],
                   id=name) for name, channel in _SLOPE_CHANNELS.items()),
    pytest.param(["region", "--n-points", "3", "--config",
                  json.dumps({"P_a": 1000, "channel": {"sigma_w2": 1e-307}})],
                 id="rate-overflow"),
])
def test_degenerate_estimate_or_slope_exits_2(argv):
    """mc-validate whose block values all underflow to one value (a standard
    error of 0, so no z-score), and region on a channel whose SNR slope
    2|h|^2/(f_w*sigma_w2) is not finite or whose rate at a finite slope
    overflows, exit 2 with one error line and nothing on stdout.  A fresh
    process, so a traceback or a numpy warning would show."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("name", _SLOPE_CHANNELS)
def test_slope_rule_leaves_power_eval_and_mc_validate_alone(name):
    """power-eval and mc-validate use no rate, so the slope rule leaves them
    alone: power-eval prints its breakdown on both channels, and mc-validate
    runs at sigma_w2 = 1e-320, while at f_w = 1e-200, whose coefficients
    near 1e201 square past the float range, the estimator's own range rule
    stops it with exit 2."""
    config = json.dumps({"channel": _SLOPE_CHANNELS[name],
                         "mc": {"n_symbols": 2000, "oversample": 2}})
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["power-eval", "--dist", '{"kind": "qpsk"}', "--config", config]) == 0
        assert main(["mc-validate", "--config", config]) == (
            0 if name == "slope-overflow" else 2)


@pytest.mark.parametrize("command", ["power-eval", "mc-validate"])
@pytest.mark.parametrize("spec, moment", [
    ('{"kind": "constellation", "points": [[1e80, 0]]}', "Q_r"),
    ('{"kind": "gaussian", "mu_r": 1e200}', "P_r"),
])
def test_distribution_whose_moments_overflow_is_a_config_error(command, spec, moment):
    """A distribution whose moments pass the float range (a point at 1e80, a
    mean of 1e200) exits 2 with one error line naming the first such moment
    and nothing on stdout.  A fresh process, so that a traceback would show."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", command, "--dist", spec],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: moment {moment} must be finite, got inf\n"


# Finite distribution fields of any size up to 1e300.
_FIELD = st.floats(-1e300, 1e300)
DIST_SPECS = st.one_of(
    st.lists(st.lists(_FIELD, min_size=2, max_size=2), min_size=1, max_size=4).map(
        lambda points: {"kind": "constellation", "points": points}),
    st.fixed_dictionaries({"kind": st.just("gaussian"), "mu_r": _FIELD, "mu_i": _FIELD,
                           "var_r": _FIELD, "var_i": _FIELD}),
    st.fixed_dictionaries({"kind": st.just("gaussian_zero_mean"),
                           "P_r": _FIELD, "P_i": _FIELD}),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(spec=DIST_SPECS)
def test_power_eval_of_any_finite_distribution_exits_0_or_2(spec):
    """power-eval either prints a breakdown or rejects the distribution with
    exit 2; no input of finite fields ends in a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["power-eval", "--dist", json.dumps(spec)])
    assert code in (0, 2)


def _power_eval(flag, document):
    """power-eval in a fresh process: exit code, stdout and stderr."""
    proc = subprocess.run([sys.executable, "-m", "swipt.cli", "power-eval", flag,
                           json.dumps(document), "--format", "csv"],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _p_del(flag, document):
    """P_del of an in-process power-eval run, as printed."""
    return json.loads(_run_main(["power-eval", flag, json.dumps(document)]))["P_del"]


def _profile(mu_r=0, mu_i=0, P_r=0, P_i=0, T_r=0, T_i=0, Q_r=0, Q_i=0):
    return {"mu_r": mu_r, "mu_i": mu_i, "P_r": P_r, "P_i": P_i,
            "T_r": T_r, "T_i": T_i, "Q_r": Q_r, "Q_i": Q_i}


def test_profile_whose_hankel_terms_overflow_exits_2():
    """T_r^2 = 1e500 exceeds P_r*Q_r = 1e400, though both overflow: exit 2
    with one error line and nothing on stdout.  T_r = 1e200 with
    Q_r = 1e301 is a valid profile, and its digits do not change."""
    code, out, err = _power_eval("--profile", _profile(P_r=1e100, T_r=1e250, Q_r=1e300))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: moment violation: Hankel determinant in dimension r")
    valid = _profile(P_r=1e100, T_r=1e200, Q_r=1e301)
    assert repr(_p_del("--profile", valid)) == "1.9145000000000002e+302"


def test_profile_whose_part_has_zero_power_must_be_the_point_zero():
    """P_r = 0 makes the real part the constant 0, whose Q_r is 0: any other
    exits 2 with one error line naming the dimension.  Point masses, and
    the float profile of a rare far point that lifts Q_r above P_r^2 = 1,
    keep their digits."""
    code, out, err = _power_eval("--profile", _profile(P_i=1, Q_r=5, Q_i=3))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: moment violation: P_r = 0 makes dimension r the point 0")
    assert repr(_p_del("--profile", _profile(2, 0, 4, 0, 8, 0, 16, 0))) == "460.93191357435"
    point_mass = {"kind": "gaussian", "mu_r": 1.0}
    assert repr(_p_del("--dist", point_mass)) == "29.080491574350003"
    rare_far = _profile(mu_r=1, P_r=1, P_i=1, T_r=1, Q_r=7, Q_i=3)
    assert repr(_p_del("--profile", rare_far)) == "287.90096557435004"


def test_zero_probability_point_is_never_drawn():
    """A point of probability 0 adds nothing to the moments, even where its
    fourth power overflows: the input is the single point 1."""
    spec = {"kind": "constellation", "points": [[1, 0], [1e80, 0]], "probs": [1, 0]}
    code, out, err = _power_eval("--dist", spec)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[-1] == "29.080491574350003"
    assert _p_del("--dist", spec) == _p_del("--dist", {"kind": "constellation",
                                                        "points": [[1, 0]]})


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                "'series-verify', 'power-eval', 'mc-validate', 'region')"),
], ids=["none", "unknown"])
def test_missing_or_unknown_subcommand_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage: swipt [-h] {series-verify,power-eval,mc-validate,region} ...\n"
                            f"swipt: error: {message}\n")
