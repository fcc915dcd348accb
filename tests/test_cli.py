"""Command-line interface: argument handling, config resolution, output
formats, and exit codes.  Everything runs in-process through main(argv),
except the import check, which needs a fresh interpreter."""

import dataclasses
import json
import subprocess
import sys

import pytest

from swipt.cli import RunConfig, distribution_from_spec, main
from swipt.series import SERIES_IDS
from swipt.simulate import (
    ESTIMATORS,
    FiniteConstellation,
    GaussianGeneral,
    GaussianZeroMean,
)


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

    def test_unknown_kind_and_keys_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            distribution_from_spec({"kind": "laplace"})
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
        assert RunConfig.from_dict(out) == RunConfig()

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


def test_import_leaves_scipy_unloaded():
    """The package is numpy-only: importing the CLI pulls in no SciPy module."""
    code = "import sys, swipt.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
