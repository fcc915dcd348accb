"""Each benchmark check must count a known-bad value as a failed operation.

    python3 -m pytest perfbench/test_checks.py
"""

import json
from types import SimpleNamespace

import checks


class Infeasible(ValueError):
    pass


def _report(residual=0.0, slackness_ok=True):
    return SimpleNamespace(
        stationarity_residual_Pr=residual, stationarity_residual_Pi=0.0,
        stationarity_residual_mu_r=0.0, stationarity_residual_mu_i=0.0,
        complementary_slackness_ok=slackness_ok)


def _failed(op_name, problems, known=False):
    tally = checks.Tally()
    tally.record(op_name, problems, known)
    return tally


def test_z_of_five_fails():
    assert checks.z_problems(1.0 + 5 * 0.01, 0.01, 1.0)
    assert checks.z_problems(1.0 - 5 * 0.01, 0.01, 1.0)
    assert not checks.z_problems(1.0 + 3.9 * 0.01, 0.01, 1.0)
    tally = _failed("mc", checks.z_problems(1.05, 0.01, 1.0))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_kkt_residual_of_1e_3_fails():
    assert checks.kkt_problems(_report(residual=1e-3))
    assert checks.kkt_problems(_report(slackness_ok=False))
    assert not checks.kkt_problems(_report(residual=1e-9))
    assert _failed("solve", checks.kkt_problems(_report(residual=1e-3))).failed == 1


def test_power_miss():
    assert checks.power_miss_problems(70.0 * (1 + 1e-8), 70.0)
    assert not checks.power_miss_problems(70.0 * (1 + 1e-12), 70.0)
    assert not checks.power_miss_problems(80.0, 70.0, may_exceed=True)
    assert checks.power_miss_problems(69.0, 70.0, may_exceed=True)


def test_changed_cli_stdout_byte_fails():
    stdout = json.dumps({"pass": True}).encode()
    changed = stdout.replace(b"true", b"trUe")
    assert not checks.cli_problems(0, stdout, None)
    assert not checks.cli_problems(0, stdout, stdout)
    assert checks.cli_problems(0, changed, stdout)
    assert _failed("cli", checks.cli_problems(0, changed, stdout)).failed == 1


def test_cli_exit_pass_and_region_targets():
    assert checks.cli_problems(1, b"{}", None)
    assert checks.cli_problems(0, json.dumps({"pass": False}).encode(), None)
    region = {"targets": [{"P_d": 70.0, "feasible": True, "delivered_power": 70.1}]}
    assert checks.cli_problems(0, json.dumps(region).encode(), None)


def test_missing_infeasible_fails():
    assert not checks.infeasible_problems(Infeasible("too high"), Infeasible)
    returned = (SimpleNamespace(P_r=1.0, P_i=0.0), _report())
    assert checks.infeasible_problems(returned, Infeasible)
    assert _failed("solve/above", checks.infeasible_problems(returned, Infeasible)).failed == 1


def test_sweep_must_be_monotone():
    assert not checks.sweep_problems([1.0, 2.0, 2.0], [3.0, 2.0, 2.0])
    assert checks.sweep_problems([1.0, 0.5], [3.0, 2.0])
    assert checks.sweep_problems([1.0, 2.0], [3.0, 3.5])


def test_known_failure_counts_but_keeps_run_correct():
    tally = _failed("mc/qpsk", ["z = -6.7"], known=True)
    assert (tally.failed, tally.correct) == (1, True)
    tally.record("mc/gauss", ["z = 5.0"])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 2, False)


def test_known_operation_failing_differently_is_unexpected():
    name = "mc_delivered_power/qpsk/half_rate"
    assert checks.is_known_failure(name, -6.7)
    # A z outside the known band, a non-finite z, or another operation.
    assert not checks.is_known_failure(name, -20.0)
    assert not checks.is_known_failure(name, 5.0)
    assert not checks.is_known_failure(name, checks.z_score(1.0, 0.0, 1.0))
    assert not checks.is_known_failure(name, float("nan"))
    assert not checks.is_known_failure("mc_delivered_power/qpsk/other", -6.7)
    noisy = "mc_delivered_power/gaussian_symmetric/oversampled/sigma_w2=0.5"
    assert checks.is_known_failure(noisy, -238.0)
    assert not checks.is_known_failure(noisy, -1e4)
    tally = _failed(name, checks.z_problems(0.8, 0.01, 1.0),
                    known=checks.is_known_failure(name, checks.z_score(0.8, 0.01, 1.0)))
    assert (tally.failed, tally.correct) == (1, False)


def test_known_operation_raising_is_unexpected():
    import workloads

    name = "mc_delivered_power/qpsk/half_rate"

    def boom():
        raise FloatingPointError("overflow")

    op = workloads.Op(name, boom, {}, lambda out: ["unreachable"], known=lambda out: True)
    tally = checks.Tally()
    workloads.run_round(SimpleNamespace(round_ops=lambda r, tracer: [op]), 0, None, tally)
    assert (tally.failed, tally.correct) == (1, False)
