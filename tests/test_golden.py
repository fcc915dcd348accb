"""Golden CLI outputs: each command's stdout must match its committed fixture
byte for byte.  The fixtures under tests/golden/ were recorded once and are
never regenerated to make this test pass: any drift in printed numbers, key
order or formatting is a regression.  A deliberate change of printed digits
regenerates its fixture and records the old and new values in CHANGES.md."""

from pathlib import Path

import pytest

from swipt.cli import main

GOLDEN = Path(__file__).parent / "golden"

PROFILE = ('{"mu_r": 0.3, "mu_i": -0.1, "P_r": 0.6, "P_i": 0.4, '
           '"T_r": 0.2, "T_i": -0.05, "Q_r": 0.9, "Q_i": 0.5}')

CASES = {
    "series_verify": ["series-verify"],
    "power_eval_qpsk": ["power-eval", "--dist", '{"kind":"qpsk"}'],
    "power_eval_profile": ["power-eval", "--profile", PROFILE],
    "mc_validate": ["mc-validate"],
    "region_targets": ["region", "--target", "70", "--target", "80"],
    "region_csv": ["region", "--format", "csv", "--n-points", "11"],
    "region_dump_config": ["region", "--dump-config"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_fixture(name, capsys):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert captured.out == expected
