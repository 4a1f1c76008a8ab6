"""Tests for the command-line interface: flags, reports, exit codes."""

import json

import pytest

from sparsefourier import signals
from sparsefourier.checks import CHECKS
from sparsefourier.cli import main
from sparsefourier.sampling import AuditViolation, SampleBundle

NOISELESS = ["--p", "8", "--d", "2", "--k", "2", "--seed", "3"]


def test_recover_prints_json_report(capsys):
    assert main(["recover", *NOISELESS]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["schema_version"] == "2"
    assert report["trials"] == 1
    assert report["metrics"][0]["seed"] == 3  # --seed is the trial seed
    assert report["metrics"][0]["guarantee_ok"] is True


def test_recover_writes_file(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    assert main(["recover", *NOISELESS, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["aggregates"]["success_rate"] == 1.0
    assert str(out_path) in capsys.readouterr().out


def test_bench_csv(tmp_path):
    out_path = tmp_path / "r.csv"
    code = main(["bench", *NOISELESS, "--trials", "3", "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("seed,linf_error,guarantee_ok")
    assert len(lines) == 4


def test_bench_warmup_algo(capsys):
    assert main(["bench", *NOISELESS, "--trials", "2", "--algo", "warmup"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == "warmup"
    assert report["aggregates"]["success_rate"] == 1.0


def test_set_overrides_constants(capsys):
    assert main(["recover", *NOISELESS, "--set", "C_B=16", "--set", "c_r=2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["c_b"] == 16
    assert report["config"]["c_r"] == 2


def test_set_rejects_unknown_name(capsys):
    # C_S and WARMUP_GRID were settable once and are module constants now
    for name in ("C_X", "C_S", "WARMUP_GRID"):
        assert main(["recover", *NOISELESS, "--set", f"{name}=1"]) == 2, name
        assert "unknown constant" in capsys.readouterr().err, name


def test_set_rejects_bad_value(capsys):
    assert main(["recover", *NOISELESS, "--set", "C_B=soon"]) == 2
    # parsed as floats, but a NaN would reach the JSON report and inf breaks R*
    for value in ("nan", "inf"):
        assert main(["recover", *NOISELESS, "--set", f"mu_min={value}"]) == 2, value
        assert "mu_min must be positive and finite" in capsys.readouterr().err, value


def test_set_rejects_missing_equals(capsys):
    assert main(["recover", *NOISELESS, "--set", "C_B"]) == 2


def test_invalid_constant_combination_is_config_error(capsys):
    # alpha above beta/2 fails RecoveryConfig validation
    assert main(["recover", *NOISELESS, "--set", "alpha=0.05"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_invalid_signal_is_config_error(capsys):
    assert main(["recover", "--p", "4", "--d", "1", "--k", "9"]) == 2
    assert main(["recover", *NOISELESS, "--sigma", "inf"]) == 2
    assert "sigma must be finite" in capsys.readouterr().err
    # finite, but the generated signal overflows
    assert main(["recover", *NOISELESS, "--sigma", "1e308"]) == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recover", "bench", "verify"])
def test_negative_seed_is_config_error(command, capsys):
    signal = [] if command == "verify" else ["--p", "4", "--d", "2", "--k", "2"]
    assert main([command, *signal, "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got seed=-1" in capsys.readouterr().err


def test_unknown_choice_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["recover", *NOISELESS, "--algo", "galactic"])
    assert exc.value.code == 2


def test_run_too_large_for_memory_exits_2(monkeypatch, capsys):
    # B*R*H is about 1.8e11 samples; the guard must stop the run before any draw
    monkeypatch.setattr(SampleBundle, "draw", lambda *a: pytest.fail("bundle drawn"))
    assert main(["recover", *NOISELESS, "--set", "c_b=1000000", "--set", "c_r=1000"]) == 2
    assert "memory" in capsys.readouterr().err
    # n = 2^40 points: refused before the signal's first draw or allocation
    monkeypatch.setattr(signals, "stream_rng", lambda *a: pytest.fail("signal drawn"))
    assert main(["recover", "--p", "2", "--d", "40", "--k", "1"]) == 2
    assert "synthesizing a signal" in capsys.readouterr().err


def test_broken_promise_exits_1_and_names_the_bound(capsys):
    # with R = 10 the warm-up driver's second round keeps 320 of the 1024 frequencies,
    # more than C_S*k = 104: the solve stops there instead of reporting a wrong y
    argv = ["--p", "2", "--d", "10", "--k", "4", "--sigma", "0", "--seed", "31"]
    assert main(["recover", *argv, "--algo", "warmup", "--set", "c_r=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rung 1, round 2: kept 320 entries, more than C_S*k = 104\n"


def test_audit_violation_maps_to_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AuditViolation("synthetic")

    monkeypatch.setattr("sparsefourier.cli.run_experiment", boom)
    assert main(["recover", *NOISELESS]) == 3
    assert "audit" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_verify_threshold_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setitem(CHECKS, "estimator-tail-bound", lambda seed: (False, "forced miss"))
    assert main(["verify"]) == 4
    assert "FAIL estimator-tail-bound" in capsys.readouterr().out
