"""Tests for the experiment runner and report serialization."""

import dataclasses
import json
import os

import numpy as np
import pytest

from sparsefourier import runner
from sparsefourier.recovery import DESK_PROFILE, build_schedule, solve_memory
from sparsefourier.runner import (
    CSV_COLUMNS,
    emit_report,
    report_to_dict,
    run_experiment,
    run_single_trial,
)
from sparsefourier.signals import SignalSpec, gen_signal, noise_floor_value, oracle_top_k

NOISELESS = SignalSpec(p=8, d=2, k=2, sigma=0.0, seed=100)


def test_noiseless_trials_all_succeed():
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=3)
    assert report.trials == 3
    assert report.aggregates["success_rate"] == 1.0
    assert all(m.guarantee_ok for m in report.metrics)
    assert all(m.support_recall == 1.0 for m in report.metrics)


def _solve_need(spec, trial_seed):
    """solve_memory of the trial that run_single_trial would run for trial_seed."""
    u = spec.universe
    x, _ = gen_signal(dataclasses.replace(spec, seed=trial_seed))
    _, mu, rstar = oracle_top_k(u, x, spec.k, mu_min_scale=DESK_PROFILE.mu_min)
    floor = noise_floor_value(x, mu, mu_min_scale=DESK_PROFILE.mu_min)
    return solve_memory(u, build_schedule(DESK_PROFILE, u.n, spec.k, floor, rstar))


def _physical(m, nbytes):
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    m.setattr(os, "sysconf", lambda name: pages[name])


def test_trial_counts_its_inputs_against_memory(monkeypatch):
    # x, xhat and the audited copy (50 bytes a point) stay alive through the
    # solve: memory just above the solve's own need must refuse the trial
    # before the audited copy is made, and 50 bytes a point more must admit it
    spec = SignalSpec(p=16, d=3, k=2, sigma=1e-3, seed=0)
    u = spec.universe
    need = _solve_need(spec, 9)

    with monkeypatch.context() as m:
        _physical(m, need + 1)
        m.setattr(runner, "AuditedSignal", lambda *a: pytest.fail("audited copy made"))
        with pytest.raises(ValueError, match="physical memory"):
            run_single_trial(spec, DESK_PROFILE, "main", 9)
    with monkeypatch.context() as m:
        _physical(m, need + 50 * u.n)
        assert run_single_trial(spec, DESK_PROFILE, "main", 9).guarantee_ok


def test_threaded_batch_counts_every_trial_in_flight(monkeypatch):
    # with SFT_THREADS=2 two trials run at once: physical memory one byte short
    # of twice a trial's need must refuse the batch, twice the need admits it
    spec = SignalSpec(p=16, d=3, k=2, sigma=1e-3, seed=0)
    need = 50 * spec.universe.n + _solve_need(spec, 9)
    monkeypatch.setenv("SFT_THREADS", "2")

    with monkeypatch.context() as m:
        _physical(m, 2 * need - 1)
        m.setattr(runner, "AuditedSignal", lambda *a: pytest.fail("audited copy made"))
        with pytest.raises(ValueError, match="physical memory"):
            run_experiment(spec, DESK_PROFILE, trials=2, seeds=[9, 9])
    with monkeypatch.context() as m:
        _physical(m, 2 * need)
        report = run_experiment(spec, DESK_PROFILE, trials=2, seeds=[9, 9])
        assert report.aggregates["success_rate"] == 1.0


def test_trials_have_distinct_seeds_and_same_budget():
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=4)
    seeds = [m.seed for m in report.metrics]
    assert len(set(seeds)) == 4
    assert report.aggregates["budget"] == max(m.samples_used for m in report.metrics)


def test_guarantee_recomputable_from_emitted_fields():
    spec = SignalSpec(p=8, d=2, k=2, sigma=0.02, seed=5)
    report = run_experiment(spec, DESK_PROFILE, trials=3)
    for m in report.metrics:
        assert m.guarantee_ok == (m.linf_error <= m.noise_floor)


def test_rejects_zero_trials_and_unknown_algorithm():
    with pytest.raises(ValueError):
        run_experiment(NOISELESS, DESK_PROFILE, trials=0)
    with pytest.raises(ValueError):
        run_experiment(NOISELESS, DESK_PROFILE, trials=1, algorithm="magic")


def test_warmup_algorithm_runs():
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=2, algorithm="warmup")
    assert report.algorithm == "warmup"
    assert report.aggregates["success_rate"] == 1.0


def test_report_determinism_modulo_wall_time():
    a = run_experiment(NOISELESS, DESK_PROFILE, trials=2)
    b = run_experiment(NOISELESS, DESK_PROFILE, trials=2)

    def strip(report):
        d = report_to_dict(report)
        for m in d["metrics"]:
            m.pop("wall_ms")
        d["aggregates"].pop("mean_wall_ms")
        return d

    assert strip(a) == strip(b)


def test_json_round_trip(tmp_path):
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=2)
    path = tmp_path / "report.json"
    text = emit_report(report, "json", path)
    on_disk = path.read_text(encoding="utf-8")
    assert on_disk == text
    parsed = json.loads(on_disk)
    assert parsed == report_to_dict(report)
    assert parsed["schema_version"] == "2"
    assert set(parsed["signal"]) == {"p", "d", "k", "sigma", "seed"}
    assert set(parsed["config"]) == {"c_b", "c_r", "c_h", "alpha", "beta", "mu_min"}
    assert parsed["config"]["c_b"] == 8
    assert len(parsed["metrics"]) == 2


def test_csv_shape_and_columns(tmp_path):
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=3)
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # header + one row per trial
    row = lines[1].split(",")
    assert len(row) == len(CSV_COLUMNS)
    assert row[2] in ("0", "1")  # guarantee_ok serialized as 0/1


def test_emit_rejects_unknown_format():
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=1)
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_emit_surfaces_path_in_io_errors(tmp_path):
    report = run_experiment(NOISELESS, DESK_PROFILE, trials=1)
    bad = tmp_path / "missing_dir" / "report.json"
    with pytest.raises(OSError, match="missing_dir"):
        emit_report(report, "json", bad)


def test_threaded_run_matches_serial(monkeypatch):
    spec = SignalSpec(p=8, d=2, k=2, sigma=0.01, seed=77)
    serial = run_experiment(spec, DESK_PROFILE, trials=4)
    monkeypatch.setenv("SFT_THREADS", "4")
    threaded = run_experiment(spec, DESK_PROFILE, trials=4)

    for a, b in zip(serial.metrics, threaded.metrics):
        assert a.seed == b.seed
        assert a.linf_error == b.linf_error
        assert a.guarantee_ok == b.guarantee_ok
