"""Seeded multi-trial experiment runner with JSON/CSV reporting.

Each trial gets an independent integer seed derived from (master_seed,
trial_index), so results do not depend on execution order and any single
trial can be reproduced in isolation by passing its seed. Setting the
SFT_THREADS environment variable runs trials in a thread pool; reports
are identical either way.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .recovery import (
    RecoveryConfig,
    build_schedule,
    fourier_sparse_recovery,
    require_memory,
    solve_memory,
)
from .sampling import AuditedSignal
from .signals import Metrics, SignalSpec, compute_metrics, gen_signal, noise_floor_value, oracle_top_k

__all__ = ["Report", "run_experiment", "run_single_trial", "emit_report", "report_to_dict"]

SCHEMA_VERSION = "2"

ALGORITHMS = ("main", "warmup")


@dataclass(frozen=True)
class Report:
    schema_version: str
    algorithm: str
    signal: dict
    config: dict
    trials: int
    metrics: tuple
    aggregates: dict


def _trial_seed(master_seed: int, index: int) -> int:
    """Independent, reproducible per-trial seed from (master, index)."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def run_single_trial(
    spec: SignalSpec, config: RecoveryConfig, algorithm: str, trial_seed: int, in_flight: int = 1
) -> Metrics:
    """One seeded trial; in_flight trials of this size run at once and share physical memory."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    warmup = algorithm == "warmup"
    u = spec.universe
    x, xhat = gen_signal(dataclasses.replace(spec, seed=trial_seed))
    _, mu, rstar = oracle_top_k(u, x, spec.k, mu_min_scale=config.mu_min)
    floor = noise_floor_value(x, mu, mu_min_scale=config.mu_min)
    # x, xhat and the audited copy with its two masks stay alive through the solve
    schedule = build_schedule(config, u.n, spec.k, floor, rstar, warmup)
    need = 50 * u.n + solve_memory(u, schedule)
    require_memory(in_flight * need, f"{in_flight} trial(s) on n = {u.n} points at once would")

    sig = AuditedSignal(u, x)
    t0 = time.perf_counter()
    result = fourier_sparse_recovery(sig, spec.k, floor, rstar, config, trial_seed, warmup)
    wall_ms = (time.perf_counter() - t0) * 1e3

    return compute_metrics(u, xhat, spec.k, result, trial_seed, wall_ms, mu, floor)


def run_experiment(
    spec: SignalSpec,
    config: RecoveryConfig,
    trials: int,
    algorithm: str = "main",
    seeds=None,
) -> Report:
    """Run seeded trials and aggregate. Audit violations propagate.

    Per-trial seeds are derived from spec.seed unless an explicit list is
    given (as the CLI does to replay one trial from a larger report).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")

    if seeds is None:
        seeds = [_trial_seed(spec.seed, i) for i in range(trials)]
    elif len(seeds) != trials:
        raise ValueError(f"got {len(seeds)} seeds for {trials} trials")
    threads = os.environ.get("SFT_THREADS", "0")
    if not threads.strip().isdecimal():
        raise ValueError(f"SFT_THREADS must be a non-negative integer, got {threads!r}")
    workers = int(threads)
    if workers > 1:
        in_flight = min(workers, trials)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            metrics = list(
                pool.map(lambda s: run_single_trial(spec, config, algorithm, s, in_flight), seeds)
            )
    else:
        metrics = [run_single_trial(spec, config, algorithm, s) for s in seeds]

    attempts = np.array([m.attempts_total for m in metrics])
    aggregates = {
        "success_rate": float(np.mean([m.guarantee_ok for m in metrics])),
        "mean_attempts": float(attempts.mean()),
        "median_attempts": float(np.median(attempts)),
        "max_attempts": int(max(m.attempts_max for m in metrics)),
        # R* is instance-dependent, so the realized budget can differ
        # across trials; the aggregate reports the largest one
        "budget": int(max(m.samples_used for m in metrics)),
        "mean_wall_ms": float(np.mean([m.wall_ms for m in metrics])),
    }
    return Report(
        schema_version=SCHEMA_VERSION,
        algorithm=algorithm,
        signal=dataclasses.asdict(spec),
        config=dataclasses.asdict(config),
        trials=trials,
        metrics=tuple(metrics),
        aggregates=aggregates,
    )


def report_to_dict(report: Report) -> dict:
    """Plain-data form of the report, exactly what the JSON file holds."""
    return json.loads(json.dumps(dataclasses.asdict(report)))


CSV_COLUMNS = ("seed", "linf_error", "guarantee_ok", "samples_used", "wall_ms", "attempts_total")


def _csv_text(report: Report) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for m in report.metrics:
        lines.append(
            ",".join(
                str(getattr(m, c)) if c != "guarantee_ok" else str(int(m.guarantee_ok))
                for c in CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str, path=None) -> str:
    """Serialize the report; write to path when given, return the text."""
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    elif fmt == "csv":
        text = _csv_text(report)
    else:
        raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'csv'")

    if path is not None:
        try:
            with io.open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text
