"""Recovery benchmark: timed fourier_sparse_recovery solves on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload noisy-65k --seed 1 --seconds 30 --trace 0

Each trial generates a signal from its trial seed, solves it with the main
driver under DESK_PROFILE and scores the result against the exact spectrum.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 every
second trial runs with recording wrappers on the layer entry points and the
run reports per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The package is imported
from src/ next to this directory, never from site-packages.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer, layer_targets, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PKG_DIR = ROOT / "src" / "sparsefourier"
MODULES = ("cli", "dft", "grids", "recovery", "reduction", "runner", "sampling", "signals")


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    d: int
    k: int
    sigma: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noisy-65k", 16, 4, 8, 1.7e-4,
            "one rung (L=1): no shifts, little sparse evaluation; time goes to the"
            " batched transform and the lower median over the (R, n) matrix",
        ),
        Workload(
            "highdim-65k", 4, 8, 8, 1.7e-4,
            "same n, schedule and samples as noisy-65k over 8 short axes: shows a"
            " transform or layout change that helps d=4 but hurts high d",
        ),
        Workload(
            "ladder-4k", 16, 3, 16, 0.0,
            "noiseless, 21 rungs: every list re-read and re-evaluated on each rung,"
            " 20 shift draws; sparse evaluation and reads weigh as much as the FFT",
        ),
    )
}

# name -> unit; BENCHMARK.json lists the same names with the same units
END_TO_END = {
    "solve_s": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "samples_read": "count",
    "pass_rate": "ratio",
}
PER_LAYER = {
    "sampling.bundle_draw_s": "s",
    "sampling.read_calls": "count",
    "sampling.read_s": "s",
    "sampling.points_read": "count",
    "dft.sparse_eval_calls": "count",
    "dft.sparse_eval_s": "s",
    "dft.sparse_eval_terms": "count",
    "dft.transform_s": "s",
    "reduction.rounds": "count",
    "reduction.round_s": "s",
    "reduction.self_s": "s",
    "reduction.kept": "count",
    "reduction.est_matrix_bytes": "bytes",
    "reduction.fft_ops": "flop",
    "grids.shift_draws": "count",
    "grids.shift_attempts": "count",
    "grids.accept_ratio": "ratio",
    "grids.shift_s": "s",
    "grids.project_calls": "count",
    "grids.project_s": "s",
    "recovery.rungs": "count",
    "recovery.support_max": "count",
    "recovery.self_s": "s",
    "signals.gen_s": "s",
    "signals.oracle_s": "s",
    "signals.score_s": "s",
    "trace.overhead_pct": "%",
    **{f"{m}.loc": "lines" for m in MODULES},
    "src.loc": "lines",
}
# per-layer metrics that are computed from the schedule rather than measured
COMPUTED = ("reduction.est_matrix_bytes", "reduction.fft_ops")


def import_package():
    """Import sparsefourier from this checkout; return (modules, seconds)."""
    if not (PKG_DIR / "recovery.py").is_file():
        raise SystemExit(f"error: no sparsefourier sources at {PKG_DIR}; run from a full checkout")
    sys.path.insert(0, str(PKG_DIR.parent))
    t0 = time.perf_counter()
    mods = {
        name: importlib.import_module(f"sparsefourier.{name}")
        for name in ("dft", "sampling", "grids", "reduction", "recovery", "signals")
    }
    import_s = time.perf_counter() - t0
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != PKG_DIR:
            raise SystemExit(f"error: imported {mod.__name__} from {mod.__file__}, not {PKG_DIR}")
    import numpy

    mods["np"] = numpy
    return SimpleNamespace(**mods), import_s


def trial_seed(sf, seed: int, index: int) -> int:
    """Seed of trial `index`; `sfft recover --seed <it>` replays the trial."""
    return int(sf.np.random.SeedSequence([seed, index]).generate_state(1)[0])


def score(sf, u, xhat, result, sig, floor) -> dict:
    """Check one finished solve against the exact spectrum and the audit."""
    linf = float(sf.np.max(sf.np.abs(xhat - sf.dft.densify(u, result.y))))
    budget = result.schedule.budget
    misses = []
    if not linf <= floor:
        misses.append(f"max|xhat - y| = {linf:.3e} > noise floor {floor:.3e}")
    if sig.granted_total != budget or result.samples_used != budget:
        misses.append(f"granted {sig.granted_total}, used {result.samples_used}, budget {budget}")
    if not sig.all_granted_read():
        misses.append("some granted samples were never read")
    return {"linf_error": linf, "noise_floor": floor, "ok": not misses, "miss": "; ".join(misses)}


def layer_metrics(tot, result, u) -> dict:
    """Per-layer numbers of one traced trial from its span totals."""
    sch = result.schedule
    shift = tot["grids.draw_good_shift"]
    rounds = tot["reduction.linfinity_reduce"]["calls"]
    return {
        "sampling.bundle_draw_s": tot["sampling.bundle_draw"]["total_s"],
        "sampling.read_calls": tot["sampling.read"]["calls"],
        "sampling.read_s": tot["sampling.read"]["total_s"],
        "sampling.points_read": tot["sampling.read"]["work"],
        "dft.sparse_eval_calls": tot["dft.sparse_eval_time"]["calls"],
        "dft.sparse_eval_s": tot["dft.sparse_eval_time"]["total_s"],
        "dft.sparse_eval_terms": tot["dft.sparse_eval_time"]["work"],
        "dft.transform_s": tot["dft.forward"]["total_s"] + tot["dft.inverse"]["total_s"],
        "reduction.rounds": rounds,
        "reduction.round_s": tot["reduction.linfinity_reduce"]["total_s"],
        "reduction.self_s": tot["reduction.linfinity_reduce"]["self_s"],
        "reduction.kept": tot["reduction.linfinity_reduce"]["work"],
        "reduction.est_matrix_bytes": sch.r * u.n * 16,
        "reduction.fft_ops": round(rounds * sch.r * 5 * u.n * math.log2(u.n)),
        "grids.shift_draws": shift["calls"],
        "grids.shift_attempts": shift["work"],
        "grids.accept_ratio": shift["calls"] / shift["work"] if shift["work"] else 0.0,
        "grids.shift_s": shift["total_s"],
        "grids.project_calls": tot["grids.project"]["calls"],
        "grids.project_s": tot["grids.project"]["total_s"],
        "recovery.rungs": len(result.diagnostics),
        "recovery.support_max": max(d.support_after_reduce for d in result.diagnostics),
        "recovery.self_s": tot["recovery.solve"]["self_s"],
        "signals.gen_s": tot["signals.gen_signal"]["total_s"],
        "signals.oracle_s": tot["signals.oracle_top_k"]["total_s"],
        "signals.score_s": tot["signals.score"]["total_s"],
    }


def self_check(name: str, layers: dict, tot: dict, sch) -> None:
    """Fail loudly when a wrapper did not fire: the trace would time nothing."""
    expected = {
        "reduce_h_rounds calls": sch.l,
        "sampling.read_calls": sch.r * sch.h * sch.l,
        "sampling.points_read": sch.b * sch.r * sch.h * sch.l,
        "dft.sparse_eval_calls": sch.r * sch.h * sch.l,
        "reduction.rounds": sch.h * sch.l,
        "grids.shift_draws": sch.l - 1,
        "recovery.rungs": sch.l,
    }
    seen = {**layers, "reduce_h_rounds calls": tot["reduction.reduce_h_rounds"]["calls"]}
    wrong = [f"{k} = {seen[k]}, expected {v}" for k, v in expected.items() if seen[k] != v]
    if sch.l > 1 and not layers["grids.project_calls"] > 0:
        wrong.append("grids.project_calls = 0 on a multi-rung ladder")
    for k in ("sampling.bundle_draw_s", "sampling.read_s", "dft.sparse_eval_s", "dft.transform_s",
              "reduction.round_s", "reduction.self_s", "recovery.self_s"):
        if not layers[k] > 0:
            wrong.append(f"{k} = {layers[k]}, expected > 0")
    if wrong:
        raise SystemExit(f"error: trace self-check failed on {name}: " + "; ".join(wrong))


def run_trial(sf, wl: Workload, seed: int, tracer: Tracer, memory: bool = False):
    """Build one instance, solve it, score it: (row, span totals, result or None).

    A failed solve is recorded in the row, never raised.
    """
    first = len(tracer.spans)
    tracer.trial = seed
    cfg = sf.recovery.DESK_PROFILE
    spec = sf.signals.SignalSpec(p=wl.p, d=wl.d, k=wl.k, sigma=wl.sigma, seed=seed)
    u = spec.universe
    x, xhat = tracer.call("signals.gen_signal", sf.signals.gen_signal, spec)
    _, mu, rstar = tracer.call(
        "signals.oracle_top_k", sf.signals.oracle_top_k, u, x, wl.k, mu_min_scale=cfg.mu_min
    )
    floor = sf.signals.noise_floor_value(x, mu, mu_min_scale=cfg.mu_min)
    sig = tracer.call("sampling.audited_signal", sf.sampling.AuditedSignal, u, x)

    row = {"seed": seed, "memory": memory, "ok": False, "miss": ""}
    result = None
    gc.collect()  # start every solve from the same heap state
    if memory:
        tracemalloc.start()
    try:
        result = tracer.call(
            "recovery.solve", sf.recovery.fourier_sparse_recovery,
            sig, wl.k, mu=floor, rstar=rstar, config=cfg, rng=seed,
        )
    except Exception as exc:  # a failed solve is a counted outcome, never dropped
        traceback.print_exc(file=sys.stderr)
        row["miss"] = f"{type(exc).__name__}: {exc}"
    finally:
        if memory:
            row["peak_mem_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    if result is not None:
        row.update(tracer.call("signals.score", score, sf, u, xhat, result, sig, floor))
        sch = result.schedule
        row["schedule"] = {"B": sch.b, "R": sch.r, "H": sch.h, "L": sch.l, "budget": sch.budget}

    tot = tracer.totals(first)
    row["samples_read"] = sig.granted_total
    row["solve_s"] = tot["recovery.solve"]["total_s"]
    row["inputs_s"] = sum(
        tot[n]["total_s"] for n in ("signals.gen_signal", "signals.oracle_top_k", "sampling.audited_signal")
    )
    return row, tot, result


def warm_up(sf) -> float:
    """Median of three tiny four-rung solves, run so first-call costs are paid early."""
    wl = Workload("warm-up", 8, 2, 2, 1e-6, "")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        row, _, _ = run_trial(sf, wl, 0, Tracer())
        times.append(time.perf_counter() - t0)
        if not row["ok"]:
            raise SystemExit(f"error: warm-up solve failed: {row['miss']}")
    return statistics.median(times)


def median(unit: str, values: list):
    """Median; counts keep to one of the observed whole numbers."""
    if unit in ("count", "bytes", "flop", "lines"):
        return statistics.median_low(values)
    return statistics.median(values)


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def measure(sf, wl: Workload, seed: int, seconds: float, trace: bool, setup_base_s: float):
    """Run trials for about `seconds` seconds; return (rows, metrics, tracer)."""
    tracer = Tracer()
    targets = layer_targets(sf)
    rows, layers, traced_solve_s = [], [], []
    t_start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        with patched(tracer, targets) if traced else contextlib.nullcontext():
            row, tot, result = run_trial(sf, wl, trial_seed(sf, seed, index), tracer)
        index += 1
        row["traced"] = traced
        rows.append(row)
        if traced:
            traced_solve_s.append(row["solve_s"])
            if result is not None:
                lm = layer_metrics(tot, result, sf.dft.Universe(p=wl.p, d=wl.d))
                self_check(wl.name, lm, tot, result.schedule)
                layers.append(lm)
        elapsed = time.perf_counter() - t_start
        # stop where the run length comes closest to `seconds`
        if (not trace or index >= 2) and elapsed + elapsed / index / 2 >= seconds:
            break

    plain = [r for r in rows if not r["traced"]]
    if trace:
        if not layers:
            raise SystemExit(f"error: no traced solve of {wl.name} completed")
        metrics = {k: median(PER_LAYER[k], [lm[k] for lm in layers]) for k in layers[0]}
        untraced = statistics.median(r["solve_s"] for r in plain)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_solve_s) / untraced - 1.0)
        metrics.update(loc_metrics())
        return rows, metrics, tracer

    row, _, _ = run_trial(sf, wl, trial_seed(sf, seed, index), tracer, memory=True)
    row["traced"] = False
    rows.append(row)
    solve_times = [r["solve_s"] for r in plain]
    metrics = {
        "solve_s": statistics.median(solve_times),
        "solves_per_s": sum(r["ok"] for r in plain) / sum(solve_times),
        "setup_s": setup_base_s + statistics.median(r["inputs_s"] for r in rows),
        "peak_mem_mb": row["peak_mem_bytes"] / 1e6,
        "samples_read": median("count", [r["samples_read"] for r in rows]),
        "pass_rate": sum(r["ok"] for r in rows) / len(rows),
    }
    return rows, metrics, tracer


def loc_metrics() -> dict:
    def lines(path: Path) -> int:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh)

    out = {f"{m}.loc": lines(PKG_DIR / f"{m}.py") if (PKG_DIR / f"{m}.py").is_file() else 0 for m in MODULES}
    out["src.loc"] = sum(lines(p) for p in PKG_DIR.glob("*.py"))
    return out


def run_context(sf, args) -> dict:
    """Machine and library facts that bear on the timings."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    blas = sf.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": sf.np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
        "blas_thread_env": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "SFT_THREADS": os.environ.get("SFT_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "out"), help="directory for reports and spans")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    sf, import_s = import_package()
    warmup_s = warm_up(sf)
    context = run_context(sf, args)
    print("# context " + json.dumps(context))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = PER_LAYER if args.trace else END_TO_END

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        rows, metrics, tracer = measure(sf, wl, args.seed, args.seconds, bool(args.trace), import_s + warmup_s)
        failed = sum(not r["ok"] for r in rows)
        result["correct"] = result["correct"] and failed == 0
        result["attempted"] += len(rows)
        result["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update(
            {prefix + k: {"value": metrics[k], "unit": units[k]} for k in units}
        )
        print_summary(wl, rows, metrics, units, failed)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        report = {
            "context": context,
            "workload": asdict(wl),
            "setup": {"import_s": import_s, "warmup_s": warmup_s},
            "computed_metrics": COMPUTED if args.trace else [],
            "metrics": metrics,
            "trials": rows,
        }
        (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
        if args.trace:
            with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


def print_summary(wl: Workload, rows, metrics, units, failed) -> None:
    timed = [r["solve_s"] for r in rows if not r["memory"] and not r["traced"]]
    q = quartiles(timed)
    print(f"{wl.name}: p={wl.p} d={wl.d} k={wl.k} sigma={wl.sigma}; replay a trial with"
          f" sfft recover --p {wl.p} --d {wl.d} --k {wl.k} --sigma {wl.sigma} --seed <trial seed>")
    print(f"  untraced solves: n={q['n']} q1={q['q1']:.4f} s median={q['median']:.4f} s q3={q['q3']:.4f} s")
    print(f"  fail_rate = {failed / len(rows)} ({failed} of {len(rows)} attempted)")
    print("  trial seeds: " + " ".join(str(r["seed"]) for r in rows))
    for r in rows:
        if not r["ok"]:
            print(f"  FAILED trial seed={r['seed']}: {r['miss']}", file=sys.stderr)
    for k, unit in units.items():
        print(f"  {k} = {metrics[k]} {unit}")


if __name__ == "__main__":
    sys.exit(main())
