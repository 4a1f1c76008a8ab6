"""End-to-end acceptance gate, A1 through A11.

Each test prints exactly one verdict line (run with ``pytest -s`` to see
them) of the form ``A<i> PASS|FAIL <name>: <measured values>`` and then
asserts the same condition, so a red test and a FAIL line always agree.
The expensive recovery batches (A5, its noisy ladder, A6) run once in
module-scoped fixtures and are shared by the audit (A7) and
shift-statistics (A10) checks. A2-A4 run the Monte Carlo checks of
``sparsefourier.checks`` that ``sfft verify`` runs, at fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from conftest import direct_dft
from sparsefourier import checks
from sparsefourier.dft import Universe, densify, flat_index, forward, inverse
from sparsefourier.recovery import (
    DESK_PROFILE,
    ShiftFailure,
    ceil_log2,
    fourier_sparse_recovery,
)
from sparsefourier.reduction import linfinity_reduce
from sparsefourier.sampling import AuditedSignal, AuditViolation, SampleBundle
from sparsefourier.signals import SignalSpec, gen_signal, noise_floor_value, oracle_top_k

U4096 = Universe(p=16, d=3)


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"\n{name} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _run_trial(spec: SignalSpec, config, warmup=False) -> dict:
    """One audited recovery run with everything A5/A6/A7/A10 need."""
    u = spec.universe
    x, xhat = gen_signal(spec)
    _, mu, rstar = oracle_top_k(u, x, spec.k, mu_min_scale=config.mu_min)
    floor = noise_floor_value(x, mu, config.mu_min)
    sig = AuditedSignal(u, x)

    start = time.perf_counter()
    failed = None
    try:
        result = fourier_sparse_recovery(
            sig, spec.k, floor, rstar, config=config, rng=spec.seed, warmup=warmup
        )
    except ShiftFailure as exc:
        failed = str(exc)
        result = None
    wall = time.perf_counter() - start

    rec = {
        "seed": spec.seed,
        "wall": wall,
        "mu": mu,
        "rstar": rstar,
        "floor": floor,
        "xhat": xhat,
        "failed": failed,
        "granted": sig.granted_total,
        "audit_ok": failed is None and sig.all_granted_read(),
    }
    if result is None:
        rec.update(linf=math.inf, y={}, samples_used=-1, budget=-1, shift_attempts=[])
        return rec

    err = xhat.copy()
    for f, v in result.y.items():
        err[f] -= v
    rec.update(
        linf=float(np.max(np.abs(err))),
        y=result.y,
        samples_used=result.samples_used,
        budget=result.schedule.budget,
        shift_attempts=[d.shift_attempts for d in result.diagnostics[:-1]],
    )
    return rec


def _noisy_batch(p: int, d: int, log2_range: int, seeds) -> list:
    """Noisy k=8 runs on [p]^d at sup|xhat|/mu close to 2^log2_range."""
    k = 8
    sigma = math.sqrt(k / (p**d - k)) / 2.0**log2_range
    return [
        _run_trial(SignalSpec(p=p, d=d, k=k, sigma=sigma, seed=seed), DESK_PROFILE)
        for seed in seeds
    ]


def _hits(records) -> int:
    return sum(1 for r in records if r["failed"] is None and r["linf"] <= r["mu"])


@pytest.fixture(scope="module")
def a5_batch():
    """100 noisy k=8 runs on n=4096 at sup|xhat|/mu close to 2^8: one rung each."""
    return _noisy_batch(16, 3, 8, range(100))


@pytest.fixture(scope="module")
def noisy_ladder_batch():
    """40 noisy k=8 runs on n=4096 at sup|xhat|/mu close to 2^20: 4-5 rungs, shifts drawn."""
    return _noisy_batch(16, 3, 20, range(1000, 1040))


@pytest.fixture(scope="module")
def a6_batch():
    """20 noiseless runs on n=4096 for each k in {1, 4, 16}."""
    out = {}
    for k in (1, 4, 16):
        out[k] = [
            _run_trial(SignalSpec(p=16, d=3, k=k, seed=100 * k + i), DESK_PROFILE)
            for i in range(20)
        ]
    return out


def test_a1_transform_round_trip_and_direct_sum():
    cases = [(2, 10), (3, 7), (6, 4), (16, 3), (1024, 1)]
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_rt = 0.0
    worst_direct = 0.0
    for p, d in cases:
        u = Universe(p, d)
        x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
        xhat = forward(u, x)
        worst_rt = max(worst_rt, float(np.max(np.abs(inverse(u, xhat) - x))))
        worst_direct = max(worst_direct, float(np.max(np.abs(xhat - direct_dft(u, x)))))
    elapsed = time.perf_counter() - start
    ok = worst_rt <= 1e-9 and worst_direct <= 1e-9 and elapsed < 10.0
    assert _verdict(
        "A1",
        ok,
        f"round-trip err {worst_rt:.2e}, direct-sum err {worst_direct:.2e}"
        f" (tol 1e-09) over {len(cases)} universes in {elapsed:.1f}s (limit 10s)",
    )


def _timed_check(name: str, check, seed: int, limit: float) -> bool:
    start = time.perf_counter()
    ok, detail = check(seed)
    elapsed = time.perf_counter() - start
    return _verdict(
        name, ok and elapsed < limit, f"{detail}; seed {seed} in {elapsed:.1f}s (limit {limit:g}s)"
    )


def test_a2_coefficient_moments():
    assert _timed_check("A2", checks.coefficient_moments, 21, 10.0)


def test_a3_estimator_tail_bound():
    assert _timed_check("A3", checks.estimator_tail_bound, 31, 10.0)


def test_a4_shift_acceptance_rate():
    assert _timed_check("A4", checks.shift_acceptance, 41, 5.0)


@pytest.mark.slow
def test_a5_noisy_recovery_guarantee(a5_batch):
    hits = _hits(a5_batch)
    slowest = max(r["wall"] for r in a5_batch)
    ok = hits >= 95 and slowest < 5.0
    assert _verdict(
        "A5",
        ok,
        f"sup-error <= mu in {hits}/100 runs (need 95)"
        f" at n=4096, k=8, sup|xhat|/mu ~ 2^8; slowest run {slowest:.2f}s (limit 5s)",
    )


@pytest.mark.slow
def test_a5_noisy_ladder_guarantee(noisy_ladder_batch):
    hits = _hits(noisy_ladder_batch)
    rungs = sorted({len(r["shift_attempts"]) + 1 for r in noisy_ladder_batch})
    ok = hits >= 38
    assert _verdict(
        "A5",
        ok,
        f"noisy ladder: sup-error <= mu in {hits}/40 runs (need 38)"
        f" at n=4096, k=8, sup|xhat|/mu ~ 2^20 over {rungs} rungs",
    )


@pytest.mark.slow
def test_a6_noiseless_exact_recovery(a6_batch):
    parts = []
    ok = True
    for k, records in a6_batch.items():
        hits = 0
        for r in records:
            if r["failed"] is not None:
                continue
            truth = {int(f): complex(r["xhat"][f]) for f in np.flatnonzero(r["xhat"])}
            if set(r["y"]) != set(truth):
                continue
            if max(abs(r["y"][f] - truth[f]) for f in truth) <= 1e-6:
                hits += 1
        ok = ok and hits == 20
        parts.append(f"k={k}: {hits}/20")
    assert _verdict(
        "A6",
        ok,
        f"exact support and values within 1e-06 in {', '.join(parts)} noiseless runs (need 20/20)",
    )


@pytest.mark.slow
def test_a7_sample_budget_audit(a5_batch, a6_batch):
    records = list(a5_batch) + [r for recs in a6_batch.values() for r in recs]
    exact = sum(
        1
        for r in records
        if r["audit_ok"] and r["granted"] == r["budget"] and r["samples_used"] == r["budget"]
    )

    # an undeclared read must raise, never silently return data
    u = Universe(p=4, d=2)
    sig = AuditedSignal(u, np.ones(u.n, dtype=np.complex128))
    bundle = SampleBundle.draw(u, h=1, r=1, b=4, entropy=71)
    sig.grant_bundle(bundle)
    outside = np.setdiff1d(np.arange(u.n), bundle.flats)[:1]  # 4 draws leave most of 16 points
    with pytest.raises(AuditViolation):
        sig.read(outside)

    ok = exact == len(records)
    assert _verdict(
        "A7",
        ok,
        f"{exact}/{len(records)} runs read exactly B*R*H declared points"
        " with every declared point touched; out-of-bundle read raises AuditViolation",
    )


def test_a8_reduce_halves_radius():
    u = Universe(p=8, d=3)
    k = 4
    batches = []
    for c_b, c_r, need in ((DESK_PROFILE.c_b, DESK_PROFILE.c_r, 90), (256, 32, 98)):
        b = c_b * k
        rr = c_r * math.ceil(math.log2(u.n))
        hits = 0
        for seed in range(100):
            x, xhat = gen_signal(SignalSpec(p=8, d=3, k=k, sigma=0.01, seed=seed))
            nu = float(np.max(np.abs(xhat))) / 2.0
            assert float(np.max(np.abs(xhat))) <= 2.0 * nu  # oracle-checked precondition
            bundle = SampleBundle.draw(u, h=1, r=rr, b=b, entropy=seed)
            sig = AuditedSignal(u, x)
            sig.grant_bundle(bundle)
            out = linfinity_reduce(sig, [], [], bundle.flats[0], nu, u.n)
            resid = xhat - densify(u, dict(zip(out.flats.tolist(), out.z)))
            hits += float(np.max(np.abs(resid))) <= nu
        batches.append((b, rr, hits, need))

    ok = all(hits >= need for _, _, hits, need in batches)
    detail = ", ".join(f"B={b}, R={rr}: {hits}/100 (need {need})" for b, rr, hits, need in batches)
    assert _verdict("A8", ok, f"|resid| halved from 2*nu to nu in {detail} at n=512, k=4")


@pytest.mark.slow
def test_a9_projection_variant_guarantee():
    k = 4
    sigma = math.sqrt(k / (U4096.n - k)) / 2.0**8
    records = [
        _run_trial(
            SignalSpec(p=16, d=3, k=k, sigma=sigma, seed=900 + i),
            DESK_PROFILE,
            warmup=True,
        )
        for i in range(100)
    ]
    hits = sum(1 for r in records if r["failed"] is None and r["linf"] <= r["mu"])
    ok = hits >= 90
    assert _verdict(
        "A9",
        ok,
        f"projection-only variant met sup-error <= mu in {hits}/100 runs (need 90)"
        f" at n=4096, k=4",
    )


@pytest.mark.slow
def test_a10_shift_attempt_statistics(a5_batch, noisy_ladder_batch, a6_batch):
    cap = 10 * math.ceil(math.log2(U4096.n))
    # A5's noisy runs resolve in a single rung and draw no shifts; the noisy
    # ladder and the noiseless batch exercise the loop across their rungs
    sources = {
        "A5": a5_batch,
        "noisy ladder": noisy_ladder_batch,
        "A6": [r for recs in a6_batch.values() for r in recs],
    }
    attempts = {name: [a for r in recs for a in r["shift_attempts"]] for name, recs in sources.items()}
    pool = [a for pooled in attempts.values() for a in pooled]
    mean = sum(pool) / len(pool)
    worst = max(pool)
    ok = mean <= 2.0 and worst <= cap and len(attempts["noisy ladder"]) > 0
    source = ", ".join(f"{name} ({len(pooled)} iterations)" for name, pooled in attempts.items())
    assert _verdict(
        "A10",
        ok,
        f"mean shift attempts {mean:.3f} <= 2, max {worst} <= {cap}; source: {source}",
    )


A11_SHAPES = [(4096, 1), (64, 2), (16, 3), (8, 4), (4, 6), (2, 12), (3, 7), (5, 5), (7, 4)]


@pytest.mark.slow
def test_a11_dimension_sweep():
    # the guarantee and the sample count do not depend on d: every shape near
    # n = 4096 meets mu at A5's rate, and solves whose schedules agree on
    # ceil(log2 n) and R* (rounded up to a power of two) read the same samples
    parts = []
    ok = True
    used = {}  # (ceil log2 n, log2 R*) -> {(p, d): samples_used values}
    for p, d in A11_SHAPES:
        records = _noisy_batch(p, d, 8, range(20))
        hits = _hits(records)
        ok = ok and hits >= 19
        parts.append(f"{p}^{d}: {hits}/20")
        for r in records:
            if r["failed"] is None:
                key = (ceil_log2(p**d), ceil_log2(r["rstar"]))
                used.setdefault(key, {}).setdefault((p, d), set()).add(r["samples_used"])
    counts = {key: set().union(*by_shape.values()) for key, by_shape in sorted(used.items())}
    ok = ok and all(len(c) == 1 for c in counts.values())
    assert _verdict(
        "A11",
        ok,
        f"sup-error <= mu in {', '.join(parts)} runs (need 19/20) at k=8, sup|xhat|/mu ~ 2^8;"
        " samples_used per (ceil log2 n, log2 R*): "
        + ", ".join(f"{key}: {sorted(counts[key])} over {len(used[key])} shapes" for key in counts),
    )
