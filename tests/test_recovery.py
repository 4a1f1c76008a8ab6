"""Tests for the schedule arithmetic and the end-to-end recovery drivers.

Ground truth spectra are planted directly, so every guarantee is checked
against the exact residual. Noise levels for noiseless signals are floored
at 1e-12 times the signal's l2 norm, the convention the harness uses.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from sparsefourier.dft import Universe, densify, inverse
from sparsefourier.grids import GoodShiftError
from sparsefourier.recovery import (
    DESK_PROFILE,
    PAPER_PROFILE,
    RecoveryConfig,
    ShiftFailure,
    build_schedule,
    ceil_log2,
    fourier_sparse_recovery,
)
from sparsefourier.reduction import reduce_h_rounds
from sparsefourier.sampling import AuditedSignal, SampleBundle
from sparsefourier.signals import SignalSpec, gen_signal, noise_floor_value, oracle_top_k


def _plant(u, entries):
    xhat = np.zeros(u.n, dtype=np.complex128)
    for f, v in entries.items():
        xhat[f] = v
    return xhat, inverse(u, xhat)


def _noise_floor(x):
    return 1e-12 * np.linalg.norm(x)


def _residual_linf(u, xhat, y):
    return np.max(np.abs(xhat - densify(u, y)))


# --------------------------------------------------------------- config


def test_profiles_are_valid():
    assert PAPER_PROFILE.c_b == 10**6
    assert DESK_PROFILE.c_b == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"alpha": 0.09, "beta": 0.08},  # alpha >= beta
        {"beta": 0.2},  # beta >= 0.1
        {"alpha": 0.05, "beta": 0.08},  # alpha > beta/2
        {"c_b": 0},
        {"mu_min": 0.0},
        {"mu_min": float("nan")},
        {"mu_min": float("inf")},
        {"c_b": True},
        {"c_r": 2.0},
        {"c_h": np.float64(3)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        dataclasses.replace(DESK_PROFILE, **kwargs)


def test_config_stores_numpy_integers_as_int():
    config = RecoveryConfig(c_b=np.int64(8), c_r=np.int32(4), c_h=np.uint8(3))
    assert config == DESK_PROFILE
    assert all(type(v) is int for v in (config.c_b, config.c_r, config.c_h))


# ------------------------------------------------------------- schedule


def test_ceil_log2_is_exact():
    for m in range(1, 4097):
        e = 0
        while 2**e < m:
            e += 1
        assert ceil_log2(m) == e
    for e in range(-30, 61):
        x = 2.0**e
        assert ceil_log2(x) == e
        assert ceil_log2(float(np.nextafter(x, np.inf))) == e + 1
        assert ceil_log2(float(np.nextafter(x, 0.0))) == e
        if e >= 2:  # integers beyond float precision stay exact
            assert ceil_log2(2**e) == e
            assert ceil_log2(2**e + 1) == e + 1
            assert ceil_log2(2**e - 1) == e
    for bad in (0, -1, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ceil_log2(bad)


def test_schedule_desk_example():
    # k=4, n=4096: the base H would be ceil(log2 4)+3 = 5, but at
    # alpha=0.02 the shift-speed floor is 16. At R*=2^10 the log2 R* cap
    # wins and the run degenerates to a single rung with H = 10
    s = build_schedule(DESK_PROFILE, n=4096, k=4, mu=1.0, rstar=2**10)
    assert (s.b, s.r) == (32, 48)
    assert s.h == 10 and s.l == 1
    assert s.budget == 32 * 48 * 10 == 15360
    # at R*=2^20 the cap is 20, so the floor wins
    t = build_schedule(DESK_PROFILE, n=4096, k=4, mu=1.0, rstar=2**20)
    assert t.h == 16 and t.l == 5


def test_schedule_min_branch_k1():
    # short ladder: H collapses to log2 R* and L = 1
    s = build_schedule(PAPER_PROFILE, n=1024, k=1, mu=0.5, rstar=4)
    assert s.h == 2
    assert s.l == 1


def test_schedule_doubling_rstar_keeps_budget():
    a = build_schedule(PAPER_PROFILE, n=1024, k=1, mu=1.0, rstar=2**30)
    b = build_schedule(PAPER_PROFILE, n=1024, k=1, mu=1.0, rstar=2**31)
    assert a.h == b.h == 20  # the base ceil(log2 1) + 20 beats the floor of 18
    assert b.l == a.l + 1
    assert a.budget == b.budget


def test_schedule_rounds_rstar_up_to_power_of_two():
    # nu_1 = mu * R* / 2 with R* rounded up to 8
    mu = 1.0
    s = build_schedule(DESK_PROFILE, n=64, k=1, mu=mu, rstar=5.0)
    assert s.nus[0] * 2 / mu == 8.0
    t = build_schedule(DESK_PROFILE, n=64, k=1, mu=mu, rstar=8.0)
    assert t.nus[0] * 2 / mu == 8.0


def test_schedule_ladder_halves_and_ends_at_mu():
    mu = 0.003
    s = build_schedule(DESK_PROFILE, n=4096, k=2, mu=mu, rstar=2**22)
    assert s.l == 22 - s.h + 1
    for a, b in zip(s.nus, s.nus[1:]):
        assert b == a / 2
    assert s.nus[0] == mu * 2**22 / 2
    assert 2.0 ** (1 - s.h) * s.nus[-1] == mu  # exact: only power-of-two scalings


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"mu": 0.0},
        {"rstar": 1.5},
        {"n": 1},
        {"mu": float("nan")},
        {"mu": float("inf")},
        {"rstar": float("nan")},
        {"rstar": float("inf")},
        {"k": 2.5},
        {"k": np.float64(2.0)},
        {"k": True},
    ],
)
def test_schedule_rejects_bad_inputs(kwargs):
    # a NaN fails every comparison, so it must be refused by name, not pass as "not <= 0"
    args = {"n": 64, "k": 2, "mu": 1.0, "rstar": 16.0}
    args.update(kwargs)
    names = {"k": "sparsity k", "n": "universe size", "mu": "noise level mu", "rstar": "bound rstar"}
    with pytest.raises(ValueError, match=names[next(iter(kwargs))]):
        build_schedule(DESK_PROFILE, **args)


# ------------------------------------------------------------- recovery


def test_zero_signal_recovers_empty():
    u = Universe(p=8, d=2)
    sig = AuditedSignal(u, np.zeros(u.n))
    res = fourier_sparse_recovery(sig, k=2, mu=1.0, rstar=4, config=DESK_PROFILE, rng=0)
    assert res.y == {}
    assert res.samples_used == res.schedule.budget


def test_noiseless_three_sparse_exact():
    u = Universe(p=16, d=2)
    entries = {7: 1.0 + 0j, 150: -0.6 + 0.4j, 255: 0.9j}
    xhat, x = _plant(u, entries)
    mu = _noise_floor(x)
    rstar = np.max(np.abs(xhat)) / mu

    sig = AuditedSignal(u, x)
    res = fourier_sparse_recovery(sig, k=3, mu=mu, rstar=rstar, config=DESK_PROFILE, rng=11)

    assert set(res.y) == set(entries)
    for f, v in entries.items():
        assert abs(res.y[f] - v) <= 1e-6
    assert sig.granted_total == res.samples_used == res.schedule.budget
    assert sig.all_granted_read()


def test_shifted_ladder_hits_noise_target():
    # R* = 2^20 with k=1 forces a multi-rung ladder (H=14, L=7), so the
    # shift-and-project path actually runs; the residual must end below mu
    u = Universe(p=8, d=2)
    xhat, x = _plant(u, {13: 1.0 + 0j})
    mu = 2.0**-20

    sig = AuditedSignal(u, x)
    res = fourier_sparse_recovery(sig, k=1, mu=mu, rstar=2**20, config=DESK_PROFILE, rng=3)

    assert res.schedule.l == 7
    assert set(res.y) == {13}
    assert _residual_linf(u, xhat, res.y) <= mu
    assert len(res.diagnostics) == 7
    assert res.diagnostics[-1].shift_attempts == 0
    assert all(d.shift_attempts >= 1 for d in res.diagnostics[:-1])
    assert res.attempts_max <= 10 * 6  # cap is factor * ceil(log2 n)


def test_recovery_is_deterministic():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(5)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[[3, 40]] = [1.0, 0.5 - 0.5j]
    xhat += 0.001 * (rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n))
    x = inverse(u, xhat)

    def run():
        sig = AuditedSignal(u, x)
        return fourier_sparse_recovery(sig, k=2, mu=0.01, rstar=256, config=DESK_PROFILE, rng=42)

    a, b = run(), run()
    assert a.y == b.y
    assert a.diagnostics == b.diagnostics


# Recorded outputs of four small solves, so that a refactor meant to keep
# them shows when it does not. Each entry: y, then per rung (nu, shift,
# shift_attempts, support_after_reduce, support_after_projection), then
# samples_used. Shifts and supports must match exactly; y values may move
# by float reassociation of the sums only, so within 1e-12 * max|y|.
PINNED = {
    "tones-main": (
        {13: 1 + 0j, 40: 0.6 - 0.3j},
        [
            (0.5, 0.004868908089472261 - 0.0062129621897644375j, 1, 2, 2),
            (0.25, 0.0036188906278510633 + 0.004778985982041018j, 1, 2, 2),
            (0.125, 0.0013307464599381729 - 0.0019103146438273068j, 1, 2, 2),
            (0.0625, -0.0005750875070911271 + 0.0002999693700079856j, 1, 2, 2),
            (0.03125, 0.00034840142048383886 + 0.0003732013844291376j, 1, 2, 2),
            (0.015625, 0j, 0, 2, 2),
        ],
        5760,
    ),
    "tones-warmup": (
        {13: 1 - 1.3019764519768672e-16j, 40: 0.6 - 0.3j},
        [(2.0 ** (-i), 0j, 0, 2, 2) for i in range(1, 17)],
        1920,
    ),
    "spec-main": (
        {
            100: 0.9928244202299087 + 0.12903830412936526j,
            124: -0.6241988841733336 - 0.7812037004099206j,
            160: 0.2723269969492389 + 0.9595579386649143j,
            200: 0.9064910779854645 + 0.41730224338647115j,
        },
        [(0.9682888879237285, 0j, 0, 4, 4)],
        8192,
    ),
    # n = 4^7 spans four frequency slabs of 4^6
    "slabs-main": (
        {
            6498: 0.974647675007567 + 0.21946510669662173j,
            10355: -0.4623598024674209 - 0.9371671820220612j,
        },
        [(0.7226970118165186, 0j, 0, 2, 2)],
        3584,
    ),
}
PINNED_SPECS = {
    "spec-main": SignalSpec(16, 2, 4, 1e-3, 7),
    "slabs-main": SignalSpec(4, 7, 2, 1e-3, 7),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_solver_outputs_are_pinned(case):
    if case.startswith("tones"):
        # mu = 2^-20 and R* = 2^20: 6 rungs under the main driver, 16 under the warm-up one
        u = Universe(p=8, d=2)
        _, x = _plant(u, {13: 1.0 + 0j, 40: 0.6 - 0.3j})
        k, mu, rstar, seed = 2, 2.0**-20, 2.0**20, 5
    else:
        spec = PINNED_SPECS[case]
        u = spec.universe
        x, _ = gen_signal(spec)
        _, mu, rstar = oracle_top_k(u, x, spec.k, mu_min_scale=DESK_PROFILE.mu_min)
        k, mu, seed = spec.k, noise_floor_value(x, mu, DESK_PROFILE.mu_min), spec.seed
    warmup = case.endswith("warmup")
    sig = AuditedSignal(u, x)
    res = fourier_sparse_recovery(
        sig, k, mu=mu, rstar=rstar, config=DESK_PROFILE, rng=seed, warmup=warmup
    )

    y, diags, used = PINNED[case]
    assert sorted(res.y) == sorted(y)
    scale = max(abs(v) for v in y.values())
    assert all(abs(res.y[f] - v) <= 1e-12 * scale for f, v in y.items())
    assert [dataclasses.astuple(d) for d in res.diagnostics] == diags
    assert res.samples_used == sig.granted_total == used
    assert sig.all_granted_read()


def test_shift_failure_is_structured(monkeypatch):
    u = Universe(p=8, d=2)
    xhat, x = _plant(u, {5: 1.0 + 0j})

    def always_fail(centers, params, rng, max_attempts):
        raise GoodShiftError("forced", attempts=max_attempts)

    monkeypatch.setattr("sparsefourier.recovery.draw_good_shift", always_fail)
    sig = AuditedSignal(u, x)
    with pytest.raises(ShiftFailure) as exc:
        fourier_sparse_recovery(sig, k=1, mu=2.0**-20, rstar=2**20, config=DESK_PROFILE, rng=0)
    assert exc.value.iteration == 1
    assert exc.value.attempts == 60


def test_driver_validates_inputs():
    u = Universe(p=4, d=1)
    sig = AuditedSignal(u, np.zeros(4))
    with pytest.raises(ValueError):
        fourier_sparse_recovery(sig, k=0, mu=1.0, rstar=4)
    with pytest.raises(ValueError):
        fourier_sparse_recovery(sig, k=1, mu=-1.0, rstar=4)
    with pytest.raises(ValueError):
        fourier_sparse_recovery(sig, k=1, mu=1.0, rstar=1.0)


def test_run_too_large_for_memory_is_refused(monkeypatch):
    # the paper constants declare B*R*H of about 2.5e11 samples at n=64
    monkeypatch.setattr(SampleBundle, "draw", lambda *a: pytest.fail("bundle drawn"))
    u = Universe(p=8, d=2)
    _, x = _plant(u, {5: 1.0 + 0j, 40: 0.5j})
    mu = _noise_floor(x)
    sig = AuditedSignal(u, x)
    with pytest.raises(ValueError, match="memory"):
        fourier_sparse_recovery(sig, k=2, mu=mu, rstar=1 / mu, config=PAPER_PROFILE, rng=0)
    assert sig.granted_total == 0


def test_memory_guard_covers_the_measured_peak(monkeypatch):
    # the guard's estimate must bound what a solve really holds (tracemalloc
    # peak) without being loose by more than half of it, on a universe of one
    # frequency slab (16^3), on one of four (4^7, a one-rung ladder) and on a
    # two-rung ladder over six short axes (4^6), where y carries across rungs
    for u, mu in ((Universe(p=16, d=3), None), (Universe(p=4, d=7), 2.0**-6),
                  (Universe(p=4, d=6), 2.0**-16)):
        _, x = _plant(u, {5: 1.0 + 0j, 1234: 0.5j})
        mu = mu or _noise_floor(x)

        def solve():
            return fourier_sparse_recovery(AuditedSignal(u, x), k=2, mu=mu, rstar=1 / mu, rng=0)

        tracemalloc.start()
        try:
            rungs = len(solve().diagnostics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rungs >= 2 or u.d == 7

        with monkeypatch.context() as m:

            def physical(nbytes):
                pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
                m.setattr(os, "sysconf", lambda name: pages[name])

            physical(int(1.5 * peak))
            assert len(solve().y) == 2
            physical(peak - 1)
            m.setattr(SampleBundle, "draw", lambda *a: pytest.fail("bundle drawn"))
            with pytest.raises(ValueError, match="physical memory"):
                solve()


# -------------------------------------------------------------- warm-up


def test_warmup_noiseless_exact():
    u = Universe(p=8, d=2)
    xhat, x = _plant(u, {9: 1.0 + 0j, 33: 0.7 - 0.2j})
    mu = _noise_floor(x)
    rstar = np.max(np.abs(xhat)) / mu

    sig = AuditedSignal(u, x)
    res = fourier_sparse_recovery(
        sig, k=2, mu=mu, rstar=rstar, config=DESK_PROFILE, rng=7, warmup=True
    )
    assert set(res.y) == {9, 33}
    for f in res.y:
        assert abs(res.y[f] - xhat[f]) <= 1e-6
    assert res.schedule.h == 5
    assert res.samples_used == res.schedule.b * res.schedule.r * 5
    assert all(d.shift == 0j and d.shift_attempts == 0 for d in res.diagnostics)


def test_warmup_single_rung_equals_reduce_rounds():
    # R* = 2^5 makes L = 1: the driver is then exactly H rounds from zero
    u = Universe(p=8, d=2)
    xhat, x = _plant(u, {20: 1.0 + 0j})
    mu, rstar, entropy = 2.0**-5, 2**5, 19

    sig = AuditedSignal(u, x)
    res = fourier_sparse_recovery(
        sig, k=1, mu=mu, rstar=rstar, config=DESK_PROFILE, rng=entropy, warmup=True
    )
    assert res.schedule.l == 1

    schedule = build_schedule(DESK_PROFILE, u.n, 1, mu, rstar, warmup=True)
    bundle = SampleBundle.draw(u, schedule.h, schedule.r, schedule.b, entropy)
    sig2 = AuditedSignal(u, x)
    sig2.grant_bundle(bundle)
    z = reduce_h_rounds(sig2, np.zeros(u.n, dtype=np.complex128), bundle, schedule.nus[0])
    assert res.y == {int(f): complex(z[f]) for f in np.flatnonzero(z)}


def test_warmup_hits_noise_target_on_tall_ladder():
    u = Universe(p=8, d=2)
    xhat, x = _plant(u, {11: 1.0 + 0j})
    mu = 2.0**-20

    sig = AuditedSignal(u, x)
    res = fourier_sparse_recovery(
        sig, k=1, mu=mu, rstar=2**20, config=DESK_PROFILE, rng=23, warmup=True
    )
    assert res.schedule.l == 16
    assert _residual_linf(u, xhat, res.y) <= mu
