"""Tests for signal generation, the exact top-k oracle, and metrics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparsefourier.dft import Universe, forward
from sparsefourier.signals import (
    SignalSpec,
    gen_signal,
    noise_floor_value,
    oracle_top_k,
)


def test_single_tone_has_unit_energy():
    spec = SignalSpec(p=16, d=2, k=1, sigma=0.0, seed=4)
    x, xhat = gen_signal(spec)
    assert np.count_nonzero(xhat) == 1
    assert_allclose(np.linalg.norm(x), 1.0, atol=1e-12)  # unitary transform
    assert_allclose(np.abs(xhat[np.nonzero(xhat)]), 1.0, atol=1e-12)


def test_noiseless_tail_is_zero():
    spec = SignalSpec(p=8, d=3, k=5, sigma=0.0, seed=9)
    x, xhat = gen_signal(spec)
    _, mu, _ = oracle_top_k(Universe(p=8, d=3), x, 5)
    assert mu <= 1e-13


def test_oracle_mu_matches_direct_computation():
    # k=4, sigma=0.01, n=256: mu agrees with the tail norm computed by hand
    u = Universe(p=16, d=2)
    spec = SignalSpec(p=16, d=2, k=4, sigma=0.01, seed=12)
    x, xhat = gen_signal(spec)
    _, mu, _ = oracle_top_k(u, x, 4)

    mags = np.sort(np.abs(xhat))
    direct = np.linalg.norm(mags[:-4]) / math.sqrt(4)
    assert_allclose(mu, direct, rtol=1e-10)


def test_oracle_against_independent_sort():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(31)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    approx, mu, rstar = oracle_top_k(u, x, 6)

    xhat = forward(u, x)
    by_mag = sorted(range(u.n), key=lambda f: (-abs(xhat[f]), f))
    assert set(approx) == set(by_mag[:6])
    tail = sorted(np.abs(xhat))[: u.n - 6]
    assert_allclose(mu, np.linalg.norm(tail) / math.sqrt(6), rtol=1e-10)
    # a dense Gaussian spectrum has sup/mu below 1; R* clamps at its minimum
    assert np.max(np.abs(xhat)) / mu < 2
    assert rstar == 2.0


def test_oracle_rstar_is_tight_power_of_two():
    spec = SignalSpec(p=16, d=2, k=2, sigma=0.003, seed=44)
    x, xhat = gen_signal(spec)
    _, mu, rstar = oracle_top_k(Universe(p=16, d=2), x, 2)
    ratio = np.max(np.abs(xhat)) / mu
    assert ratio > 2
    assert rstar >= ratio
    assert rstar < 2 * ratio
    assert math.log2(rstar) == int(math.log2(rstar))


def test_oracle_tie_breaks_toward_lower_flat_index():
    u = Universe(p=4, d=2)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[3] = 1.0
    xhat[11] = -1.0  # same magnitude, higher flat index
    from sparsefourier.dft import inverse

    approx, _, _ = oracle_top_k(u, inverse(u, xhat), 1)
    assert set(approx) == {3}


def test_oracle_zero_signal_degenerate():
    u = Universe(p=4, d=1)
    approx, mu, rstar = oracle_top_k(u, np.zeros(4), 2)
    assert mu == 0.0 and rstar == 2.0
    assert len(approx) == 2


def test_gen_signal_deterministic_and_seed_sensitive():
    spec = SignalSpec(p=8, d=2, k=3, sigma=0.05, seed=7)
    x1, h1 = gen_signal(spec)
    x2, h2 = gen_signal(spec)
    assert np.array_equal(x1, x2) and np.array_equal(h1, h2)
    x3, _ = gen_signal(SignalSpec(p=8, d=2, k=3, sigma=0.05, seed=8))
    assert not np.array_equal(x1, x3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"k": 65},  # > n
        {"sigma": -0.1},
        {"k": -1},
        {"sigma": float("-inf")},
        {"p": 0},  # rejected by the Universe check
        {"d": 0},
        {"sigma": float("inf")},
        {"sigma": float("nan")},
        {"k": 2.5},
        {"k": 2.0},
        {"p": 2.5},  # rejected by the Universe check
        {"d": 2.0},
        {"k": True},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
    ],
)
def test_spec_validation(kwargs):
    base = {"p": 8, "d": 2, "k": 2}
    base.update(kwargs)
    with pytest.raises(ValueError):
        SignalSpec(**base)


def test_noise_floor_value():
    x = np.ones(4)
    assert noise_floor_value(x, mu=0.5) == 0.5
    assert noise_floor_value(x, mu=0.0) == 1e-12 * 2.0  # l2 norm is 2
