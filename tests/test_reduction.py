"""Tests for the median-and-threshold residual shrinking rounds.

Ground truth is always available here (tests build the spectrum first),
so the halving guarantee is checked directly against the true residual.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparsefourier.dft import Universe, flat_index, inverse, sparse_eval_time, unflat_index
from sparsefourier.reduction import linfinity_reduce, reduce_h_rounds
from sparsefourier.sampling import AuditedSignal, SampleBundle, subset_transform_single


def _signal_from_spectrum(u, xhat):
    return inverse(u, xhat)


def _audited(u, x, lists):
    sig = AuditedSignal(u, x)
    sig.grant(flat_index(u, lists).ravel())
    return sig


def _draw_lists(u, r, b, seed):
    """R lists of B points, (R, B, d), drawn one list at a time from one generator."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, u.p, size=(b, u.d), dtype=np.int64) for _ in range(r)])


def _spectrum(u, entries):
    y = np.zeros(u.n, dtype=np.complex128)
    for f, v in entries.items():
        y[f] = v
    return y


def test_zero_residual_yields_empty_z():
    # y already equals the spectrum, so every estimate is exactly zero
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(0)
    support = [3, 17, 40]
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = _signal_from_spectrum(u, xhat)
    lists = _draw_lists(u, r=5, b=16, seed=1)
    out = linfinity_reduce(_audited(u, x, lists), xhat, lists, nu=0.3)
    assert not out.z.any()


def test_zero_signal_yields_empty_z():
    u = Universe(p=4, d=3)
    lists = _draw_lists(u, r=5, b=16, seed=2)
    out = linfinity_reduce(_audited(u, np.zeros(u.n), lists), np.zeros(u.n), lists, nu=1.0)
    assert not out.z.any()


def test_one_sparse_signal_recovered_in_one_round():
    u = Universe(p=16, d=2)
    f_star = 37
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[f_star] = np.exp(0.7j)
    x = _signal_from_spectrum(u, xhat)

    lists = _draw_lists(u, r=9, b=64, seed=3)
    out = linfinity_reduce(_audited(u, x, lists), np.zeros(u.n), lists, nu=0.4)
    assert out.z.shape == (u.n,)
    assert np.flatnonzero(out.z).tolist() == [f_star]
    assert abs(out.z[f_star] - xhat[f_star]) <= 0.4


def test_thresholding_and_median_support():
    # every kept value has magnitude >= nu/2 and equals its median estimate
    u = Universe(p=8, d=2)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[[2, 9, 33]] = [1.0, -0.8 + 0.1j, 0.5j]
    x = _signal_from_spectrum(u, xhat)
    nu = 0.5

    lists = _draw_lists(u, r=7, b=32, seed=6)
    out = linfinity_reduce(_audited(u, x, lists), np.zeros(u.n), lists, nu=nu)
    assert out.eta.shape == out.z.shape == (u.n,)
    kept = np.flatnonzero(out.z)
    assert len(kept) > 0
    assert np.all(np.abs(out.z[kept]) >= nu / 2)
    assert np.array_equal(out.z[kept], out.eta[kept])
    below = np.abs(out.eta) < nu / 2
    assert not out.z[below].any()


@pytest.mark.parametrize("time_eval", ["sparse", "dense"])
def test_medians_match_per_list_estimates(time_eval):
    # the medians must agree with R separate single-frequency estimates,
    # combined by the lower median of real and imaginary parts, whether the
    # test evaluates y at the sample points sparsely or by a dense inverse
    u = Universe(p=4, d=2)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    y = _spectrum(u, {1: 0.3 + 0.1j, 7: -0.2j})
    lists = _draw_lists(u, r=6, b=10, seed=8)

    out = linfinity_reduce(_audited(u, x, lists), y, lists, nu=0.1)

    def y_at(t):
        if time_eval == "sparse":
            return sparse_eval_time(u, t, unflat_index(u, [1, 7]), y[[1, 7]])
        return inverse(u, y)[flat_index(u, t)]

    per_list = np.array(
        [
            [subset_transform_single(u, x[flat_index(u, t)] - y_at(t), t, f) for f in range(u.n)]
            for t in lists
        ]
    )
    idx = (len(lists) - 1) // 2
    manual = (
        np.sort(per_list.real, axis=0)[idx] + 1j * np.sort(per_list.imag, axis=0)[idx]
    )
    assert_allclose(out.eta, manual, atol=1e-10)


def test_rejects_empty_lists_and_mismatched_universe():
    u = Universe(p=4, d=1)
    sig = AuditedSignal(u, np.zeros(4))
    y = np.zeros(u.n)
    with pytest.raises(ValueError):
        linfinity_reduce(sig, y, (), nu=0.5)
    with pytest.raises(ValueError):
        linfinity_reduce(sig, y, np.zeros((0, 4, 1), dtype=np.int64), nu=0.5)
    other = _draw_lists(Universe(p=4, d=2), r=2, b=4, seed=0)
    with pytest.raises(ValueError, match="universe"):
        linfinity_reduce(sig, y, other, nu=0.5)


@pytest.mark.parametrize("y", [np.zeros(5), np.zeros((1, 4)), {}], ids=["long", "2d", "dict"])
def test_rejects_y_that_is_not_a_length_n_array(y):
    u = Universe(p=4, d=1)
    lists = _draw_lists(u, r=2, b=4, seed=0)
    with pytest.raises(ValueError, match="length-4 spectrum"):
        linfinity_reduce(_audited(u, np.zeros(4), lists), y, lists, nu=0.5)


def test_rejects_nonpositive_nu():
    u = Universe(p=4, d=1)
    lists = _draw_lists(u, r=2, b=4, seed=0)
    with pytest.raises(ValueError):
        linfinity_reduce(_audited(u, np.zeros(4), lists), np.zeros(4), lists, nu=0.0)


def test_determinism():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    lists = _draw_lists(u, r=5, b=20, seed=13)
    a = linfinity_reduce(_audited(u, x, lists), np.zeros(u.n), lists, nu=0.6)
    b = linfinity_reduce(_audited(u, x, lists), np.zeros(u.n), lists, nu=0.6)
    assert np.array_equal(a.z, b.z)


# ------------------------------------------------------------- multi-round


def test_single_round_equals_direct_call():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(14)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    bundle = SampleBundle.draw(u, h=1, r=5, b=20, entropy=15)
    lists = bundle.points[0]

    sig1 = AuditedSignal(u, x)
    sig1.grant_bundle(bundle)
    z_rounds = reduce_h_rounds(sig1, np.zeros(u.n), bundle, nu=0.8, h=1)

    sig2 = _audited(u, x, lists)
    direct = linfinity_reduce(sig2, np.zeros(u.n), lists, nu=0.8)
    assert np.array_equal(z_rounds, direct.z)


def test_rounds_validate_h():
    u = Universe(p=4, d=1)
    bundle = SampleBundle.draw(u, h=2, r=3, b=4, entropy=0)
    sig = AuditedSignal(u, np.zeros(4))
    sig.grant_bundle(bundle)
    with pytest.raises(ValueError):
        reduce_h_rounds(sig, np.zeros(4), bundle, nu=1.0, h=3)
    with pytest.raises(ValueError):
        reduce_h_rounds(sig, np.zeros(4), bundle, nu=1.0, h=0)


def test_noiseless_two_sparse_residual_walks_down():
    # after round i the true residual must sit below 2^(1-i) * nu, and by
    # the last round the approximation is essentially exact
    u = Universe(p=16, d=3)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[100] = 1.0
    xhat[2741] = -0.6 + 0.8j
    x = _signal_from_spectrum(u, xhat)
    nu, h_rounds = 0.6, 10

    bundle = SampleBundle.draw(u, h=h_rounds, r=9, b=64, entropy=99)
    sig = AuditedSignal(u, x)
    sig.grant_bundle(bundle)

    z = np.zeros(u.n, dtype=np.complex128)
    for i in range(1, h_rounds + 1):
        z += linfinity_reduce(sig, z, bundle.points[i - 1], nu=nu * 2.0 ** (1 - i)).z
        assert np.max(np.abs(xhat - z)) <= 2.0 ** (1 - i) * nu + 1e-12

    assert np.max(np.abs(xhat - z)) <= 2.0 ** (1 - h_rounds) * nu
    assert np.flatnonzero(z).tolist() == [100, 2741]


def test_reduce_h_rounds_end_to_end_three_sparse():
    u = Universe(p=8, d=4)
    rng = np.random.default_rng(21)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[[5, 999, 3000]] = [1.0, 0.9j, -0.7 - 0.2j]
    x = _signal_from_spectrum(u, xhat)
    nu, h_rounds = 0.55, 8

    bundle = SampleBundle.draw(u, h=h_rounds, r=9, b=96, entropy=31)
    sig = AuditedSignal(u, x)
    sig.grant_bundle(bundle)
    z = reduce_h_rounds(sig, np.zeros(u.n), bundle, nu=nu, h=h_rounds)

    assert np.max(np.abs(xhat - z)) <= 2.0 ** (1 - h_rounds) * nu
    assert sig.all_granted_read()
    assert sig.granted_total == h_rounds * 9 * 96
