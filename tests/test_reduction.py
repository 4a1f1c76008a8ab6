"""Tests for the median-and-threshold residual shrinking rounds.

Ground truth is always available here (tests build the spectrum first),
so the halving guarantee is checked directly against the true residual.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparsefourier.dft import Universe, densify, flat_index, inverse, sparse_eval_time
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


def _residual_linf(u, xhat, approx):
    return np.max(np.abs(xhat - densify(u, approx)))


def test_zero_residual_yields_empty_z():
    # y already equals the spectrum, so every estimate is exactly zero
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(0)
    support = [3, 17, 40]
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = _signal_from_spectrum(u, xhat)
    y = {f: complex(xhat[f]) for f in support}

    lists = _draw_lists(u, r=5, b=16, seed=1)
    out = linfinity_reduce(_audited(u, x, lists), y, lists, nu=0.3)
    assert out.z == {}


def test_zero_signal_yields_empty_z():
    u = Universe(p=4, d=3)
    lists = _draw_lists(u, r=5, b=16, seed=2)
    out = linfinity_reduce(_audited(u, np.zeros(u.n), lists), {}, lists, nu=1.0)
    assert out.z == {}


def test_one_sparse_signal_recovered_in_one_round():
    u = Universe(p=16, d=2)
    f_star = 37
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[f_star] = np.exp(0.7j)
    x = _signal_from_spectrum(u, xhat)

    lists = _draw_lists(u, r=9, b=64, seed=3)
    out = linfinity_reduce(_audited(u, x, lists), {}, lists, nu=0.4)
    assert set(out.z) == {f_star}
    assert abs(out.z[f_star] - xhat[f_star]) <= 0.4


def test_thresholding_and_median_support():
    # every kept value has magnitude >= nu/2 and equals its median estimate
    u = Universe(p=8, d=2)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[[2, 9, 33]] = [1.0, -0.8 + 0.1j, 0.5j]
    x = _signal_from_spectrum(u, xhat)
    nu = 0.5

    lists = _draw_lists(u, r=7, b=32, seed=6)
    out = linfinity_reduce(_audited(u, x, lists), {}, lists, nu=nu)
    assert out.eta.shape == (u.n,)
    assert len(out.z) > 0
    for f, v in out.z.items():
        assert abs(v) >= nu / 2
        assert v == complex(out.eta[f])
    below = [f for f in range(u.n) if abs(out.eta[f]) < nu / 2]
    assert all(f not in out.z for f in below)


@pytest.mark.parametrize("time_eval", ["sparse", "dense"])
def test_medians_match_per_list_estimates(time_eval):
    # the medians must agree with R separate single-frequency estimates,
    # combined by the lower median of real and imaginary parts, whether the
    # test evaluates y at the sample points sparsely or by a dense inverse
    u = Universe(p=4, d=2)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    y = {1: 0.3 + 0.1j, 7: -0.2j}
    lists = _draw_lists(u, r=6, b=10, seed=8)

    out = linfinity_reduce(_audited(u, x, lists), y, lists, nu=0.1)

    def y_at(t):
        if time_eval == "sparse":
            return sparse_eval_time(u, y, t)
        return inverse(u, densify(u, y))[flat_index(u, t)]

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
    with pytest.raises(ValueError):
        linfinity_reduce(sig, {}, (), nu=0.5)
    with pytest.raises(ValueError):
        linfinity_reduce(sig, {}, np.zeros((0, 4, 1), dtype=np.int64), nu=0.5)
    other = _draw_lists(Universe(p=4, d=2), r=2, b=4, seed=0)
    with pytest.raises(ValueError, match="universe"):
        linfinity_reduce(sig, {}, other, nu=0.5)


def test_rejects_nonpositive_nu():
    u = Universe(p=4, d=1)
    lists = _draw_lists(u, r=2, b=4, seed=0)
    with pytest.raises(ValueError):
        linfinity_reduce(_audited(u, np.zeros(4), lists), {}, lists, nu=0.0)


def test_determinism():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    lists = _draw_lists(u, r=5, b=20, seed=13)
    a = linfinity_reduce(_audited(u, x, lists), {}, lists, nu=0.6)
    b = linfinity_reduce(_audited(u, x, lists), {}, lists, nu=0.6)
    assert a.z == b.z


# ------------------------------------------------------------- multi-round


def test_single_round_equals_direct_call():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(14)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    bundle = SampleBundle.draw(u, h=1, r=5, b=20, entropy=15)
    lists = bundle.points[0]

    sig1 = AuditedSignal(u, x)
    sig1.grant_bundle(bundle)
    z_rounds = reduce_h_rounds(sig1, {}, bundle, nu=0.8, h=1)

    sig2 = _audited(u, x, lists)
    direct = linfinity_reduce(sig2, {}, lists, nu=0.8)
    assert z_rounds == direct.z


def test_rounds_validate_h():
    u = Universe(p=4, d=1)
    bundle = SampleBundle.draw(u, h=2, r=3, b=4, entropy=0)
    sig = AuditedSignal(u, np.zeros(4))
    sig.grant_bundle(bundle)
    with pytest.raises(ValueError):
        reduce_h_rounds(sig, {}, bundle, nu=1.0, h=3)
    with pytest.raises(ValueError):
        reduce_h_rounds(sig, {}, bundle, nu=1.0, h=0)


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

    z: dict = {}
    for i in range(1, h_rounds + 1):
        out = linfinity_reduce(sig, dict(z), bundle.points[i - 1], nu=nu * 2.0 ** (1 - i))
        for f, v in out.z.items():
            z[f] = z.get(f, 0) + v
        assert _residual_linf(u, xhat, z) <= 2.0 ** (1 - i) * nu + 1e-12

    assert _residual_linf(u, xhat, z) <= 2.0 ** (1 - h_rounds) * nu
    assert set(z) == {100, 2741}


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
    z = reduce_h_rounds(sig, {}, bundle, nu=nu, h=h_rounds)

    assert _residual_linf(u, xhat, z) <= 2.0 ** (1 - h_rounds) * nu
    assert sig.all_granted_read()
    assert sig.granted_total == h_rounds * 9 * 96
