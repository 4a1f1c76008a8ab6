"""Tests for uniform sampling, the subset estimator, and its audit layer.

The load-bearing check is the exact decomposition of the subset estimator
through the measurement coefficients, verified against a brute-force sum
over the full spectrum on small universes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import subset_transform_dense, subset_transform_single
from sparsefourier.checks import noise_bound_check
from sparsefourier.dft import Universe, flat_index, forward, unflat_index
from sparsefourier.reduction import linfinity_reduce
from sparsefourier.sampling import (
    DOMAIN_SAMPLES,
    AuditedSignal,
    AuditViolation,
    SampleBundle,
    coefficient,
    stream_rng,
)


def _draw(u, b, seed):
    """One list of B points: the (B, d) array of a 1 x 1 bundle."""
    return unflat_index(u, SampleBundle.draw(u, 1, 1, b, seed).flats[0, 0])


def _points(u, b, rng):
    """B uniform points of [p]^d from a caller's generator, shape (B, d)."""
    return rng.integers(0, u.p, size=(b, u.d), dtype=np.int64)


# ---------------------------------------------------------------- drawing


def test_draw_shapes_and_range():
    u = Universe(p=5, d=3)
    bundle = SampleBundle.draw(u, 2, 3, 40, 0)
    assert bundle.flats.shape == (2, 3, 40)
    assert bundle.flats.dtype == np.int64
    points = unflat_index(u, bundle.flats)
    assert points.min() >= 0 and points.max() < 5


def test_draw_is_deterministic():
    u = Universe(p=7, d=2)
    assert np.array_equal(_draw(u, 25, 123), _draw(u, 25, 123))


def test_draw_rejects_empty():
    with pytest.raises(ValueError):
        SampleBundle.draw(Universe(p=3, d=1), 1, 1, 0, 0)


def test_draw_degenerate_universe():
    u = Universe(p=1, d=4)
    assert np.all(_draw(u, 10, 0) == 0)


def test_draw_is_uniform_over_cells():
    # 100k draws over 16 cells: each count within 5 sigma of B/16
    u = Universe(p=4, d=2)
    counts = np.bincount(flat_index(u, _draw(u, 100_000, 7)), minlength=16)
    expect = 100_000 / 16
    sigma = np.sqrt(100_000 * (1 / 16) * (15 / 16))
    assert np.max(np.abs(counts - expect)) < 5 * sigma


def test_sample_list_validates_points():
    # a row of lists must fit the signal's universe: an (R, B) array of flat indices in [0, n)
    u = Universe(p=4, d=2)
    sig, y = AuditedSignal(u, np.zeros(u.n)), np.zeros(u.n)
    with pytest.raises(ValueError, match="universe"):
        linfinity_reduce(sig, y, np.zeros((1, 3, 5), dtype=np.int64), nu=1.0)
    with pytest.raises(ValueError, match="universe"):
        linfinity_reduce(sig, y, np.array([[0, 16]]), nu=1.0)  # flat index out of range


def test_stream_rng_reproducible_and_disjoint():
    a = stream_rng(99, 0, 1, 2).integers(0, 1000, size=8)
    b = stream_rng(99, 0, 1, 2).integers(0, 1000, size=8)
    c = stream_rng(99, 0, 1, 3).integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ----------------------------------------------------- coefficient moments


def test_coefficient_at_zero_is_one():
    u = Universe(p=6, d=2)
    t = _points(u, 17, np.random.default_rng(3))
    assert abs(coefficient(u, 0, t) - 1.0) < 1e-14


def test_coefficient_exact_cancellation():
    # T = {0, 1} in Z_2, f = 1: phasors 1 and -1 average to zero
    u = Universe(p=2, d=1)
    assert abs(coefficient(u, 1, np.array([[0], [1]]))) < 1e-15


def test_coefficient_magnitude_at_most_one():
    u = Universe(p=9, d=2)
    rng = np.random.default_rng(5)
    t = _points(u, 11, rng)
    for f in rng.integers(0, u.n, size=20):
        assert abs(coefficient(u, int(f), t)) <= 1.0 + 1e-12


def test_coefficient_second_moment_and_decorrelation():
    # E|c_f|^2 = 1/B for f != 0, and E[c_f conj(c_g)] = 0 for f != g,
    # both within 3 standard errors of a seeded Monte Carlo
    u = Universe(p=16, d=1)
    b, n_draws = 32, 4000
    lists = np.random.default_rng(11).integers(0, u.p, size=(n_draws, b, u.d), dtype=np.int64)
    cf = coefficient(u, 3, lists)
    cg = coefficient(u, 10, lists)
    assert cf.shape == (n_draws,)

    sq = np.abs(cf) ** 2
    se = sq.std() / np.sqrt(n_draws)
    assert abs(sq.mean() - 1 / b) <= 3 * se

    cross = cf * np.conj(cg)
    se_cross = np.sqrt(cross.real.var() + cross.imag.var()) / np.sqrt(n_draws)
    assert abs(cross.mean()) <= 3 * se_cross


# ------------------------------------------------------- subset estimator


@pytest.mark.parametrize("p,d", [(4, 2), (3, 3)])
def test_subset_estimator_decomposition_identity(p, d):
    # xhat^[T]_f == sum_{f'} c_{f-f'} xhat_{f'} exactly (up to roundoff),
    # with the coefficient sum computed by brute force over the spectrum
    u = Universe(p=p, d=d)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    xhat = forward(u, x)

    t = rng.integers(0, p, size=(7, d), dtype=np.int64)
    t[3] = t[0]  # force a duplicate: multiplicity must be honored
    samples = x[flat_index(u, t)]

    for f in [0, 1, u.n - 1]:
        fv = unflat_index(u, f)
        oracle = 0.0 + 0.0j
        for g in range(u.n):
            diff = flat_index(u, (fv - unflat_index(u, g)) % p)
            oracle += coefficient(u, diff, t) * xhat[g]
        est = subset_transform_single(u, samples, t, f)
        assert_allclose(est, oracle, rtol=1e-10, atol=1e-10)


def test_subset_estimator_exact_with_all_points():
    # T = every point of the universe once: the estimator is the exact DFT
    u = Universe(p=3, d=2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    t = unflat_index(u, np.arange(u.n))
    xhat = forward(u, x)
    for f in range(u.n):
        assert_allclose(subset_transform_single(u, x, t, f), xhat[f], atol=1e-12)


def test_subset_estimator_rejects_length_mismatch():
    u = Universe(p=4, d=1)
    t = _points(u, 5, np.random.default_rng(0))
    flats = flat_index(u, t)[None]
    with pytest.raises(ValueError):
        subset_transform_single(u, np.zeros(4), t, 1)
    with pytest.raises(ValueError):
        subset_transform_dense(u, np.zeros((1, 6)), flats)
    with pytest.raises(ValueError):
        subset_transform_dense(u, np.zeros((2, 5)), flats)
    with pytest.raises(ValueError):
        subset_transform_dense(u, np.zeros((1, 0)), flats[:, :0])


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(2, 5),
    d=st.integers(1, 3),
    r=st.integers(1, 4),
    b=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_matches_single_everywhere(p, d, r, b, seed):
    # R != B (with repeated points) checks the n/B scale of every row
    assume(r != b)
    u = Universe(p=p, d=d)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    lists = rng.integers(0, p, size=(r, b, d), dtype=np.int64)
    lists[:, -1] = lists[:, 0]
    flats = flat_index(u, lists)
    dense = subset_transform_dense(u, x[flats], flats)
    assert dense.shape == (r, u.n)
    for row, t, f_row in zip(dense, lists, flats):
        singles = [subset_transform_single(u, x[f_row], t, f) for f in range(u.n)]
        assert_allclose(row, singles, atol=1e-10)


def test_zero_samples_give_zero_estimate():
    u = Universe(p=5, d=2)
    t = _points(u, 12, np.random.default_rng(2))
    assert subset_transform_single(u, np.zeros(12), t, 7) == 0
    assert_allclose(subset_transform_dense(u, np.zeros((1, 12)), flat_index(u, t)[None]), 0)


# ----------------------------------------------------------- sample bundle


def test_bundle_shape_and_budget():
    u = Universe(p=8, d=2)
    bundle = SampleBundle.draw(u, h=3, r=4, b=10, entropy=77)
    assert bundle.flats.shape == (3, 4, 10)
    sig = AuditedSignal(u, np.zeros(u.n))
    sig.grant_bundle(bundle)
    assert sig.granted_total == 3 * 4 * 10


def test_bundle_is_deterministic_and_lists_differ():
    u = Universe(p=8, d=2)
    b1 = SampleBundle.draw(u, h=2, r=3, b=20, entropy=5)
    b2 = SampleBundle.draw(u, h=2, r=3, b=20, entropy=5)
    assert np.array_equal(b1.flats, b2.flats)
    assert not np.array_equal(b1.flats[0, 0], b1.flats[0, 1])
    assert not np.array_equal(b1.flats[0, 0], b1.flats[1, 0])
    # the bundle is one (H, R, B) draw of flat indices from the samples stream
    assert np.array_equal(
        b1.flats, stream_rng(5, DOMAIN_SAMPLES).integers(0, u.n, size=(2, 3, 20))
    )
    # so it depends on n alone, takes 8 bytes a sample whatever d is, and keeps its rows as H grows
    assert np.array_equal(SampleBundle.draw(Universe(p=64, d=1), 2, 3, 20, 5).flats, b1.flats)
    assert np.array_equal(SampleBundle.draw(u, 5, 3, 20, 5).flats[:2], b1.flats)
    for v in (Universe(p=4, d=6), Universe(p=2, d=12)):
        assert SampleBundle.draw(v, h=2, r=3, b=20, entropy=5).flats.nbytes == 8 * 2 * 3 * 20


def test_bundle_rejects_empty_grid():
    u = Universe(p=4, d=1)
    with pytest.raises(ValueError):
        SampleBundle.draw(u, h=0, r=2, b=5, entropy=0)


# ----------------------------------------------------------------- audit


def test_audited_signal_serves_granted_reads():
    u = Universe(p=4, d=2)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    sig = AuditedSignal(u, x)
    sig.grant(np.array([0, 3, 3, 7]))
    out = sig.read(np.array([3, 0, 7, 3]))
    assert_allclose(out, x[[3, 0, 7, 3]])
    assert sig.granted_total == 4
    assert sig.all_granted_read()


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(1.0, -np.inf)], ids=["nan", "inf", "imag-inf"]
)
def test_audited_signal_rejects_non_finite_samples(bad):
    # one bad sample would otherwise flow through every estimate into y
    u = Universe(p=8, d=2)
    x = np.ones(u.n, dtype=np.complex128)
    x[17] = bad
    with pytest.raises(ValueError, match=r"finite.*indices \[17\]"):
        AuditedSignal(u, x)


def test_audited_signal_rejects_read_before_grant():
    u = Universe(p=4, d=1)
    sig = AuditedSignal(u, np.zeros(4))
    with pytest.raises(AuditViolation):
        sig.read(np.array([1]))


def test_audited_signal_rejects_undeclared_index():
    # an index outside [0, n) is undeclared too: never wrapped, never an IndexError
    u = Universe(p=4, d=1)
    for bad in ([1, 2], [-1], [1, 9]):
        sig = AuditedSignal(u, np.arange(4, dtype=float))
        sig.grant(np.array([0, 1, 3]))
        with pytest.raises(AuditViolation, match="undeclared"):
            sig.read(np.array(bad))
        # the failed read must not mark anything as touched: 1 stays unread
        sig.read(np.array([0, 3]))
        assert not sig.all_granted_read()


@pytest.mark.parametrize("bad", [[-4], [0, 4]], ids=["negative", "past-end"])
def test_audited_signal_rejects_out_of_range_grant(bad):
    u = Universe(p=4, d=1)
    sig = AuditedSignal(u, np.zeros(4))
    with pytest.raises(ValueError, match="out of range"):
        sig.grant(np.array(bad))
    assert sig.granted_total == 0
    assert sig.all_granted_read()  # nothing was declared, index 0 included


def test_audited_signal_grants_accumulate():
    u = Universe(p=8, d=1)
    sig = AuditedSignal(u, np.zeros(8))
    sig.grant(np.array([1, 2]))
    sig.grant(np.array([2, 5]))
    assert sig.granted_total == 4
    sig.read(np.array([5, 1]))
    assert not sig.all_granted_read()
    sig.read(np.array([2]))
    assert sig.all_granted_read()


def test_audited_signal_bundle_grant():
    u = Universe(p=4, d=2)
    sig = AuditedSignal(u, np.zeros(u.n))
    bundle = SampleBundle.draw(u, h=2, r=2, b=6, entropy=1)
    sig.grant_bundle(bundle)
    assert sig.granted_total == 24
    sig.read(bundle.flats.ravel())
    assert sig.all_granted_read()
    with pytest.raises(ValueError, match="universe"):
        sig.grant_bundle(SampleBundle.draw(Universe(p=2, d=2), h=1, r=1, b=6, entropy=1))


# ------------------------------------------------------- noise tail bound


def _planted_spectrum(u, support, rng):
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[support] = np.exp(2j * np.pi * rng.random(len(support)))
    return xhat


def test_noise_bound_rejects_f_in_v():
    u = Universe(p=8, d=1)
    xhat = _planted_spectrum(u, [1, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        noise_bound_check(u, xhat, 2, [1, 2], b=8, trials=10, rng=np.random.default_rng(1))


def test_noise_bound_empty_v_never_exceeds():
    u = Universe(p=8, d=1)
    rate = noise_bound_check(u, np.ones(8), 3, [], b=4, trials=50, rng=np.random.default_rng(2))
    assert rate == 0.0


def test_noise_bound_zero_signal_never_exceeds():
    u = Universe(p=8, d=1)
    rate = noise_bound_check(
        u, np.zeros(8), 3, [1, 5], b=4, trials=50, rng=np.random.default_rng(3)
    )
    assert rate == 0.0


def test_noise_bound_rate_is_small():
    # the second-moment argument caps the exceedance probability at 1/100
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(17)
    support = [1, 9, 20, 33, 41, 50, 57, 63]
    xhat = _planted_spectrum(u, support, rng)
    rate = noise_bound_check(u, xhat, 5, support, b=32, trials=2000, rng=rng)
    assert rate <= 0.02


def test_noise_bound_deterministic():
    u = Universe(p=4, d=2)
    xhat = _planted_spectrum(u, [2, 7, 11], np.random.default_rng(4))
    r1 = noise_bound_check(u, xhat, 1, [2, 7, 11], b=8, trials=500, rng=np.random.default_rng(9))
    r2 = noise_bound_check(u, xhat, 1, [2, 7, 11], b=8, trials=500, rng=np.random.default_rng(9))
    assert r1 == r2
