"""Tests for the median-and-threshold residual shrinking rounds.

Ground truth is always available here (tests build the spectrum first),
so the halving guarantee is checked directly against the true residual.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import lower_median, subset_transform_dense, subset_transform_single
from sparsefourier.dft import Universe, densify, flat_index, inverse, sparse_eval_time, unflat_index
from sparsefourier import reduction
from sparsefourier.reduction import (
    SCREEN, OccupancyError, _head, _passing, _small_counts, linfinity_reduce, reduce_h_rounds,
    slab_universe,
)
from sparsefourier.sampling import AuditedSignal, SampleBundle


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


EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))  # y = 0 as (supp, values)


def _sparse(y):
    """A dense spectrum array as the sorted (supp, values) pair a round takes."""
    supp = np.flatnonzero(y)
    return supp, y[supp]


def _dense(u, out):
    """A round's kept entries (ascending flats, z) as a length-n array, zero elsewhere."""
    assert np.all(np.diff(out.flats) > 0) and len(out.flats) == len(out.z)
    return densify(u, dict(zip(out.flats.tolist(), out.z)))


def test_zero_residual_yields_empty_z():
    # y already equals the spectrum, so every estimate is exactly zero
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(0)
    support = [3, 17, 40]
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = _signal_from_spectrum(u, xhat)
    lists = _draw_lists(u, r=5, b=16, seed=1)
    out = linfinity_reduce(_audited(u, x, lists), *_sparse(xhat), flat_index(u, lists), 0.3, u.n)
    assert out.flats.size == out.z.size == 0


def test_zero_signal_yields_empty_z():
    u = Universe(p=4, d=3)
    lists = _draw_lists(u, r=5, b=16, seed=2)
    sig = _audited(u, np.zeros(u.n), lists)
    out = linfinity_reduce(sig, *EMPTY, flat_index(u, lists), nu=1.0, cap=u.n)
    assert out.flats.size == out.z.size == 0


def test_one_sparse_signal_recovered_in_one_round():
    u = Universe(p=16, d=2)
    f_star = 37
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[f_star] = np.exp(0.7j)
    x = _signal_from_spectrum(u, xhat)

    lists = _draw_lists(u, r=9, b=64, seed=3)
    out = linfinity_reduce(_audited(u, x, lists), *EMPTY, flat_index(u, lists), nu=0.4, cap=u.n)
    assert out.flats.tolist() == [f_star]
    assert abs(out.z[0] - xhat[f_star]) <= 0.4


def test_thresholding_and_median_support():
    # z keeps exactly the medians of magnitude >= nu/2, each equal to the dense
    # estimator's lower median, and is zero at every other frequency
    u = Universe(p=8, d=2)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[[2, 9, 33]] = [1.0, -0.8 + 0.1j, 0.5j]
    x = _signal_from_spectrum(u, xhat)
    nu = 0.5

    lists = _draw_lists(u, r=7, b=32, seed=6)
    out = linfinity_reduce(_audited(u, x, lists), *EMPTY, flat_index(u, lists), nu=nu, cap=u.n)
    z = _dense(u, out)
    flats = flat_index(u, lists)
    dense = subset_transform_dense(u, x[flats], flats)
    eta = lower_median(dense.real) + 1j * lower_median(dense.imag)
    assert np.min(np.abs(np.abs(eta) - nu / 2)) > 1e-9  # no median on the threshold
    kept = np.flatnonzero(z)
    assert len(kept) > 0 and kept.tolist() == out.flats.tolist()
    assert np.all(np.abs(z[kept]) >= nu / 2)
    assert kept.tolist() == np.flatnonzero(np.abs(eta) >= nu / 2).tolist()
    assert_allclose(z[kept], eta[kept], rtol=0, atol=1e-12)


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

    # nu small enough that every nonzero median is kept, so z holds all of them
    sig = _audited(u, x, lists)
    out = linfinity_reduce(sig, *_sparse(y), flat_index(u, lists), nu=2.0**-1000, cap=u.n)

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
    assert_allclose(_dense(u, out), manual, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from([(2, 13), (3, 9), (16, 4), (5, 6), (70, 2)]),
    r=st.integers(1, 6),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_slab_medians_match_the_dense_estimator(shape, r, b, seed):
    # medians taken one slab of frequencies at a time equal those of the whole
    # (R, n) estimate matrix, up to float reassociation of the transform sums
    u = Universe(*shape)
    assert slab_universe(u).n < u.n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    lists = rng.integers(0, u.p, size=(r, b, u.d), dtype=np.int64)
    flats = flat_index(u, lists)
    dense = subset_transform_dense(u, x[flats], flats)
    expected = lower_median(dense.real) + 1j * lower_median(dense.imag)

    # nu small enough that every nonzero median is kept, so z holds all of them
    z = _dense(u, linfinity_reduce(_audited(u, x, lists), *EMPTY, flats, nu=2.0**-1000, cap=u.n))
    assert np.max(np.abs(z - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(
    r=st.sampled_from([1, 2, 3, 48, 64]),
    s=st.integers(1, 600),
    nu=st.sampled_from([1.0, 0.3, 2.0**-30, 2.0**40]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_keeps_every_median_that_can_pass(r, s, nu, seed):
    # the round's select (rows with at most R//2 small estimates, partitioned SCREEN//4
    # at a time) skips only rows whose medians could not have passed: the result is
    # np.where(|median| >= nu/2, median, 0) bit for bit, with each part's median
    # at +-nu/2 * (1 +- 2^-40), +-nu/2, +-nu/(2*sqrt 2) or 0, on ties, with NaNs
    rng = np.random.default_rng(seed)
    edges = nu * np.array([0.5 * (1 + 2.0**-40), 0.5 * (1 - 2.0**-40), 0.5, 0.5 / np.sqrt(2), 0])
    pos = np.arange(r)
    mid = (r - 1) // 2
    parts = []
    for _ in range(2):  # each part in sorted order: order statistic mid is v
        v = rng.choice(edges, size=(s, 1)) * rng.choice([-1.0, 1.0], size=(s, 1))
        offs = rng.uniform(0, nu, size=(s, r)) * rng.integers(0, 2, size=(s, r))  # 0 is a tie
        offs[:, mid] = 0
        part = v + np.where(pos < mid, -offs, offs)
        # in half the rows the entries on the side of the median nearer 0 are 0, so
        # only the other side has magnitude >= |v|: the case the screen must not miss
        near_zero = np.where(v >= 0, pos < mid, pos > mid) & (rng.random((s, 1)) < 0.5)
        parts.append(np.where(near_zero, 0.0, part))
    # reversing the imaginary order in half the rows makes the two parts' large
    # sides share as few estimates as possible, so most sizes come from one part
    flip = rng.random((s, 1)) < 0.5
    est = parts[0] + 1j * np.where(flip, parts[1][:, ::-1], parts[1])
    est = np.take_along_axis(est, rng.permuted(np.tile(pos, (s, 1)), axis=1), axis=1)
    # + 0.0 turns -0.0 into 0.0: a sort and a partition may return either of a tied pair
    est.real += 0.0
    est.imag += 0.0
    est[rng.random((s, r)) < 0.01] = np.nan
    expected = np.empty(s, dtype=np.complex128)
    expected.real, expected.imag = lower_median(est.real.T), lower_median(est.imag.T)
    expected = np.where(np.abs(expected) >= nu / 2, expected, 0)

    out = np.zeros(s, dtype=np.complex128)
    cand = np.flatnonzero(_small_counts(est, nu) <= r // 2)
    for j in range(0, len(cand), SCREEN // 4):
        rows = cand[j : j + SCREEN // 4]
        out[rows] = _passing(est[rows], nu)
    assert out.tobytes() == expected.tobytes()


def _oracle_z(u, x, y, lists, nu):
    """The dense oracle's round: lower medians of all R*n residual estimates, kept at >= nu/2."""
    flats = flat_index(u, lists)
    est = subset_transform_dense(u, x[flats] - inverse(u, y)[flats], flats)
    eta = lower_median(est.real) + 1j * lower_median(est.imag)
    return est, eta, np.where(np.abs(eta) >= nu / 2, eta, 0)


class _Spy:
    """Records the widths of the round's slab transforms and the calls of its direct tail sums."""

    def __init__(self, mp):
        self.widths, self.direct = [], 0
        forward, estimates = reduction.slab_forward, reduction._estimates

        def slab_forward(fast, cols):
            self.widths.append(cols.shape[1])
            return forward(fast, cols)

        def _estimates(*args):
            self.direct += 1
            return estimates(*args)

        mp.setattr(reduction, "slab_forward", slab_forward)
        mp.setattr(reduction, "_estimates", _estimates)


@settings(max_examples=24, deadline=None)
@given(
    shape=st.sampled_from([(16, 3), (70, 2), (2, 13), (3, 9)]),
    r=st.sampled_from([12, 31, 48]),
    few=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_majority_first_round_matches_the_dense_oracle(shape, r, few, zeros, seed):
    # a planted 4-sparse residual; at nu = 2 only its rows outlast the head lists, so
    # their tail estimates come term by term, and at nu = 2^-20 every row outlasts all
    # R lists, so per slab and per half of its rows the tail lists are transformed in the
    # head's matrix and then the head lists again: either way z is the dense oracle's. With zeros,
    # the first R//2 lists read zero residuals, so the planted rows have exactly R//2
    # small estimates, all among the head lists, and the tail decides their medians
    u = Universe(*shape)
    rng = np.random.default_rng(seed)
    planted = rng.choice(u.n, size=8, replace=False)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[planted] = rng.uniform(1, 1.5, 8) * np.exp(2j * np.pi * rng.random(8))
    y = np.zeros(u.n, dtype=np.complex128)
    y[planted[4:]] = xhat[planted[4:]]  # the residual xhat - y is the first four
    x = inverse(u, xhat)
    flats = rng.integers(0, u.n, size=(r, 128))
    if zeros:  # the first R//2 lists read x = y on one half of [n], the rest the other half
        half, q = rng.permutation(u.n), r // 2
        flats[:q] = half[: u.n // 2][flats[:q] % (u.n // 2)]
        flats[q:] = half[u.n // 2 :][flats[q:] % (u.n // 2)]
        x[flats[:q]] = inverse(u, y)[flats[:q]]
    lists = unflat_index(u, flats)
    nu = 2.0 if few else 2.0**-20
    _, eta, expected = _oracle_z(u, x, y, lists, nu)
    scale = np.max(np.abs(eta))
    assume(np.min(np.abs(np.abs(eta) - nu / 2)) > 1e-9 * scale)  # no median on the threshold

    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        out = linfinity_reduce(_audited(u, x, lists), *_sparse(y), flat_index(u, lists), nu, u.n)
    z = _dense(u, out)
    m, slabs = _head(r), u.n // slab_universe(u).n
    assert m < r
    if few:
        assert spy.widths.count(m) == slabs and spy.direct > 0
    else:
        assert spy.direct == 0 and spy.widths == [m, r - m, m, r - m, m] * slabs
    assert np.flatnonzero(z).tolist() == np.flatnonzero(expected).tolist()
    assert np.max(np.abs(z - expected)) <= 1e-12 * scale


def _bounded_round(u, kinds, b, nu_scale, seed):
    """Lists of b distinct points whose residuals (y = 0) are zero, near or large by kinds.

    A near list has positive real samples, so its estimate at f = 0 attains its bound
    M_j = (sqrt(n)/b) sum_t |r_t| up to rounding, and 0.35*nu = nu_scale * M of the first
    near list. A large list's samples are negative reals ten times as large.
    """
    rng = np.random.default_rng(seed)
    r = len(kinds)
    flats = rng.choice(u.n, size=(r, b), replace=False)
    x = np.zeros(u.n, dtype=np.complex128)
    vals = rng.uniform(0.5, 1.5, size=(r, b))
    for j, kind in enumerate(kinds):
        x[flats[j]] = {"zero": 0.0, "near": 1.0, "large": -10.0}[kind] * vals[j]
    near = [j for j, kind in enumerate(kinds) if kind == "near"]
    bound = np.abs(x[flats[near[0]]]).sum() * (np.sqrt(u.n) / b) if near else 1.0
    return x, unflat_index(u, flats), nu_scale * bound / 0.35


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["zero", "near", "large"]), min_size=1, max_size=7),
    b=st.integers(1, 4),
    ulps=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["near"], b=2, ulps=1, seed=3).via("margin: the estimate beats its bound by an ulp")
@example(kinds=["zero", "large", "zero", "large", "large"], b=1, ulps=0, seed=0).via("R//2 small")
def test_skip_fires_only_where_the_full_round_keeps_nothing(kinds, b, ulps, seed):
    # near the bound, the skip (no slab transform) must leave no row that the full
    # round could select: every row has more than R//2 oracle estimates with both
    # parts below 0.35*nu, so z is zero, and a round whose oracle keeps an entry runs
    u = Universe(16, 2)
    x, lists, nu = _bounded_round(u, kinds, b, 1 + ulps * 2.0**-52, seed)
    est, _, expected = _oracle_z(u, x, np.zeros(u.n), lists, nu)

    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        out = linfinity_reduce(_audited(u, x, lists), *EMPTY, flat_index(u, lists), nu, u.n)
    z = _dense(u, out)
    small = (np.abs(est.real) < 0.35 * nu) & (np.abs(est.imag) < 0.35 * nu)
    if not spy.widths:
        assert not z.any()
        assert np.all(small.sum(axis=0) > len(kinds) // 2)
    if expected.any():
        assert spy.widths
        assert np.flatnonzero(z).tolist() == np.flatnonzero(expected).tolist()


@pytest.mark.parametrize("r", [1, 2])
def test_round_with_one_large_list_runs_and_keeps_its_entry(r):
    # a one-sparse residual seen by one list, the other list (if any) reading zeros:
    # only R//2 lists are provably small, so the round runs, and the lower median
    # (-1 itself, or min(0, -1)) keeps the entry
    u, f_star = Universe(16, 2), 37
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[f_star] = -1.0
    x = inverse(u, xhat)
    flats = np.random.default_rng(5).choice(u.n, size=(r, 8), replace=False)
    x[flats[1:]] = 0  # the other list reads zeros
    lists = unflat_index(u, flats)
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        out = linfinity_reduce(_audited(u, x, lists), *EMPTY, flat_index(u, lists), 1.0, u.n)
    z = _dense(u, out)
    assert spy.widths
    assert abs(z[f_star] + 1) < 1e-12
    assert_allclose(z, _oracle_z(u, x, np.zeros(u.n), lists, 1.0)[2], rtol=0, atol=1e-12)


CAP = 26 * 4  # the driver's cap C_S*k at k = 4, the planted tones


def _round_peak(u, r, b, planted=False):
    """tracemalloc peak of one round on R lists of B points against y = 0, with cap = CAP.

    With a random x every row survives at nu = 1, and the round raises OccupancyError
    after the first slab that takes its kept count past CAP. With planted, x holds 4 tones
    and at nu = 2 few rows survive; the round must keep exactly those tones.
    """
    rng = np.random.default_rng(16)
    if planted:
        tones = rng.choice(u.n, size=4, replace=False)
        xhat = np.zeros(u.n, dtype=np.complex128)
        xhat[tones] = rng.uniform(1.1, 1.4, 4) * np.exp(2j * np.pi * rng.random(4))
        x, nu = inverse(u, xhat), 2.0
    else:
        x, nu = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n), 1.0
    lists = _draw_lists(u, r=r, b=b, seed=17)
    sig = _audited(u, x, lists)
    tracemalloc.start()
    try:
        if planted:
            out = linfinity_reduce(sig, *EMPTY, flat_index(u, lists), nu=nu, cap=CAP)
        else:
            with pytest.raises(OccupancyError, match=rf"more than C_S\*k = {CAP}$"):
                linfinity_reduce(sig, *EMPTY, flat_index(u, lists), nu=nu, cap=CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if planted:
        assert out.flats.tolist() == sorted(tones)
    return peak


@pytest.mark.parametrize("planted", [False, True], ids=["all-survive", "planted"])
@pytest.mark.parametrize(
    "p, d, r, b", [(16, 3, 6, 128), (16, 3, 48, 128), (2, 13, 6, 64), (4, 6, 9, 64), (4, 8, 64, 64)]
)
def test_round_memory_bounds_one_round(p, d, r, b, planted):
    # the guard's round term covers all a round holds, its kept entries included, with
    # R <= 10 (m = R: the head holds every list) and above, whether every row survives
    # the head screen (the round then raises at the cap) or few do (then, for R > 10,
    # their tail is summed term by term)
    u = Universe(p, d)
    _round_peak(u, r, b, planted)  # a first call also loads np.fft plans and GEMM matrices
    assert _round_peak(u, r, b, planted) <= reduction.round_memory(u, r, b, CAP)


def test_round_never_builds_the_estimate_matrix():
    # the (R, n) matrix of all estimates would be 67 MB here; a round holds a
    # few (R, 4096) slabs of it instead
    u, r = Universe(p=16, d=4), 64
    assert _round_peak(u, r, b=64) < r * u.n * 16 / 4


def test_grouped_transform_round_never_builds_the_estimate_matrix():
    # the same bound when the slabs (4^6) go through the grouped character-matrix
    # transform, whose two (R, 4096) buffers are reused by every group
    u, r = Universe(p=4, d=8), 64
    assert _round_peak(u, r, b=64) < r * u.n * 16 / 4


def test_single_slab_round_holds_one_slab_matrix():
    # ladder-4k's round: the np.fft slab transform and the medians work in the
    # one (s, R) slab matrix, with no transposed copy of it
    u, r = Universe(p=16, d=3), 48
    assert _round_peak(u, r, b=128) < 1.4 * r * u.n * 16


def test_noisy_65k_first_round_transforms_the_tail_in_the_head_matrix():
    # noisy-65k's first round: at nu = 1, nearly every row of every slab outlasts the 37
    # head lists against 8 unit tones, so the 27 tail lists are transformed, in the head's
    # own matrix, and only the tones outlast all 64: their head estimates are summed term
    # by term. The round keeps the tones and holds less than the (s, R) head and tail
    u, r, b = Universe(p=16, d=4), 64, 64
    rng = np.random.default_rng(23)
    tones = np.sort(rng.choice(u.n, size=8, replace=False))
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[tones] = np.exp(2j * np.pi * rng.random(8))
    lists = _draw_lists(u, r=r, b=b, seed=24)
    sig = _audited(u, inverse(u, xhat), lists)
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        out = linfinity_reduce(sig, *EMPTY, flat_index(u, lists), nu=1.0, cap=CAP)
    m, slabs = _head(r), u.n // slab_universe(u).n
    assert spy.widths == [m, r - m] * slabs and spy.direct > 0
    assert out.flats.tolist() == tones.tolist()
    tracemalloc.start()
    try:
        linfinity_reduce(sig, *EMPTY, flat_index(u, lists), nu=1.0, cap=CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * slab_universe(u).n * r


def test_reduce_h_rounds_leaves_y_in_place_when_nothing_is_kept():
    # y is the exact spectrum, so every round reads zero residuals and keeps nothing:
    # the rung returns the very arrays it was given, with no merge
    u = Universe(p=8, d=2)
    supp, values = np.array([3, 40]), np.array([1.0 + 0j, -0.5j])
    bundle = SampleBundle.draw(u, h=3, r=5, b=8, entropy=4)
    sig = AuditedSignal(u, inverse(u, _spectrum(u, dict(zip(supp.tolist(), values)))))
    sig.grant_bundle(bundle)
    got = reduce_h_rounds(sig, supp, values, bundle, nu=0.5, cap=4)
    assert got[0] is supp and got[1] is values


def test_rejects_empty_lists_and_mismatched_universe():
    u = Universe(p=4, d=1)
    sig = AuditedSignal(u, np.zeros(4))
    with pytest.raises(ValueError):
        linfinity_reduce(sig, *EMPTY, (), nu=0.5, cap=4)
    with pytest.raises(ValueError):
        linfinity_reduce(sig, *EMPTY, np.zeros((0, 4), dtype=np.int64), nu=0.5, cap=4)
    v = Universe(p=4, d=2)
    other = flat_index(v, _draw_lists(v, r=2, b=4, seed=0))
    with pytest.raises(ValueError, match="universe"):
        linfinity_reduce(sig, *EMPTY, other, nu=0.5, cap=4)


BAD_Y = {
    "2d": (np.zeros((1, 1), dtype=np.int64), np.ones((1, 1)), "1-d"),
    "lengths": (np.array([0, 1]), np.ones(1), "one length"),
    "values-2d": (np.array([0]), np.ones((1, 1)), "one length"),
    "too-large": (np.array([1, 4]), np.ones(2), "out of range"),
    "negative": (np.array([-1]), np.ones(1), "out of range"),
}


@pytest.mark.parametrize("case", sorted(BAD_Y))
def test_rejects_y_that_is_not_1d_of_one_length_in_range(case):
    # y's supp and values are 1-d arrays of one length, with supp in [0, n); a round and
    # reduce_h_rounds refuse a bad y before any read (nothing is granted, so a read would
    # raise AuditViolation)
    supp, values, message = BAD_Y[case]
    u = Universe(p=4, d=1)
    bundle = SampleBundle.draw(u, h=2, r=2, b=4, entropy=0)
    sig = AuditedSignal(u, np.zeros(4))
    with pytest.raises(ValueError, match=message):
        linfinity_reduce(sig, supp, values, bundle.flats[0], nu=0.5, cap=4)
    with pytest.raises(ValueError, match=message):
        reduce_h_rounds(sig, supp, values, bundle, nu=0.5, cap=4)


def test_reduce_h_rounds_raises_when_y_outgrows_the_cap():
    # y holds two of four tones exactly, so the round keeps the other two, within a cap
    # of 3; their merge makes y four entries long, and reduce_h_rounds raises on it
    u, tones = Universe(p=16, d=2), [5, 37, 90, 200]
    xhat = _spectrum(u, dict(zip(tones, [1.0, np.exp(0.7j), -0.9, 0.8j])))
    lists = _draw_lists(u, r=9, b=64, seed=3)
    bundle = SampleBundle(u, flat_index(u, lists)[None])
    supp, values = np.array(tones[2:]), xhat[tones[2:]]

    def signal():
        return _audited(u, inverse(u, xhat), lists)

    out = linfinity_reduce(signal(), supp, values, bundle.flats[0], nu=0.6, cap=3)
    assert out.flats.tolist() == tones[:2]  # the round alone stays within the cap
    with pytest.raises(OccupancyError, match=r"^round 1: y holds 4 entries, C_S\*k = 3,"):
        reduce_h_rounds(signal(), supp, values, bundle, nu=0.6, cap=3)
    assert reduce_h_rounds(signal(), supp, values, bundle, nu=0.6, cap=4)[0].tolist() == tones


def test_reduce_h_rounds_raises_on_a_non_finite_y():
    u = Universe(p=4, d=2)
    bundle = SampleBundle.draw(u, h=1, r=3, b=4, entropy=0)
    sig = AuditedSignal(u, np.zeros(u.n))
    sig.grant_bundle(bundle)
    with np.errstate(invalid="ignore"), pytest.raises(OccupancyError, match="max \\|y\\| = nan"):
        reduce_h_rounds(sig, np.array([3]), np.array([np.nan + 0j]), bundle, nu=0.5, cap=4)


def test_rejects_nonpositive_nu():
    u = Universe(p=4, d=1)
    lists = _draw_lists(u, r=2, b=4, seed=0)
    for nu in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nu="):
            sig = _audited(u, np.zeros(4), lists)
            linfinity_reduce(sig, *EMPTY, flat_index(u, lists), nu=nu, cap=4)


def test_determinism():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    lists = _draw_lists(u, r=5, b=20, seed=13)
    a = linfinity_reduce(_audited(u, x, lists), *EMPTY, flat_index(u, lists), nu=0.6, cap=u.n)
    b = linfinity_reduce(_audited(u, x, lists), *EMPTY, flat_index(u, lists), nu=0.6, cap=u.n)
    assert np.array_equal(a.flats, b.flats) and np.array_equal(a.z, b.z)


# ------------------------------------------------------------- multi-round


def test_single_round_equals_direct_call():
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(14)
    x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
    bundle = SampleBundle.draw(u, h=1, r=5, b=20, entropy=15)
    lists = unflat_index(u, bundle.flats[0])

    sig1 = AuditedSignal(u, x)
    sig1.grant_bundle(bundle)
    supp, values = reduce_h_rounds(sig1, *EMPTY, bundle, nu=0.8, cap=u.n)

    sig2 = _audited(u, x, lists)
    direct = linfinity_reduce(sig2, *EMPTY, flat_index(u, lists), nu=0.8, cap=u.n)
    assert np.array_equal(supp, direct.flats) and np.array_equal(values, direct.z)


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
        out = linfinity_reduce(sig, *_sparse(z), bundle.flats[i - 1], nu * 2.0 ** (1 - i), u.n)
        z += _dense(u, out)
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
    supp, values = reduce_h_rounds(sig, *EMPTY, bundle, nu=nu, cap=u.n)
    z = densify(u, dict(zip(supp.tolist(), values)))

    assert np.max(np.abs(xhat - z)) <= 2.0 ** (1 - h_rounds) * nu
    assert sig.all_granted_read()
    assert sig.granted_total == h_rounds * 9 * 96
