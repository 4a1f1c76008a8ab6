from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import direct_dft, direct_inverse_dft
from sparsefourier import dft
from sparsefourier.dft import (
    Universe,
    characters,
    densify,
    flat_index,
    forward,
    inverse,
    slab_forward,
    sparse_eval_time,
    unflat_index,
)

# small universes for exhaustive checks; prime, composite, and 1-d cases
SMALL_UNIVERSES = [(2, 6), (3, 4), (4, 3), (5, 2), (6, 3), (7, 1), (16, 2)]


def random_signal(u, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)


def test_universe_validation():
    u = Universe(3, 4)
    assert u.n == 81
    assert u.shape == (3, 3, 3, 3)
    with pytest.raises(ValueError):
        Universe(0, 2)
    with pytest.raises(ValueError):
        Universe(4, 0)


@pytest.mark.parametrize(
    "p,d", [(2.5, 2), (4, 2.0), (np.float64(4), 2), ("4", 2), (True, 3), (4, np.True_)]
)
def test_universe_rejects_non_integer_sizes(p, d):
    with pytest.raises(ValueError, match="integers"):
        Universe(p, d)


def test_universe_accepts_numpy_integers():
    u = Universe(np.int64(4), np.int32(3))
    assert u == Universe(4, 3)
    assert type(u.p) is type(u.n) is int and u.n == 64


def test_flat_index_examples():
    u = Universe(3, 2)
    assert flat_index(u, (0, 0)) == 0
    assert flat_index(u, (2, 1)) == 5  # 2 + 1*3
    assert tuple(unflat_index(u, 5)) == (2, 1)


def test_flat_unflat_bijection():
    u = Universe(4, 3)
    flats = np.arange(u.n)
    assert np.array_equal(flat_index(u, unflat_index(u, flats)), flats)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 9),
    d=st.integers(1, 4),
    batch=st.lists(st.integers(0, 3), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_unflat_round_trip_batched(p, d, batch, seed):
    # any leading batch shape, empty axes included, maps through elementwise
    u = Universe(p, d)
    coords = np.random.default_rng(seed).integers(0, p, size=(*batch, d))
    flats = flat_index(u, coords)
    assert np.shape(flats) == tuple(batch)
    assert np.array_equal(unflat_index(u, flats), coords)
    assert np.array_equal(flat_index(u, unflat_index(u, flats)), flats)
    assert np.all((0 <= np.asarray(flats)) & (np.asarray(flats) < u.n))


def test_index_range_errors():
    u = Universe(3, 2)
    with pytest.raises(ValueError):
        flat_index(u, (3, 0))
    with pytest.raises(ValueError):
        flat_index(u, (0, -1))
    with pytest.raises(ValueError):
        unflat_index(u, 9)
    with pytest.raises(ValueError):
        flat_index(u, (0, 0, 0))


def test_forward_delta_is_constant():
    u = Universe(4, 1)
    x = np.array([1.0, 0, 0, 0], dtype=np.complex128)
    assert_allclose(forward(u, x), np.full(4, 0.5), atol=1e-12)


def test_forward_constant_is_delta():
    u = Universe(2, 2)
    xhat = forward(u, np.ones(4, dtype=np.complex128))
    assert_allclose(xhat, [2, 0, 0, 0], atol=1e-12)


def test_inverse_constant_spectrum():
    u = Universe(4, 1)
    x = inverse(u, np.full(4, 0.5, dtype=np.complex128))
    assert_allclose(x, [1, 0, 0, 0], atol=1e-12)


def test_inverse_single_tone_closed_form():
    # delta at f=(1,2,3): x_t = (1/sqrt(125)) * omega^-(t0 + 2 t1 + 3 t2)
    u = Universe(5, 3)
    f = (1, 2, 3)
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[flat_index(u, f)] = 1.0
    t = unflat_index(u, np.arange(u.n))
    expected = np.exp(-2j * np.pi * (t @ np.array(f)) / u.p) / np.sqrt(u.n)
    assert_allclose(inverse(u, xhat), expected, atol=1e-12)


def test_forward_sign_convention_positive_exponent():
    # 1-d single spike at t=1: xhat_f = omega^(f*1)/sqrt(n) with omega = e^{2 pi i/p},
    # so the f=1 entry must have positive imaginary part (not numpy's default sign)
    u = Universe(8, 1)
    x = np.zeros(8, dtype=np.complex128)
    x[1] = 1.0
    xhat = forward(u, x)
    assert xhat[1].imag > 0
    assert_allclose(xhat[1], np.exp(2j * np.pi / 8) / np.sqrt(8), atol=1e-12)


@pytest.mark.parametrize("p,d", SMALL_UNIVERSES)
def test_direct_sum_agreement(p, d):
    u = Universe(p, d)
    x = random_signal(u, seed=7)
    assert_allclose(forward(u, x), direct_dft(u, x), atol=1e-9)
    assert_allclose(inverse(u, x), direct_inverse_dft(u, x), atol=1e-9)


@pytest.mark.parametrize("p,d", SMALL_UNIVERSES + [(3, 7), (6, 4), (1024, 1)])
def test_round_trip_and_unitarity(p, d):
    u = Universe(p, d)
    x = random_signal(u, seed=11)
    x /= np.max(np.abs(x))
    assert np.max(np.abs(inverse(u, forward(u, x)) - x)) <= 1e-9
    norm = np.linalg.norm(x)
    assert abs(np.linalg.norm(forward(u, x)) - norm) <= 1e-9 * norm


@pytest.mark.parametrize("p,d", [(2, 10), (3, 7), (6, 4), (16, 3), (1024, 1)])
def test_character_sum_vanishes_off_zero(p, d):
    # sum_t omega^(f.t) = 0 for f != 0; all frequencies at once via one transform
    u = Universe(p, d)
    sums = forward(u, np.ones(u.n, dtype=np.complex128)) * np.sqrt(u.n)
    assert abs(sums[0] - u.n) <= 1e-8 * u.n
    assert np.max(np.abs(sums[1:])) <= 1e-8 * u.n


def test_p_equals_one_degenerate():
    u = Universe(1, 3)
    x = np.array([2.5 + 1j])
    assert_allclose(forward(u, x), x)
    assert_allclose(inverse(u, x), x)


def test_forward_batch_equals_rows():
    u = Universe(4, 3)
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((5, u.n)) + 1j * rng.standard_normal((5, u.n))
    out = forward(u, batch)
    assert out.shape == batch.shape
    for row, x in zip(out, batch):
        assert np.array_equal(row, forward(u, x))
    with pytest.raises(ValueError):
        forward(u, np.zeros((5, u.n + 1)))


def _cols(u, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((u.n, r)) + 1j * rng.standard_normal((u.n, r))


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4, 5, 7, 8, 15]),
    m=st.integers(1, 12),
    r=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, m=7, r=6, seed=0)  # groups of 2, 2, 2 and 1 coordinates
@example(p=2, m=11, r=1, seed=1)  # 4, 4 and 3
@example(p=4, m=5, r=3, seed=2)  # 2, 2 and 1
def test_slab_forward_grouped_matches_forward(p, m, r, seed):
    # the grouped character-matrix path transforms every column of an (n, R)
    # array as np.fft does, to rounding, for every group size, a partial last
    # group and any batch, into a C-contiguous complex128 array of that shape
    u = Universe(p, max(d for d in range(1, m + 1) if p**d <= 4096))
    cols = _cols(u, r, seed)
    ref = forward(u, cols.T).T
    out = slab_forward(u, cols)
    assert out.shape == cols.shape and out.dtype == np.complex128 and out.flags.c_contiguous
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("p,d", [(1, 3), (dft.GROUP, 3), (17, 2), (4096, 1)])
def test_slab_forward_falls_back_to_forward_bits(p, d):
    # p = 1 and p >= GROUP take np.fft in place: exactly forward()'s bits
    u = Universe(p, d)
    cols = _cols(u, 4, seed=p)
    assert np.array_equal(slab_forward(u, cols.copy()), forward(u, cols.T).T)


def test_slab_forward_shape_errors():
    u = Universe(4, 3)
    cols = _cols(u, 2, seed=0)
    for bad in (cols[:, 0], cols[:-1], cols.reshape(2, -1, 2), cols.real.copy(), cols.T.copy().T):
        with pytest.raises(ValueError):
            slab_forward(u, bad)


def test_shape_mismatch_errors():
    u = Universe(4, 2)
    with pytest.raises(ValueError):
        forward(u, np.zeros(15))
    with pytest.raises(ValueError):
        inverse(u, np.zeros((4, 4)))


def test_sparse_eval_empty():
    u = Universe(5, 2)
    pts = np.zeros((7, 2), dtype=np.int64)
    none = np.zeros((0, u.d), dtype=np.int64)
    assert_allclose(sparse_eval_time(u, pts, none, np.zeros(0)), np.zeros(7))


def test_sparse_eval_constant_spectrum():
    u = Universe(5, 2)
    rng = np.random.default_rng(3)
    pts = rng.integers(0, u.p, size=(10, u.d))
    w = sparse_eval_time(u, pts, np.zeros((1, u.d), dtype=np.int64), np.array([np.sqrt(u.n)]))
    assert_allclose(w, np.ones(10), atol=1e-12)


def test_sparse_eval_matches_dense_inverse():
    u = Universe(7, 3)
    rng = np.random.default_rng(19)
    freqs = rng.choice(u.n, size=3, replace=False)
    vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pts = rng.integers(0, u.p, size=(10, u.d))
    dense = np.zeros(u.n, dtype=np.complex128)
    dense[freqs] = vals
    expected = inverse(u, dense)[flat_index(u, pts)]
    assert_allclose(sparse_eval_time(u, pts, unflat_index(u, freqs), vals), expected, atol=1e-9)


def test_sparse_eval_rejects_bad_freq():
    u = Universe(3, 2)
    with pytest.raises(ValueError):
        densify(u, {9: 1.0})
    with pytest.raises(ValueError):
        sparse_eval_time(u, np.zeros((2, 3), dtype=np.int64), np.zeros((1, 2)), np.ones(1))


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 40),
    d=st.integers(1, 4),
    batch=st.sampled_from([(), (3,)]),
    m=st.integers(0, 12),
    s=st.one_of(st.none(), st.integers(0, 5)),
    sign=st.sampled_from([1, -1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_characters_equal_direct_exponentials(p, d, batch, m, s, sign, seed):
    # the root table gives exactly exp of the reduced phase, for one (d,)
    # frequency (s is None) and for an (s, d) array of them
    u = Universe(p, d)
    rng = np.random.default_rng(seed)
    points = rng.integers(0, p, size=batch + (m, d))
    f = rng.integers(0, p, size=(d,) if s is None else (s, d))
    direct = np.exp(sign * 2j * np.pi * ((points @ f.T) % p) / p)
    assert np.array_equal(characters(u, points, f, sign), direct)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 16])
def test_characters_equal_the_modulo_lookup(p):
    # the in-place reduction (a mask when p is a power of two) indexes the same
    # roots as (points @ freqs.T) % p, negative phases and single vectors included
    u = Universe(p, 3)
    rng = np.random.default_rng(p)
    points = rng.integers(0, p, size=(19, 128, 3))
    freqs = rng.integers(0, p, size=(16, 3))
    for sign in (1, -1):
        roots = dft._roots(p, sign)
        for t, f in ((points, freqs), (points[0], freqs), (points, -freqs), (points[0, 0], freqs[0])):
            assert np.array_equal(characters(u, t, f, sign), roots[(t @ f.T) % p])


def test_only_dft_computes_transforms_and_characters():
    # every FFT and every omega^(f.t) of the package goes through dft.py
    for path in sorted(Path(dft.__file__).parent.glob("*.py")):
        if path.name != "dft.py":
            text = path.read_text()
            assert "np.fft" not in text and "% u.p" not in text, path.name


def test_densify_roundtrip():
    u = Universe(4, 2)
    y = {3: 1 - 2j, 11: 0.5j}
    dense = densify(u, y)
    assert dense[3] == 1 - 2j and dense[11] == 0.5j
    assert np.count_nonzero(dense) == 2
