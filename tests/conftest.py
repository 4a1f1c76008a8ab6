"""Shared brute-force oracles for the test suite."""

import numpy as np

from sparsefourier.dft import Universe, forward, unflat_index


def direct_dft(u: Universe, x: np.ndarray, chunk: int = 512) -> np.ndarray:
    """O(n^2) direct double sum: xhat_f = (1/sqrt(n)) sum_t x_t omega^(f.t).

    Deliberately naive (no row-column factorization); chunked over frequency
    rows so the phase matrix never exceeds chunk*n entries.
    """
    coords = unflat_index(u, np.arange(u.n))
    out = np.empty(u.n, dtype=np.complex128)
    for lo in range(0, u.n, chunk):
        hi = min(lo + chunk, u.n)
        phase = np.zeros((hi - lo, u.n), dtype=np.int64)
        for i in range(u.d):
            phase += np.outer(coords[lo:hi, i], coords[:, i])
        phase %= u.p
        out[lo:hi] = np.exp(2j * np.pi * phase / u.p) @ x
    return out / np.sqrt(u.n)


def direct_inverse_dft(u: Universe, xhat: np.ndarray) -> np.ndarray:
    """O(n^2) direct inverse (negative exponent)."""
    return np.conj(direct_dft(u, np.conj(xhat)))


def subset_transform_dense(u: Universe, samples, flats) -> np.ndarray:
    """Estimate all n spectrum entries from each of R sample lists at once.

    samples[r, j] is the signal at flat time index flats[r, j], both (R, B).
    Row r of the (R, n) result comes from list r: its samples are scattered
    (summing duplicates) with the scale n/B folded in, then one batched
    forward transform matches the per-frequency estimator entrywise.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 2 or samples.shape != np.shape(flats) or samples.size == 0:
        raise ValueError(f"need equal (R, B) shapes, R, B >= 1: {samples.shape}, {np.shape(flats)}")
    r, b = samples.shape
    mat = np.zeros((r, u.n), dtype=np.complex128)
    np.add.at(mat, (np.arange(r)[:, None], flats), samples * (u.n / b))
    return forward(u, mat)


def subset_transform_single(u: Universe, samples, points, f) -> complex:
    """Estimate one spectrum entry from samples taken at the (B, d) points of T."""
    vals = np.asarray(samples, dtype=np.complex128)
    pts = np.asarray(points)
    if pts.ndim != 2 or vals.shape != (len(pts),):
        raise ValueError(f"got samples of shape {vals.shape} for points of shape {pts.shape}")
    phase = (pts @ unflat_index(u, f)) % u.p
    est = np.exp(2j * np.pi * phase / u.p) @ vals
    return complex(est * np.sqrt(u.n) / len(pts))


def lower_median(arr: np.ndarray) -> np.ndarray:
    """Order statistic at index floor((R-1)/2) along axis 0, by a full sort."""
    return np.sort(arr, axis=0)[(arr.shape[0] - 1) // 2]
