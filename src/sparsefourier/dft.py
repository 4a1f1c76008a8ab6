"""Normalized d-dimensional DFT over [p]^d and index arithmetic.

Sign convention (fixed throughout the package, opposite of numpy's default):

    forward:  xhat_f = (1/sqrt(n)) * sum_t x_t * omega^( f.t)
    inverse:  x_t    = (1/sqrt(n)) * sum_f xhat_f * omega^(-f.t)

with omega = exp(2j*pi/p) and n = p^d. Both transforms are unitary. numpy's
ifftn uses the positive exponent, so forward == sqrt(n)*ifftn and
inverse == fftn/sqrt(n).

A frequency or time vector (f_0, ..., f_{d-1}) maps to the flat index
sum_i f_i * p^i, i.e. coordinate 0 varies fastest. Every character
omega^(f.t) the package uses comes from characters(); this module is the
only one that calls np.fft.

The reduction's slab transforms go through slab_forward() on the R columns of
an (n, R) matrix, which it may overwrite. np.fft pays a fixed cost per axis,
which dominates when the axes are short, so when grouped(p) it merges g
coordinates into one axis of q = p^g <= GROUP, applied as one batched GEMM by
a cached (q, q) character matrix. Otherwise it runs forward()'s np.fft in the
matrix, bit for bit. forward() and inverse() always use np.fft.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Universe",
    "flat_index",
    "unflat_index",
    "characters",
    "forward",
    "slab_forward",
    "inverse",
    "sparse_eval_time",
    "densify",
]


@dataclass(frozen=True)
class Universe:
    """Shape descriptor for signals on [p]^d, with n = p^d cached."""

    p: int
    d: int
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise ValueError(f"need p >= 1 and d >= 1, got p={self.p}, d={self.d}")
        object.__setattr__(self, "n", self.p**self.d)

    @property
    def shape(self) -> tuple[int, ...]:
        # numpy axis order: axis 0 is the slowest, so it carries coordinate d-1
        return (self.p,) * self.d


def flat_index(u: Universe, coords) -> int | np.ndarray:
    """Map coordinate vectors to flat indices (sum_i c_i * p^i).

    `coords` may be a single length-d vector or an (m, d) array; out-of-range
    coordinates raise ValueError.
    """
    c = np.asarray(coords, dtype=np.int64)
    if c.shape[-1] != u.d:
        raise ValueError(f"expected {u.d} coordinates of the universe [{u.p}]^{u.d}, got {c.shape}")
    if np.any(c < 0) or np.any(c >= u.p):
        raise ValueError(f"coordinate out of range [0, {u.p}) of the universe [{u.p}]^{u.d}")
    weights = u.p ** np.arange(u.d, dtype=np.int64)
    out = c @ weights
    return int(out) if out.ndim == 0 else out


def unflat_index(u: Universe, flat) -> np.ndarray:
    """Inverse of flat_index: flat indices to coordinate vectors."""
    idx = np.asarray(flat, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= u.n):
        raise ValueError(f"flat index out of range [0, {u.n}) of the universe [{u.p}]^{u.d}")
    coords = np.empty(idx.shape + (u.d,), dtype=np.int64)
    rest = idx
    for i in range(u.d):
        coords[..., i] = rest % u.p
        rest = rest // u.p
    return coords


@functools.cache
def _roots(p: int, sign: int) -> np.ndarray:
    """The p roots of unity omega^(sign*j), j in [p]: one cached read-only table per (p, sign)."""
    roots = np.exp(sign * 2j * np.pi * np.arange(p) / p)
    roots.flags.writeable = False  # one cached array serves every call
    return roots


def characters(u: Universe, points, freqs, sign: int = 1) -> np.ndarray:
    """Characters omega^(sign * f.t) at every time vector of points and frequency of freqs.

    points is a (..., d) array and freqs a (d,) vector or an (s, d) array; the result has
    shape points.shape[:-1] (+ (s,)). The integer phase f.t mod p, reduced in place (a mask
    when p is a power of two), indexes _roots(p, sign), so every character in the package is
    one of the same p complex numbers.
    """
    phase = np.asarray(np.asarray(points) @ np.asarray(freqs).T)
    if u.p & (u.p - 1):
        np.remainder(phase, u.p, out=phase)
    else:
        np.bitwise_and(phase, u.p - 1, out=phase)
    return _roots(u.p, sign).take(phase)


def forward(u: Universe, x: np.ndarray) -> np.ndarray:
    """Forward transform, positive exponent, unitary normalization.

    Leading axes are a batch: an (R, n) array gives R transforms.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != u.n:
        raise ValueError(f"expected trailing axis of length {u.n}, got {x.shape}")
    batch = x.shape[:-1]
    axes = tuple(range(len(batch), len(batch) + u.d))
    out = np.fft.ifftn(x.reshape(batch + u.shape), axes=axes) * np.sqrt(u.n)
    return out.reshape(x.shape)


GROUP = 16  # axes shorter than GROUP are merged into GEMM axes of at most GROUP


def grouped(p: int) -> bool:
    """Whether slab_forward() on [p]^m runs GEMMs through one scratch slab, not np.fft in cols."""
    return 2 <= p < GROUP


@functools.cache
def _group_matrix(p: int, g: int) -> np.ndarray:
    """Unitary transform of one merged axis: the characters of [p]^g over its grid / sqrt(p^g)."""
    v = Universe(p, g)
    grid = unflat_index(v, np.arange(v.n))
    mat = characters(v, grid, grid) / np.sqrt(v.n)
    mat.flags.writeable = False  # one cached array serves every call
    return mat


def slab_forward(u: Universe, cols: np.ndarray) -> np.ndarray:
    """forward() of every column of an (n, R) complex128 array that it may overwrite.

    Returns the C-contiguous complex128 (n, R) array holding the result. Unless grouped(p),
    that is cols, by np.fft over the leading axes, bit for bit forward()'s result. Otherwise
    coordinates 0, 1, ... are merged into groups of g with q = p^g <= GROUP (the last group may
    be smaller), and each group is one batched GEMM M @ X.reshape(-1, q, inner) from cols into
    one scratch array or back (inner is R times the size of the groups before it), so the
    result is whichever array the last group wrote. Agrees with forward() to about 1e-15.
    """
    if cols.ndim != 2 or len(cols) != u.n or cols.dtype != complex or not cols.flags.c_contiguous:
        raise ValueError(
            f"expected a C-contiguous complex128 ({u.n}, R) array, got {cols.dtype} {cols.shape}"
        )
    if not grouped(u.p):
        cube = cols.reshape(u.shape + cols.shape[1:])
        np.fft.ifftn(cube, axes=tuple(range(u.d)), out=cube)
        cols *= np.sqrt(u.n)
        return cols
    g = max(g for g in range(1, u.d + 1) if u.p**g <= GROUP)
    src, dst, inner = cols, np.empty_like(cols), cols.shape[1]
    for lo in range(0, u.d, g):
        mat = _group_matrix(u.p, min(g, u.d - lo))
        np.matmul(mat, src.reshape(-1, len(mat), inner), out=dst.reshape(-1, len(mat), inner))
        src, dst, inner = dst, src, inner * len(mat)
    return src


def inverse(u: Universe, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform, negative exponent, unitary normalization."""
    xhat = np.asarray(xhat)
    if xhat.shape != (u.n,):
        raise ValueError(f"expected flat array of length {u.n}, got {xhat.shape}")
    out = np.fft.fftn(xhat.reshape(u.shape)) / np.sqrt(u.n)
    return out.ravel()


def sparse_eval_time(u: Universe, points, freqs, values) -> np.ndarray:
    """Evaluate the inverse transform of a sparse spectrum at selected points.

    The spectrum holds values[j] at the frequency with coordinates freqs[j]
    ((s, d) and (s,) arrays). `points` is an (m, d) array of time vectors.
    Returns the length-m array

        w_t = (1/sqrt(n)) * sum_j values[j] * omega^(-freqs[j].t)

    identical to the dense inverse transform sampled at the points, but at
    cost O(m * s * d) and without touching any other time coordinate.
    """
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != u.d:
        raise ValueError(f"expected (m, {u.d}) points array, got {pts.shape}")
    return (characters(u, pts, freqs, sign=-1) @ values) / np.sqrt(u.n)


def densify(u: Universe, y: dict[int, complex]) -> np.ndarray:
    """Expand a sparse spectrum (flat index -> value) to a dense length-n array."""
    out = np.zeros(u.n, dtype=np.complex128)
    for f, v in y.items():
        if not 0 <= f < u.n:
            raise ValueError(f"flat frequency {f} out of range [0, {u.n})")
        out[f] = v
    return out
