"""Normalized d-dimensional DFT over [p]^d and index arithmetic.

Sign convention (fixed throughout the package, opposite of numpy's default):

    forward:  xhat_f = (1/sqrt(n)) * sum_t x_t * omega^( f.t)
    inverse:  x_t    = (1/sqrt(n)) * sum_f xhat_f * omega^(-f.t)

with omega = exp(2j*pi/p) and n = p^d. Both transforms are unitary. numpy's
ifftn uses the positive exponent, so forward == sqrt(n)*ifftn and
inverse == fftn/sqrt(n).

A frequency or time vector (f_0, ..., f_{d-1}) maps to the flat index
sum_i f_i * p^i, i.e. coordinate 0 varies fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Universe",
    "flat_index",
    "unflat_index",
    "as_coords",
    "forward",
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
        raise ValueError(f"flat index out of range [0, {u.n})")
    coords = np.empty(idx.shape + (u.d,), dtype=np.int64)
    rest = idx
    for i in range(u.d):
        coords[..., i] = rest % u.p
        rest = rest // u.p
    return coords


def as_coords(u: Universe, f) -> np.ndarray:
    """One frequency, given as a flat index or as d coordinates, as a coordinate vector."""
    if np.isscalar(f):
        return unflat_index(u, int(f))
    fv = np.asarray(f, dtype=np.int64)
    if fv.shape != (u.d,):
        raise ValueError(f"frequency must be a flat index or {u.d} coordinates")
    if np.any(fv < 0) or np.any(fv >= u.p):
        raise ValueError(f"frequency coordinate out of range [0, {u.p})")
    return fv


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
    # phases (m, s): f.t mod p keeps the integers small before the exp
    phase = (pts @ np.asarray(freqs).T) % u.p
    kernel = np.exp(-2j * np.pi * phase / u.p)
    return (kernel @ values) / np.sqrt(u.n)


def densify(u: Universe, y: dict[int, complex]) -> np.ndarray:
    """Expand a sparse spectrum (flat index -> value) to a dense length-n array."""
    out = np.zeros(u.n, dtype=np.complex128)
    for f, v in y.items():
        if not 0 <= f < u.n:
            raise ValueError(f"flat frequency {f} out of range [0, {u.n})")
        out[f] = v
    return out
