"""Median-of-estimates shrinking of the residual spectrum's sup norm.

One call takes the approximation y built so far (a length-n spectrum
array, zero off its support), R independent sample lists (an (R, B, d)
row of a SampleBundle), and a radius nu with the promise that the
residual spectrum xhat - y has sup norm at most 2*nu.
For every frequency it forms R subset estimates of the residual and keeps the
coordinate-wise lower median over repetitions where its magnitude is at least
nu/2. Adding the kept values to y halves the promise: the new residual has sup
norm at most nu (with high probability in the sample draws). A kept median has
a real or imaginary part of size >= nu/(2*sqrt 2), so more than (R-1)//2 of the
estimates have that part as large: a frequency takes a median only if that many
have a part of size >= 0.35*nu (1 % lower, for rounding; NaN counts as large).

Running H such rounds against the rows of a SampleBundle walks the radius
down from nu to 2^(1-H)*nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dft import (
    Universe, characters, flat_index, grouped, slab_forward, sparse_eval_time, unflat_index
)
from .sampling import AuditedSignal, SampleBundle

__all__ = ["ReduceOutput", "slab_universe", "round_memory", "linfinity_reduce", "reduce_h_rounds"]

SLAB = 2**12  # a round holds the R estimates of at most SLAB frequencies at once
SCREEN = 256  # slab rows screened at once; their candidates are copied at most SCREEN//4 at a time


@dataclass
class ReduceOutput:
    """Kept entries z of one round: the medians of magnitude >= nu/2, zero elsewhere."""

    z: np.ndarray


def slab_universe(u: Universe) -> Universe:
    """[p]^m of a slab's fast coordinates: the largest m <= d with p^m <= SLAB, m >= 1."""
    return Universe(u.p, max((m for m in range(2, u.d + 1) if u.p**m <= SLAB), default=1))


def round_memory(u: Universe, r: int, b: int) -> int:
    """Bytes a round of R lists of B points holds besides its length-n vectors: the (s, R)
    slab matrix (and the grouped transform's scratch), the (R, B) samples and screen blocks."""
    return r * (16 * (1 + grouped(u.p)) * slab_universe(u).n + 64 * b + 10 * SCREEN)


def _kept_medians(est: np.ndarray, nu: float, out: np.ndarray) -> None:
    """Write the lower medians m of est's (s, R) rows with |m| >= nu/2 into out, which is zero."""
    r, mid = est.shape[1], (est.shape[1] - 1) // 2
    for b in range(0, len(est), SCREEN):
        blk = est[b : b + SCREEN]
        small = (np.abs(blk.real) < 0.35 * nu) & (np.abs(blk.imag) < 0.35 * nu)
        cand = b + np.flatnonzero(small.sum(axis=1, dtype=np.int32) <= r // 2)
        for rows in (cand[j : j + SCREEN // 4] for j in range(0, len(cand), SCREEN // 4)):
            med = est[rows]  # a copy of at most SCREEN//4 rows, partitioned in place
            med.real.partition(mid, axis=1)
            med.imag.partition(mid, axis=1)
            out[rows] = np.where(np.abs(med[:, mid]) >= nu / 2, med[:, mid], 0)


def linfinity_reduce(signal: AuditedSignal, y: np.ndarray, points, nu: float) -> ReduceOutput:
    """One shrinking round: median estimates, then threshold at nu/2.

    y is a length-n spectrum array and points an (R, B, d) array of R
    sample lists. The caller promises sup|xhat - y| <= 2*nu, which tests
    verify through an oracle. Every sample list is read in full through the
    audited accessor, and y is evaluated only at the sampled time points
    (sparse evaluation over its nonzero entries).

    Medians come one slab of s = p^m flat frequencies sharing f_hi = (f_m..f_{d-1})
    at a time: samples weighted by omega^(f_hi.t_hi) feed one batched m-dim transform
    (dft.slab_forward: grouped character-matrix GEMMs for p < dft.GROUP, an FFT
    otherwise); with s = n that is one n-point transform. _kept_medians screens it.
    """
    if not 0 < nu < np.inf:
        raise ValueError(f"radius nu must be positive and finite, got nu={nu}")
    u = signal.universe
    y = np.asarray(y)
    if y.shape != (u.n,):
        raise ValueError(f"y must be a length-{u.n} spectrum array, got shape {y.shape}")
    points = np.asarray(points)
    if points.ndim != 3 or 0 in points.shape[:2]:
        raise ValueError(f"need an (R, B, {u.d}) array, R, B >= 1, got shape {points.shape}")
    flats = flat_index(u, points)  # rejects points outside the signal's universe
    supp = np.flatnonzero(y)
    freqs, values = unflat_index(u, supp), y[supp]
    residuals = np.array(
        [signal.read(f) - sparse_eval_time(u, t, freqs, values) for f, t in zip(flats, points)]
    )
    fast = slab_universe(u)
    s = fast.n
    scaled = residuals * (u.n / points.shape[1] * np.sqrt(s / u.n))  # n/B when s = n
    index = (flats % s, np.arange(len(points))[:, None])
    z = np.zeros(u.n, dtype=np.complex128)
    mat = np.empty((s, len(points)), dtype=np.complex128)  # one slab matrix, refilled per slab
    for lo in range(0, u.n, s):  # slab [lo, lo + s) shares the slow coordinates of lo
        # lo's fast coordinates are 0, so omega^(lo.t) is the slab weight omega^(f_hi.t_hi)
        mat.fill(0)
        np.add.at(mat, index, scaled * characters(u, points, unflat_index(u, lo)))
        mat = slab_forward(fast, mat)  # keep the array that holds the transform, free the other
        _kept_medians(mat, nu, z[lo : lo + s])
    return ReduceOutput(z=z)


def reduce_h_rounds(
    signal: AuditedSignal, y: np.ndarray, bundle: SampleBundle, nu: float
) -> np.ndarray:
    """Run one round per bundle row with geometrically shrinking radius, accumulating z.

    Round i uses bundle row i with radius 2^(1-i) * nu, so on success the
    residual against y + z ends below 2^(1-H) * nu for H rows. y and the
    returned z are length-n spectrum arrays.
    """
    z = np.zeros(signal.universe.n, dtype=np.complex128)
    for i, row in enumerate(bundle.points, start=1):
        z += linfinity_reduce(signal, y + z, row, (2.0 ** (1 - i)) * nu).z
    return z
