"""Median-of-estimates shrinking of the residual spectrum's sup norm.

One call takes the approximation y built so far (a length-n spectrum
array, zero off its support), R independent sample lists (an (R, B, d)
row of a SampleBundle), and a radius nu with the promise that the
residual spectrum xhat - y has sup norm at most 2*nu.
For every frequency it forms R subset estimates of the residual, takes the
coordinate-wise lower median over repetitions, and keeps the medians of
magnitude at least nu/2. Adding the kept values to y halves the promise:
the new residual has sup norm at most nu (with high probability in the
sample draws).

Running H such rounds against the rows of a SampleBundle walks the radius
down from nu to 2^(1-H)*nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dft import Universe, characters, flat_index, slab_forward, sparse_eval_time, unflat_index
from .sampling import AuditedSignal, SampleBundle

__all__ = ["ReduceOutput", "slab_universe", "linfinity_reduce", "reduce_h_rounds"]

SLAB = 2**12  # a round holds the R estimates of at most SLAB frequencies at once


@dataclass
class ReduceOutput:
    """Kept entries z of one round (zero elsewhere), and the medians eta they were cut from."""

    z: np.ndarray
    eta: np.ndarray = field(repr=False)


def slab_universe(u: Universe) -> Universe:
    """[p]^m of a slab's fast coordinates: the largest m <= d with p^m <= SLAB, m >= 1."""
    return Universe(u.p, max((m for m in range(2, u.d + 1) if u.p**m <= SLAB), default=1))


def _lower_median(est: np.ndarray) -> np.ndarray:
    """Order statistic floor((R-1)/2) over axis 1 of est.real and est.imag, partitioned in place."""
    mid = (est.shape[1] - 1) // 2
    est.real.partition(mid, axis=1)
    est.imag.partition(mid, axis=1)
    return est[:, mid]


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
    otherwise); with s = n that is one n-point transform.
    """
    if nu <= 0:
        raise ValueError(f"radius nu must be positive, got {nu}")
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
    eta = np.empty(u.n, dtype=np.complex128)
    mat = np.empty((s, len(points)), dtype=np.complex128)  # one slab matrix, refilled per slab
    for lo in range(0, u.n, s):  # slab [lo, lo + s) shares the slow coordinates of lo
        # lo's fast coordinates are 0, so omega^(lo.t) is the slab weight omega^(f_hi.t_hi)
        mat.fill(0)
        np.add.at(mat, index, scaled * characters(u, points, unflat_index(u, lo)))
        eta[lo : lo + s] = _lower_median(slab_forward(fast, mat))
    return ReduceOutput(z=np.where(np.abs(eta) >= nu / 2, eta, 0), eta=eta)


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
