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

from .dft import flat_index, sparse_eval_time, unflat_index
from .sampling import AuditedSignal, SampleBundle, subset_transform_dense

__all__ = ["ReduceOutput", "linfinity_reduce", "reduce_h_rounds"]


@dataclass
class ReduceOutput:
    """Kept entries z of one round (zero elsewhere), and the medians eta they were cut from."""

    z: np.ndarray
    eta: np.ndarray = field(repr=False)


def _lower_median(arr: np.ndarray) -> np.ndarray:
    """Order statistic at index floor((R-1)/2) along axis 0."""
    return np.sort(arr, axis=0)[(arr.shape[0] - 1) // 2]


def linfinity_reduce(signal: AuditedSignal, y: np.ndarray, points, nu: float) -> ReduceOutput:
    """One shrinking round: median estimates, then threshold at nu/2.

    y is a length-n spectrum array and points an (R, B, d) array of R
    sample lists. The caller promises sup|xhat - y| <= 2*nu, which tests
    verify through an oracle. Every sample list is read in full through the
    audited accessor, and y is evaluated only at the sampled time points
    (sparse evaluation over its nonzero entries).
    """
    if nu <= 0:
        raise ValueError(f"radius nu must be positive, got {nu}")
    u = signal.universe
    y = np.asarray(y)
    if y.shape != (u.n,):
        raise ValueError(f"y must be a length-{u.n} spectrum array, got shape {y.shape}")
    points = np.asarray(points)
    if points.ndim != 3:
        raise ValueError(f"need an (R, B, {u.d}) array of sample lists, got shape {points.shape}")
    flats = flat_index(u, points)  # rejects points outside the signal's universe
    supp = np.flatnonzero(y)
    freqs, values = unflat_index(u, supp), y[supp]
    residuals = [
        signal.read(f) - sparse_eval_time(u, t, freqs, values)
        for f, t in zip(flats, points)
    ]
    estimates = subset_transform_dense(u, residuals, flats)
    eta = _lower_median(estimates.real) + 1j * _lower_median(estimates.imag)
    return ReduceOutput(z=np.where(np.abs(eta) >= nu / 2, eta, 0), eta=eta)


def reduce_h_rounds(
    signal: AuditedSignal,
    y: np.ndarray,
    bundle: SampleBundle,
    nu: float,
    h: int,
) -> np.ndarray:
    """Run H rounds with geometrically shrinking radius, accumulating z.

    Round i uses bundle row i with radius 2^(1-i) * nu, so on success the
    residual against y + z ends below 2^(1-H) * nu. y and the returned z
    are length-n spectrum arrays.
    """
    if not (1 <= h <= len(bundle.points)):
        raise ValueError(f"need 1 <= h <= {len(bundle.points)}, got {h}")
    z = np.zeros(signal.universe.n, dtype=np.complex128)
    for i in range(1, h + 1):
        z += linfinity_reduce(signal, y + z, bundle.points[i - 1], (2.0 ** (1 - i)) * nu).z
    return z
