"""Median-of-estimates shrinking of the residual spectrum's sup norm.

One call takes the approximation y built so far as a sorted pair (supp, its int64
flat indices, and values), R independent sample lists (an (R, B) row of a
SampleBundle's flat indices), and a radius nu with the promise sup|xhat - y| <= 2*nu.
Each list j defines a subset estimate of the residual at every frequency, and
the round keeps the coordinate-wise lower median over lists where its magnitude
is at least nu/2; it computes only the estimates that can decide a kept median.
Adding the kept values to y halves the promise: the new residual has sup norm at
most nu (with high probability in the sample draws). No array has length n.

A median is decided by a majority, and the round uses that to skip work
exactly. A kept median has a real or imaginary part of size >= nu/(2*sqrt 2),
so more than (R-1)//2 of the estimates have that part as large. Call an
estimate small when both parts are below 0.35*nu (1 % lower, for rounding; NaN
counts as large): a row with more than R//2 small estimates keeps nothing.
  - Skip: list j's estimates have parts of size at most
    M_j = (sqrt(n)/B) * sum_t |r_t| over its residual samples r_t. If more than
    R//2 lists have M_j*(1 + 1e-9) < 0.35*nu (the margin covers the transform's
    rounding), every row has a majority of small estimates, and the round
    keeps nothing after its reads, with no transform.
  - Majority first: per slab, only the first m = min(R, R//2 + 1 + SPARE) lists
    are transformed. A row with more than R//2 small estimates among those m is
    dropped. Only the survivors get the other R - m estimates: from characters()
    at those rows while rows * B <= CROSS * s, otherwise from a transform of
    the tail lists. Their R estimates are screened again and, where a median can
    still pass, partitioned for it. When m = R (R <= 10) the head holds every
    list and the tail is empty, so the head's screen decides every row.

Running H such rounds against the rows of a SampleBundle walks the radius
down from nu to 2^(1-H)*nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dft import Universe, characters, grouped, slab_forward, sparse_eval_time, unflat_index
from .sampling import AuditedSignal, SampleBundle

__all__ = ["BrokenPromise", "OccupancyError", "ReduceOutput", "slab_universe", "round_memory",
           "linfinity_reduce", "reduce_h_rounds"]

SLAB = 2**12  # a round transforms at most SLAB frequencies at once
SCREEN = 256  # slab rows screened at once; their candidates are copied at most SCREEN//4 at a time
SPARE = 4  # lists transformed first beyond the R//2 + 1 that can outvote a median
CROSS = 2  # survivors get their tail from characters() while rows * B <= CROSS * s


class BrokenPromise(RuntimeError):
    """The solver's own state shows that a promise its schedule rests on did not hold."""


class OccupancyError(BrokenPromise):
    """A round kept, or y holds, more than cap = C_S*k entries, or y holds a non-finite value."""


@dataclass
class ReduceOutput:
    """Kept entries of one round: ascending flat indices and their medians of magnitude >= nu/2."""

    flats: np.ndarray
    z: np.ndarray


def slab_universe(u: Universe) -> Universe:
    """[p]^m of a slab's fast coordinates: the largest m <= d with p^m <= SLAB, m >= 1."""
    return Universe(u.p, max((m for m in range(2, u.d + 1) if u.p**m <= SLAB), default=1))


def _head(r: int) -> int:
    """Lists whose estimates every row gets: a majority of the R, plus SPARE."""
    return min(r, r // 2 + 1 + SPARE)


def _direct_rows(s: int, b: int) -> int:
    """Rows per block of characters(): its (R - m, B, rows) table holds less than an (s, R - m)
    complex matrix (16 bytes a character and 8 for its phase)."""
    return max(1, s // (2 * b))


def round_memory(u: Universe, r: int, b: int, cap: int) -> int:
    """Bytes a round of R lists of B points holds: the (s, m) head matrix with the largest of
    its grouped transform's scratch, the (s, R - m) tail matrix (and its scratch), or the
    direct tail's (CROSS * s / B, R - m) estimates (at most three copies) with one block of
    characters (24 bytes a term); the (R, B, d) sample coordinates, their (R, B) arrays, screen
    blocks, per-row counts and indices; y's coordinates and cap + s kept entries, twice."""
    s, m, g = slab_universe(u).n, _head(r), grouped(u.p)
    direct = (r - m) * (24 * b * _direct_rows(s, b) + 48 * (CROSS * s // b))
    tail = max(16 * s * m * g, 16 * s * (r - m) * (1 + g), direct)
    return 16 * s * m + tail + r * (8 * b * (u.d + 10) + 10 * SCREEN) + 56 * s + 8 * (8 + u.d) * cap


def _small_counts(est: np.ndarray, nu: float) -> np.ndarray:
    """Per row of est, the estimates with both parts below 0.35*nu in magnitude."""
    counts = np.empty(len(est), dtype=np.int32)
    for b in range(0, len(est), SCREEN):
        blk = est[b : b + SCREEN]
        small = (np.abs(blk.real) < 0.35 * nu) & (np.abs(blk.imag) < 0.35 * nu)
        small.sum(axis=1, dtype=np.int32, out=counts[b : b + SCREEN])
    return counts


def _passing(med: np.ndarray, nu: float) -> np.ndarray:
    """The lower medians m of med's rows (partitioned in place) where |m| >= nu/2, else 0."""
    mid = (med.shape[1] - 1) // 2
    med.real.partition(mid, axis=1)
    med.imag.partition(mid, axis=1)
    return np.where(np.abs(med[:, mid]) >= nu / 2, med[:, mid], 0)


def _estimates(u: Universe, points: np.ndarray, values: np.ndarray, freqs) -> np.ndarray:
    """(len(freqs), R) sums over t of values[j, t] * omega^(f.t), for the R lists of points."""
    return np.matmul(values[:, None, :], characters(u, points, freqs))[:, 0].T


def _slab_transform(fast: Universe, mat: np.ndarray, index, weights: np.ndarray) -> np.ndarray:
    """slab_forward of the weights scattered into mat (zeroed first) at index."""
    mat.fill(0)
    np.add.at(mat, index, weights)
    return slab_forward(fast, mat)  # keep the array that holds the transform, free the other


def linfinity_reduce(signal: AuditedSignal, supp, values, flats, nu: float, cap) -> ReduceOutput:
    """One shrinking round: median estimates, then threshold at nu/2.

    y holds values at the flat indices supp (1-d, of one length) and flats is an
    (R, B) array of the flat indices of R sample lists. The caller promises
    sup|xhat - y| <= 2*nu, which tests verify through an oracle. Every list is read
    in full through the audited accessor, and y is evaluated at the sampled points
    (sparse evaluation) before the skip test. A round that has kept more than cap
    entries after a slab raises OccupancyError.

    Estimates come one slab of s = p^m flat frequencies sharing f_hi = (f_m..f_{d-1})
    at a time: samples weighted by omega^(f_hi.t_hi) feed one batched m-dim transform
    (dft.slab_forward: grouped character-matrix GEMMs for p < dft.GROUP, an FFT
    otherwise); with s = n that is one n-point transform. The head lists are
    transformed for every slab, the tail lists only for its survivors (module docstring).
    """
    if not 0 < nu < np.inf:
        raise ValueError(f"radius nu must be positive and finite, got nu={nu}")
    u = signal.universe
    supp, values = np.asarray(supp), np.asarray(values)
    if supp.ndim != 1 or supp.shape != values.shape:
        raise ValueError(f"need 1-d supp and values of one length, got {supp.shape} {values.shape}")
    flats = np.asarray(flats)
    if flats.ndim != 2 or 0 in flats.shape:
        raise ValueError(f"need (R, B) flat indices of the universe, R, B >= 1, got {flats.shape}")
    points, freqs = unflat_index(u, flats), unflat_index(u, supp)  # both must be in the universe
    residuals = np.array([signal.read(f) - sparse_eval_time(u, t, freqs, values)
                          for f, t in zip(flats, points)])
    r, b = residuals.shape
    at_kept, z = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.complex128)]
    bounds = np.abs(residuals).sum(axis=1) * (np.sqrt(u.n) / b)  # M_j >= |parts| of list j
    if np.count_nonzero(bounds * (1 + 1e-9) < 0.35 * nu) > r // 2:
        return ReduceOutput(at_kept[0], z[0])  # every row has a majority of small estimates
    fast = slab_universe(u)
    s, m = fast.n, _head(r)
    scaled = residuals * (u.n / b * np.sqrt(s / u.n))  # n/B when s = n
    at, lists = flats % s, np.arange(r)[:, None]
    terms = residuals[m:] * (np.sqrt(u.n) / b)  # the tail lists' estimates are their sums
    step = _direct_rows(s, b)
    head = np.empty((s, m), dtype=np.complex128)  # one head matrix, refilled per slab
    for lo in range(0, u.n, s):  # slab [lo, lo + s) shares the slow coordinates of lo
        # lo's fast coordinates are 0, so omega^(lo.t) is the slab weight omega^(f_hi.t_hi)
        tail = None  # the last slab's tail goes before this slab allocates
        weights = scaled * characters(u, points, unflat_index(u, lo))
        head = _slab_transform(fast, head, (at[:m], lists[:m]), weights[:m])
        counts = _small_counts(head, nu)
        cand = np.flatnonzero(counts <= r // 2)  # a row outvoted among the head lists keeps nothing
        if not len(cand):
            continue
        if m == r:  # the head holds every list: the tail is a zero-width view
            tail, pos = head[:, m:], cand
        elif len(cand) * b <= CROSS * s:  # few survivors: their tail estimates, term by term
            at_cand = unflat_index(u, lo + cand)
            tail = np.concatenate(
                [_estimates(u, points[m:], terms, at_cand[j : j + step])
                 for j in range(0, len(cand), step)]
            )
            pick = counts[cand] + _small_counts(tail, nu) <= r // 2
            cand, tail = cand[pick], tail[pick]
            pos = np.arange(len(cand))
        else:
            tail = np.empty((s, r - m), dtype=np.complex128)
            tail = _slab_transform(fast, tail, (at[m:], lists[: r - m]), weights[m:])
            counts += _small_counts(tail, nu)
            cand = pos = np.flatnonzero(counts <= r // 2)
        for j in range(0, len(cand), SCREEN // 4):  # copies of at most SCREEN//4 rows
            rows = cand[j : j + SCREEN // 4]
            med = _passing(np.hstack((head[rows], tail[pos[j : j + SCREEN // 4]])), nu)
            at_kept.append(lo + rows[med != 0])
            z.append(med[med != 0])
        if sum(map(len, z)) > cap:
            raise OccupancyError(f"kept {sum(map(len, z))} entries, more than C_S*k = {cap}")
    return ReduceOutput(np.concatenate(at_kept), np.concatenate(z))


def reduce_h_rounds(signal: AuditedSignal, supp, values, bundle: SampleBundle, nu: float, cap):
    """Run one round per bundle row with geometrically shrinking radius, merging each into y.

    Round i uses bundle row i with radius 2^(1-i) * nu, so on success the residual
    ends below 2^(1-H) * nu for H rows. Each round merges into y = (supp, values) by
    a sorted union that adds shared entries and drops zeros. A y of more than cap
    entries, or with a non-finite one, raises OccupancyError, as a round does.
    """
    for i, row in enumerate(bundle.flats, start=1):
        try:
            out = linfinity_reduce(signal, supp, values, row, (2.0 ** (1 - i)) * nu, cap)
            supp, at = np.unique(np.concatenate((supp, out.flats)), return_inverse=True)
            merged = np.zeros(len(supp), dtype=np.complex128)
            np.add.at(merged, at, np.concatenate((values, out.z)))  # y's entry, then z's
            supp, values = supp[merged != 0], merged[merged != 0]
            if len(supp) > cap or not np.isfinite(values).all():
                raise OccupancyError(f"y holds {len(supp)} entries, C_S*k = {cap},"
                                     f" max |y| = {abs(values).max()}")
        except OccupancyError as exc:
            raise OccupancyError(f"round {i}: {exc}") from None
    return supp, values
