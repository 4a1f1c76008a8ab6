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
    are transformed, in the round's one (s, m) slab matrix. A row with more than
    R//2 small estimates among those m is dropped. Only the survivors get the
    other R - m estimates: from characters() at those rows while
    rows * B <= CROSS * s, otherwise from a transform of the tail lists in the
    same matrix (R - m <= m). Their R estimates are screened again and, where a
    median can still pass, partitioned for it. After a tail transform the head
    rows still needed come from characters() by the same CROSS rule, or, past
    it, from a second head transform once the survivors' tail rows are copied
    out, for half a slab of rows at a time (the tail, then the head, is
    transformed again for the rest). When m = R (R <= 10) the head holds every
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
    """Rows per block of characters(): for any number of lists, its (lists, B, rows) table (16
    bytes a character and 8 for its phase) holds under a fifth of an (s, lists) complex matrix,
    so the term-by-term estimates add little to the round's one slab matrix."""
    return max(1, s // (8 * b))


def round_memory(u: Universe, r: int, b: int, cap: int) -> int:
    """Bytes a round of R lists of B points holds, at its worst: the one (s, m) slab matrix and
    the larger of two paths past the head screen. Past CROSS * s / B survivors of the full
    screen, the tail rows of at most half a slab of them are copied out while the head is
    transformed again, with, for grouped(p), that transform's (s, m) scratch (which also covers
    the tail transform's). Below it, the head estimates of CROSS * s / B rows are summed term by
    term next to the tail transform's scratch, with one block of characters (24 bytes a term).
    Besides them: the (R, B, d) sample coordinates, their (R, B) arrays, screen blocks, per-row
    counts and indices; y's coordinates and cap + s kept entries, twice."""
    s, m, g = slab_universe(u).n, _head(r), grouped(u.p)
    rows, step = CROSS * s // b, _direct_rows(s, b)
    second = 16 * s * m * g + 16 * ((s + 1) // 2) * (r - m)
    summed = 16 * s * (r - m) * g + m * (24 * b * step + 16 * (rows + step)) + 8 * u.d * rows
    return 16 * s * m + max(second, summed * (m < r)) + r * (8 * b * (u.d + 10) + 10 * SCREEN) \
        + 56 * s + 8 * (8 + u.d) * cap


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


def _summed(u: Universe, points: np.ndarray, terms: np.ndarray, flats, step: int) -> np.ndarray:
    """_estimates at the flat frequencies flats, filled step of them at a time."""
    freqs = unflat_index(u, flats)
    out = np.empty((len(flats), len(points)), dtype=np.complex128)
    for j in range(0, len(flats), step):
        out[j : j + step] = _estimates(u, points, terms, freqs[j : j + step])
    return out


def _slab_transform(fast: Universe, mat: np.ndarray, at: np.ndarray, weights: np.ndarray):
    """slab_forward of the weights (a row per list) scattered at the slab rows at into the
    first len(weights) columns' worth of mat, as one C-contiguous matrix zeroed first."""
    cols = mat.reshape(-1)[: fast.n * len(weights)].reshape(fast.n, len(weights))
    cols.fill(0)
    np.add.at(cols, (at, np.arange(len(weights))[:, None]), weights)
    return slab_forward(fast, cols)  # keep the array that holds the transform, free the other


def _select(rows: np.ndarray, head: np.ndarray, hpos, tail: np.ndarray, tpos, nu: float) -> list:
    """(flats, medians) pairs of the rows whose lower median over their head estimates (rows
    hpos of head) and tail estimates (rows tpos of tail) passes; copies at most SCREEN//4 rows."""
    kept = []
    for j in range(0, len(rows), SCREEN // 4):
        block = slice(j, j + SCREEN // 4)
        med = _passing(np.hstack((head[hpos[block]], tail[tpos[block]])), nu)
        kept.append((rows[block][med != 0], med[med != 0]))
    return kept


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
    otherwise); with s = n that is one n-point transform. The round holds one (s, m) slab
    matrix: the head lists are transformed in it for every slab, the tail lists, for the
    slabs where more than CROSS * s / B rows survive the head, in its first R - m columns
    (module docstring).
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
    kept = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))]
    bounds = np.abs(residuals).sum(axis=1) * (np.sqrt(u.n) / b)  # M_j >= |parts| of list j
    if np.count_nonzero(bounds * (1 + 1e-9) < 0.35 * nu) > r // 2:
        return ReduceOutput(*kept[0])  # every row has a majority of small estimates
    fast = slab_universe(u)
    s, m = fast.n, _head(r)
    scaled = residuals * (u.n / b * np.sqrt(s / u.n))  # n/B when s = n
    at = flats % s
    terms = residuals * (np.sqrt(u.n) / b)  # a list's estimates are the sums of its terms
    step = _direct_rows(s, b)
    mat = np.empty((s, m), dtype=np.complex128)  # the round's one slab matrix
    for lo in range(0, u.n, s):  # slab [lo, lo + s) shares the slow coordinates of lo
        # lo's fast coordinates are 0, so omega^(lo.t) is the slab weight omega^(f_hi.t_hi)
        head = tail = None  # the last slab's copies go before this slab's transform
        weights = scaled * characters(u, points, unflat_index(u, lo))
        mat = _slab_transform(fast, mat, at[:m], weights[:m])
        counts = _small_counts(mat, nu)
        cand = np.flatnonzero(counts <= r // 2)  # a row outvoted among the head lists keeps nothing
        if not len(cand):
            continue
        if m == r:  # the head holds every list: the tail is a zero-width view
            kept += _select(lo + cand, mat, cand, mat[:, m:], cand, nu)
        elif len(cand) * b <= CROSS * s:  # few survivors: their tail estimates, term by term
            tail = _summed(u, points[m:], terms[m:], lo + cand, step)
            pick = np.flatnonzero(counts[cand] + _small_counts(tail, nu) <= r // 2)
            kept += _select(lo + cand[pick], mat, cand[pick], tail, pick, nu)
        else:  # the tail lists in the matrix's first R - m columns, then the head rows still needed
            tail = _slab_transform(fast, mat, at[m:], weights[m:])
            counts += _small_counts(tail, nu)
            cand = np.flatnonzero(counts <= r // 2)
            if len(cand) * b <= CROSS * s:  # few survivors: their head estimates, term by term
                head = _summed(u, points[:m], terms[:m], lo + cand, step)
                kept += _select(lo + cand, head, np.arange(len(cand)), tail, cand, nu)
            else:  # many: half a slab of rows at a time, the head lists again in the matrix
                half = (s + 1) // 2
                for j in range(0, len(cand), half):
                    if j:  # the tail lists again, for the next rows
                        tail = _slab_transform(fast, mat, at[m:], weights[m:])
                    rows = cand[j : j + half]
                    tail = tail[rows]  # copied out before the head lists refill the matrix
                    mat = _slab_transform(fast, mat, at[:m], weights[:m])
                    kept += _select(lo + rows, mat, rows, tail, np.arange(len(rows)), nu)
        if (held := sum(len(f) for f, _ in kept)) > cap:
            raise OccupancyError(f"kept {held} entries, more than C_S*k = {cap}")
    return ReduceOutput(*map(np.concatenate, zip(*kept)))


def _check_y(supp: np.ndarray, values: np.ndarray, cap) -> None:
    """Raise OccupancyError when y holds more than cap entries or a non-finite value."""
    if len(supp) > cap or not np.isfinite(values).all():
        raise OccupancyError(f"y holds {len(supp)} entries, C_S*k = {cap},"
                             f" max |y| = {abs(values).max()}")


def reduce_h_rounds(signal: AuditedSignal, supp, values, bundle: SampleBundle, nu: float, cap):
    """Run one round per bundle row with geometrically shrinking radius, merging each into y.

    Round i uses bundle row i with radius 2^(1-i) * nu, so on success the residual
    ends below 2^(1-H) * nu for H rows. Each round that keeps entries merges them into
    y = (supp, values) by a sorted union that adds shared entries and drops zeros; a
    round that keeps none leaves the very arrays in place. A y of more than cap entries,
    or with a non-finite one, raises OccupancyError, as a round does: the caller's y is
    checked at round 1, and after it only a merge changes y.
    """
    for i, row in enumerate(bundle.flats, start=1):
        try:
            if i == 1:
                _check_y(supp, values, cap)
            out = linfinity_reduce(signal, supp, values, row, (2.0 ** (1 - i)) * nu, cap)
            if len(out.flats):
                supp, at = np.unique(np.concatenate((supp, out.flats)), return_inverse=True)
                merged = np.zeros(len(supp), dtype=np.complex128)
                np.add.at(merged, at, np.concatenate((values, out.z)))  # y's entry, then z's
                supp, values = supp[merged != 0], merged[merged != 0]
                _check_y(supp, values, cap)
        except OccupancyError as exc:
            raise OccupancyError(f"round {i}: {exc}") from None
    return supp, values
