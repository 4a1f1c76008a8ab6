"""Uniform time-domain sampling and the subset-sample Fourier estimator.

A sample list T is an ordered list of B i.i.d. uniform points of [p]^d,
duplicates kept. The estimator built from it,

    xhat^[T]_f = (sqrt(n)/|T|) * sum_{t in T} omega^(f.t) * x_t,

decomposes exactly as sum_{f'} c^[T]_{f-f'} * xhat_{f'} where

    c^[T]_f = (1/|T|) * sum_{t in T} omega^(f.t)

is the measurement coefficient: c_0 = 1 always, and for f != 0 the
coefficient is a mean of B random unit phasors, so E|c_f|^2 = 1/B and
distinct coefficients are uncorrelated. Those three moments are what every
downstream error bound rests on; the checks module measures them by Monte
Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dft import Universe, flat_index, forward, unflat_index

__all__ = [
    "SampleList",
    "SampleBundle",
    "AuditedSignal",
    "AuditViolation",
    "stream_rng",
    "draw_sample_list",
    "coefficient",
    "subset_transform_single",
    "subset_transform_dense",
]


def stream_rng(entropy, *path) -> np.random.Generator:
    """Deterministic RNG stream addressed by (entropy, path).

    Streams with distinct paths are independent regardless of creation
    order, so sampling is reproducible under any execution schedule.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=tuple(path)))


# spawn-key domain tags, one per kind of randomness in the package
DOMAIN_SAMPLES = 0
DOMAIN_SHIFT = 1
DOMAIN_SIGNAL = 2


@dataclass(eq=False)
class SampleList:
    """Ordered list of time points (with multiplicity) in one universe."""

    universe: Universe
    points: np.ndarray  # (B, d) integer array
    flats: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.universe.d:
            raise ValueError(f"points must be (B, {self.universe.d}), got {pts.shape}")
        if len(pts) == 0:
            raise ValueError("sample list must be non-empty")
        self.points = pts
        self.flats = flat_index(self.universe, pts)  # validates the range too

    def __len__(self) -> int:
        return len(self.points)


def draw_sample_list(u: Universe, b: int, rng: np.random.Generator) -> SampleList:
    """Draw B points with every coordinate i.i.d. uniform in [0, p)."""
    if b < 1:
        raise ValueError(f"need at least one sample point, got b={b}")
    return SampleList(u, rng.integers(0, u.p, size=(b, u.d), dtype=np.int64))


@dataclass(eq=False)
class SampleBundle:
    """H x R grid of independent sample lists, all of size B."""

    universe: Universe
    lists: tuple  # tuple of H tuples of R SampleLists

    @classmethod
    def draw(cls, u: Universe, h: int, r: int, b: int, entropy) -> "SampleBundle":
        """Draw the full bundle; list (i, j) comes from stream (entropy, i, j)."""
        if h < 1 or r < 1:
            raise ValueError(f"need h >= 1 and r >= 1, got h={h}, r={r}")
        rows = tuple(
            tuple(draw_sample_list(u, b, stream_rng(entropy, DOMAIN_SAMPLES, i, j)) for j in range(r))
            for i in range(h)
        )
        return cls(u, rows)

    @property
    def h(self) -> int:
        return len(self.lists)

    @property
    def r(self) -> int:
        return len(self.lists[0])

    @property
    def b(self) -> int:
        return len(self.lists[0][0])

    def total_points(self) -> int:
        """Declared sample budget: points counted with multiplicity."""
        return sum(len(t) for row in self.lists for t in row)

    def all_flats(self) -> np.ndarray:
        return np.concatenate([t.flats for row in self.lists for t in row])


class AuditViolation(RuntimeError):
    """A time coordinate outside the declared sample set was read."""


class AuditedSignal:
    """Signal accessor that only serves declared (granted) time points.

    Recovery declares its sample bundle up front via grant(); any read at an
    undeclared flat index raises AuditViolation. The distinct-read counter
    makes the sample-budget claim checkable after a run. Reads are plain
    array lookups guarded by the interpreter lock; external synchronization
    is only needed if grant() races with reads.
    """

    def __init__(self, u: Universe, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (u.n,):
            raise ValueError(f"expected flat array of length {u.n}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            bad = np.flatnonzero(~np.isfinite(values))[:8].tolist()
            raise ValueError(f"samples must be finite, got NaN/inf at flat indices {bad}")
        self.universe = u
        self._values = values.copy()
        self._allowed = np.zeros(u.n, dtype=bool)
        self._touched = np.zeros(u.n, dtype=bool)
        self._granted_total = 0

    def grant(self, flats: np.ndarray) -> None:
        """Declare flat time indices (with multiplicity) as readable."""
        idx = np.asarray(flats, dtype=np.int64)
        self._allowed[idx] = True  # IndexError on out-of-range is fine
        self._granted_total += len(idx)

    def grant_bundle(self, bundle: SampleBundle) -> None:
        self.grant(bundle.all_flats())

    def read(self, flats: np.ndarray) -> np.ndarray:
        idx = np.asarray(flats, dtype=np.int64)
        bad = ~self._allowed[idx]
        if bad.any():
            offenders = np.unique(idx[bad])[:8]
            raise AuditViolation(
                f"read of undeclared time indices {offenders.tolist()}"
                f" ({int(bad.sum())} of {idx.size} reads outside the granted set)"
            )
        self._touched[idx] = True
        return self._values[idx]

    @property
    def granted_total(self) -> int:
        return self._granted_total

    @property
    def granted_distinct(self) -> int:
        return int(self._allowed.sum())

    @property
    def distinct_reads(self) -> int:
        return int(self._touched.sum())

    def all_granted_read(self) -> bool:
        """True when every declared point was actually consumed."""
        return bool(np.array_equal(self._touched, self._allowed))


def _as_coords(u: Universe, f) -> np.ndarray:
    if np.isscalar(f):
        return unflat_index(u, int(f))
    fv = np.asarray(f, dtype=np.int64)
    if fv.shape != (u.d,):
        raise ValueError(f"frequency must be a flat index or {u.d} coordinates")
    if np.any(fv < 0) or np.any(fv >= u.p):
        raise ValueError(f"frequency coordinate out of range [0, {u.p})")
    return fv


def coefficient(f, t: SampleList) -> complex:
    """Measurement coefficient c^[T]_f = (1/|T|) sum_t omega^(f.t).

    The defining property (and the reason for the exact formula) is the
    decomposition xhat^[T]_f = sum_{f'} c^[T]_{f-f'} xhat_{f'}: the subset
    estimator reads the true spectrum through this leakage kernel.
    """
    u = t.universe
    fv = _as_coords(u, f)
    phase = (t.points @ fv) % u.p
    return complex(np.exp(2j * np.pi * phase / u.p).mean())


def subset_transform_single(samples, t: SampleList, f) -> complex:
    """Estimate one spectrum entry from samples taken at the points of T."""
    vals = np.asarray(samples, dtype=np.complex128)
    if vals.shape != (len(t),):
        raise ValueError(f"got {vals.shape[0] if vals.ndim else 0} samples for {len(t)} points")
    u = t.universe
    fv = _as_coords(u, f)
    phase = (t.points @ fv) % u.p
    est = np.exp(2j * np.pi * phase / u.p) @ vals
    return complex(est * np.sqrt(u.n) / len(t))


def subset_transform_dense(samples, lists) -> np.ndarray:
    """Estimate all n spectrum entries from each of R sample lists at once.

    Row r of the (R, n) result comes from samples[r] taken at lists[r]: the
    samples are scattered (summing duplicates) with the scale n/|T_r| folded
    in, then one batched forward transform matches the per-frequency
    estimator entrywise on every row.
    """
    lists = tuple(lists)
    if len(samples) != len(lists) or not lists:
        raise ValueError(f"need one sample array per list, got {len(samples)} for {len(lists)}")
    u = lists[0].universe
    for s, t in zip(samples, lists):
        if t.universe != u:
            raise ValueError(f"sample list universe {t.universe} != {u}")
        if np.shape(s) != (len(t),):
            raise ValueError(f"got samples of shape {np.shape(s)} for {len(t)} points")
    mat = np.zeros((len(lists), u.n), dtype=np.complex128)
    rows = np.concatenate([np.full(len(t), i) for i, t in enumerate(lists)])
    cols = np.concatenate([t.flats for t in lists])
    vals = np.concatenate(
        [np.asarray(s, dtype=np.complex128) * (u.n / len(t)) for s, t in zip(samples, lists)]
    )
    np.add.at(mat, (rows, cols), vals)
    return forward(u, mat)
