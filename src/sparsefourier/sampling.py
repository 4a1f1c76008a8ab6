"""Uniform time-domain sampling, the audited signal, and the estimator's leakage coefficients.

A sample list T is an ordered list of B i.i.d. uniform points of [p]^d,
duplicates kept, stored as B flat indices; a run's H x R grid of lists is
one (H, R, B) integer array, so its size does not depend on d. The
estimator built from a list,

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

from dataclasses import dataclass

import numpy as np

from .dft import Universe, characters, flat_index, unflat_index

__all__ = [
    "SampleBundle",
    "AuditedSignal",
    "AuditViolation",
    "stream_rng",
    "coefficient",
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
class SampleBundle:
    """H x R grid of independent sample lists of B points: list (i, j) is flats[i, j]."""

    universe: Universe
    flats: np.ndarray  # (H, R, B) int64 array of flat time indices

    @classmethod
    def draw(cls, u: Universe, h: int, r: int, b: int, entropy) -> "SampleBundle":
        """Draw i.i.d. uniform points; list (i, j) is the flat_index of the (B, d) coordinates
        drawn from stream (entropy, DOMAIN_SAMPLES, i, j)."""
        if h < 1 or r < 1 or b < 1:
            raise ValueError(f"need h, r, b >= 1, got h={h}, r={r}, b={b}")
        flats = np.empty((h, r, b), dtype=np.int64)
        for i in range(h):  # one row of R lists' coordinates at a time, never the whole bundle
            rngs = (stream_rng(entropy, DOMAIN_SAMPLES, i, j) for j in range(r))
            flats[i] = flat_index(u, np.stack([g.integers(0, u.p, size=(b, u.d)) for g in rngs]))
        return cls(u, flats)


class AuditViolation(RuntimeError):
    """A time coordinate outside the declared sample set was read."""


class AuditedSignal:
    """Signal accessor that only serves declared (granted) time points.

    Recovery declares its sample bundle up front via grant(); any read at an
    undeclared or out-of-range flat index raises AuditViolation.
    granted_total and all_granted_read() make the sample-budget claim
    checkable after a run. Reads are plain array lookups guarded by the
    interpreter lock; external synchronization is only needed if grant()
    races with reads.
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
        if np.any((idx < 0) | (idx >= self.universe.n)):
            raise ValueError(f"granted flat index out of range [0, {self.universe.n})")
        self._allowed[idx] = True
        self._granted_total += len(idx)

    def grant_bundle(self, bundle: SampleBundle) -> None:
        if bundle.universe != self.universe:  # in-range points of a smaller p are not uniform
            raise ValueError(f"bundle universe {bundle.universe} != signal's {self.universe}")
        self.grant(bundle.flats.ravel())

    def read(self, flats: np.ndarray) -> np.ndarray:
        idx = np.asarray(flats, dtype=np.int64)
        inside = idx.view(np.uint64) < self.universe.n  # a negative index wraps past the end
        if not (inside.all() and self._allowed[idx].all()):
            bad = ~inside | ~self._allowed[np.where(inside, idx, 0)]  # out of range is undeclared
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

    def all_granted_read(self) -> bool:
        """True when every declared point was actually consumed."""
        return bool(np.array_equal(self._touched, self._allowed))


def coefficient(u: Universe, f: int, points) -> complex | np.ndarray:
    """Measurement coefficient c^[T]_f = (1/|T|) sum_t omega^(f.t) at the flat frequency f.

    The defining property (and the reason for the exact formula) is the
    decomposition xhat^[T]_f = sum_{f'} c^[T]_{f-f'} xhat_{f'}: the subset
    estimator reads the true spectrum through this leakage kernel. points
    is a (..., B, d) array of lists; the result has its leading shape.
    """
    c = characters(u, points, unflat_index(u, int(f))).mean(axis=-1)
    return complex(c) if c.ndim == 0 else c
