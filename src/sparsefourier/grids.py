"""Complex-plane boxes, square grids, projection, and good random shifts.

The recovery loop rounds noisy coefficient estimates to a square lattice.
Rounding is safe only when the whole uncertainty box around an estimate
lands in a single rounding cell, so this module provides the projection,
the O(1) predicate for "the box rounds unambiguously", and the rejection
sampler that keeps drawing a small complex shift until every box of
interest rounds unambiguously. For a single box the acceptance chance of
one draw is at least (1 - r_b/r_s)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ShiftParams",
    "GoodShiftError",
    "project",
    "box_projects_uniquely",
    "draw_good_shift",
]


@dataclass(frozen=True)
class GridSpec:
    """Square lattice { (m + m' i) * side : m, m' integers }."""

    side: float

    def __post_init__(self):
        if not 0 < self.side < np.inf:
            raise ValueError(f"grid side must be positive and finite, got {self.side}")


@dataclass(frozen=True)
class ShiftParams:
    """Radii for the random-shift argument: r_g/2 >= r_s >= r_b > 0, and r_b < r_g/2
    since a box of radius r_g/2 spans a whole rounding cell and no shift can help it."""

    r_s: float
    r_b: float
    r_g: float

    def __post_init__(self):
        if not (self.r_g / 2 >= self.r_s >= self.r_b > 0 and self.r_b < self.r_g / 2):
            raise ValueError(
                f"need r_g/2 >= r_s >= r_b > 0 and r_b < r_g/2,"
                f" got r_g={self.r_g}, r_s={self.r_s}, r_b={self.r_b}"
            )


def _snap(v: np.ndarray, side: float) -> np.ndarray:
    """Round v/side to the nearest integer, half-integers toward zero.

    The lattice tie rule (nearest point, ties by minimum modulus, then
    lexicographic) separates over the two coordinates, and within one
    coordinate |m| = |m+1| has no integer solution, so rounding the tied
    half-integer toward zero realizes the whole rule and the lexicographic
    fallback can never fire.
    """
    q = v / side
    lower = np.floor(q)
    frac = q - lower
    upper_wins = frac > 0.5
    tie = frac == 0.5
    m = np.where(upper_wins, lower + 1, lower)
    m = np.where(tie & (lower < 0), lower + 1, m)
    return m * side


def project(c, grid: GridSpec):
    """Nearest grid point to c; deterministic on decision boundaries.

    Accepts a complex scalar or array, returns the same shape. The result
    is always within r_g/sqrt(2) of c (half a cell diagonal).
    """
    arr = np.asarray(c, dtype=np.complex128)
    out = _snap(arr.real, grid.side) + 1j * _snap(arr.imag, grid.side)
    if arr.ndim == 0:
        return complex(out)
    return out


def _crosses_line(v, r, side: float):
    # smallest decision line (m + 1/2) * side at or above v - r, compared in
    # units of the side so no products with large m are formed
    return np.ceil((v - r) / side - 0.5) + 0.5 <= (v + r) / side


def box_projects_uniquely(center, radius, grid: GridSpec):
    """True iff every point of the square box B(center, radius) projects to one grid point.

    center is a complex scalar or array and radius broadcasts against it;
    the result is a bool or a bool array of the same shape. Equivalent O(1)
    test per box: neither the Re nor the Im interval [c - r, c + r]
    contains a half-cell decision line (m + 1/2) * side. An endpoint lying
    exactly on a line counts as crossing, so the predicate is robust to
    the tie-break direction. A non-finite center or negative radius raises
    ValueError.
    """
    r = np.asarray(radius, dtype=np.float64)
    if not np.all(r >= 0):
        raise ValueError(f"box radius must be nonnegative, got {radius}")
    c = np.asarray(center, dtype=np.complex128)
    if not np.all(np.isfinite(c)):
        raise ValueError("box centers must be finite")
    unique = ~(_crosses_line(c.real, r, grid.side) | _crosses_line(c.imag, r, grid.side))
    return unique if unique.ndim else bool(unique)


class GoodShiftError(RuntimeError):
    """No accepted shift within the attempt budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


def draw_good_shift(
    centers,
    params: ShiftParams,
    rng: np.random.Generator,
    max_attempts: int,
) -> tuple[complex, int]:
    """Rejection-sample a shift making every shifted box round uniquely.

    Draws s uniform in the square of half-side r_s (two independent
    uniforms) until box_projects_uniquely holds for B(c + s, r_b) at every
    center, testing all centers in one array call per attempt. Returns
    (shift, attempts). Callers size max_attempts as 10 * log2(n); with that
    budget a failure is overwhelmingly a parameter problem, not bad luck.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    centers = np.asarray(centers, dtype=np.complex128)
    grid = GridSpec(params.r_g)
    for attempt in range(1, max_attempts + 1):
        s = complex(rng.uniform(-params.r_s, params.r_s), rng.uniform(-params.r_s, params.r_s))
        if box_projects_uniquely(centers + s, params.r_b, grid).all():
            return s, attempt
    raise GoodShiftError(
        f"no good shift in {max_attempts} attempts for {len(centers)} boxes"
        f" (r_b={params.r_b}, r_s={params.r_s}, r_g={params.r_g});"
        " each box alone accepts most shifts, so suspect bad luck or centers"
        " whose exclusion zones jointly cover the shift square",
        attempts=max_attempts,
    )
