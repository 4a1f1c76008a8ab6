#!/usr/bin/env python3
"""Grid snapping, ambiguous boxes, and the random shift that fixes them.

Projection rounds a complex value to the nearest lattice point. It is
only trustworthy when the whole uncertainty box around the value rounds
to one place; a box that straddles a rounding boundary might snap an
estimate away from where the true coefficient would go. A small random
shift moves all boxes off the boundaries at once, with failure odds
controlled by the box-to-shift radius ratio.
"""

import numpy as np

from sparsefourier.grids import (
    GridSpec,
    ShiftParams,
    box_projects_uniquely,
    draw_good_shift,
    project,
)

rng = np.random.default_rng(13)
grid = GridSpec(side=1.0)

print("snapping examples on the unit lattice:")
for c in (0.3 + 1.8j, -1.6 + 0.2j, 0.5 + 0.5j, 2.49 - 0.51j):
    print(f"  {c!r:14} -> {project(c, grid)!r}")

print("\nboxes near a boundary:")
for center, radius in ((0.2 + 0.2j, 0.25), (0.2 + 0.2j, 0.35), (0.5 + 0.0j, 0.01)):
    unique = box_projects_uniquely(center, radius, grid)
    print(f"  box({center}, r={radius}): unique -> {unique}")

# acceptance probability as the box shrinks relative to the shift square
print("\nshift acceptance vs box/shift ratio (5000 draws each):")
r_s = 1.0
ratios = np.array([0.5, 0.1, 0.01])
shifts = rng.uniform(-r_s, r_s, size=(len(ratios), 5000, 2))
shifted = (0.5 + 0.5j) + (shifts[..., 0] + 1j * shifts[..., 1])
# one array call: row i holds the corner box shifted 5000 ways, radius ratios[i] * r_s
rates = box_projects_uniquely(shifted, ratios[:, None] * r_s, GridSpec(2 * r_s))
for ratio, rate in zip(ratios, rates.mean(axis=1)):
    print(f"  ratio {ratio:4}: measured {rate:.4f}, predicted (1-ratio)^2 = {(1 - ratio) ** 2:.4f}")

# the rejection loop rarely needs more than one try at realistic ratios
params = ShiftParams(r_s=0.5, r_b=0.01, r_g=1.0)
centers = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(12)]
attempts = []
for trial in range(200):
    s, a = draw_good_shift(centers, params, np.random.default_rng(trial), max_attempts=50)
    attempts.append(a)
    assert box_projects_uniquely(np.array(centers) + s, params.r_b, GridSpec(params.r_g)).all()
print(f"\n12 boxes, 200 good-shift draws: mean attempts {np.mean(attempts):.3f},"
      f" max {max(attempts)}")
