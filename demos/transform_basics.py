#!/usr/bin/env python3
"""Tour of the transform layer: universes, indexing, round trips.

The grid [p]^d is always addressed two ways: as coordinate vectors and
as flat indices with coordinate 0 fastest. Everything downstream
(sampling, reduction, recovery) moves freely between the two, so this
demo exercises both directions and checks the normalization convention
by hand on a single tone.
"""

import numpy as np

from sparsefourier.dft import (
    Universe,
    densify,
    flat_index,
    forward,
    inverse,
    sparse_eval_time,
    unflat_index,
)

rng = np.random.default_rng(7)

u = Universe(p=5, d=3)
print(f"universe: p={u.p}, d={u.d}, n={u.n}, shape={u.shape}")

# indexing round trip
coords = np.array([3, 1, 4])
flat = flat_index(u, coords)
print(f"coords {coords} -> flat {flat} -> coords {unflat_index(u, flat)}")

# a single tone at frequency f has |x_t| = 1/sqrt(n) everywhere
f = int(flat)
xhat = np.zeros(u.n, dtype=np.complex128)
xhat[f] = 1.0
x = inverse(u, xhat)
print(f"single tone: max |x_t| = {np.abs(x).max():.6f}, 1/sqrt(n) = {u.n ** -0.5:.6f}")

# transform round trip on noise
x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
err = np.max(np.abs(inverse(u, forward(u, x)) - x))
print(f"round-trip error on noise: {err:.3e}")

# sparse evaluation agrees with the dense inverse on any subset of times
y = {f: 2.0 - 1.0j, 0: 0.5 + 0.0j}
points = rng.integers(0, u.p, size=(6, u.d))
w = sparse_eval_time(u, points, unflat_index(u, list(y)), np.array(list(y.values())))
x_dense = inverse(u, densify(u, y))
w_ref = x_dense[flat_index(u, points)]
print(f"sparse eval vs dense inverse at 6 points: {np.max(np.abs(w - w_ref)):.3e}")

# Parseval: energy is preserved in both directions
x = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
print(f"energy ratio ||xhat||/||x|| = {np.linalg.norm(forward(u, x)) / np.linalg.norm(x):.12f}")
