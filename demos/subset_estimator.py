#!/usr/bin/env python3
"""How a random B-point average reads the spectrum.

The estimator xhat^[T]_f built from a uniform sample list T decomposes
as sum over f' of c_{f-f'} xhat_{f'}: the true coefficient comes through
with weight c_0 = 1 and everything else leaks in with coefficients of
second moment 1/B. This script measures both facts and then watches the
tail bound that the reduction step relies on.
"""

import numpy as np

from sparsefourier.checks import noise_bound_check
from sparsefourier.dft import Universe, characters, flat_index, forward, inverse, unflat_index
from sparsefourier.sampling import coefficient

rng = np.random.default_rng(23)
u = Universe(p=16, d=2)
B = 64

# second moment of the leakage coefficients over a few thousand lists,
# one (lists, B, d) array: coefficient averages over the B points
lists = rng.integers(0, u.p, size=(3000, B, u.d))
assert np.all(np.abs(coefficient(u, 0, lists) - 1.0) < 1e-12)
print(f"E|c_f|^2 should be 1/B = {1 / B:.5f}")
for f in [1, 17, 100]:
    sq = np.abs(coefficient(u, f, lists)) ** 2
    print(f"  f={f:4d}: measured {np.mean(sq):.5f} +- {np.std(sq) / np.sqrt(len(sq)):.5f}")

# the estimator is unbiased: average it over many lists at a planted tone
xhat = np.zeros(u.n, dtype=np.complex128)
xhat[37] = 1.5 - 0.5j
xhat[200] = -0.8 + 0.2j
x = inverse(u, xhat)
# xhat^[T]_37 = (sqrt(n)/|T|) sum_t omega^(37.t) x_t
estimates = []
for _ in range(2000):
    t = rng.integers(0, u.p, size=(B, u.d))
    est = characters(u, t, unflat_index(u, 37)) @ x[flat_index(u, t)]
    estimates.append(complex(est * np.sqrt(u.n) / B))
print(f"\ntarget xhat_37 = {xhat[37]}, mean of 2000 estimates = {np.mean(estimates):.4f}")
others = np.linalg.norm([v for i, v in enumerate(xhat) if i != 37])
print(f"per-estimate std = {np.std(estimates):.4f} (leakage scale: other tones / sqrt(B) = "
      f"{others / np.sqrt(B):.4f})")

# tail bound: the leakage exceeds 10/sqrt(B) * ||xhat_V||_2 rarely
support = set(int(i) for i in np.flatnonzero(xhat))
f_probe = 5
rate = noise_bound_check(u, forward(u, x), f_probe, support, b=32, trials=5000, rng=rng)
print(f"\nleakage tail exceedance at B=32: {rate:.4f} (second-moment bound: 0.01)")
