#!/usr/bin/env python3
"""Watch the reduction rounds halve the residual radius.

Starting from y = 0 and a radius nu with sup|xhat - y| <= 2*nu, each
round estimates the residual spectrum on fresh sample lists, takes
coordinatewise lower medians across the lists, keeps entries at least
nu/2 in modulus, and folds them into y. Round i runs at radius
2^(1-i)*nu, so H rounds should leave sup|xhat - y| <= 2^(1-H)*nu.
"""

import numpy as np

from sparsefourier.dft import Universe
from sparsefourier.reduction import linfinity_reduce
from sparsefourier.sampling import AuditedSignal, SampleBundle
from sparsefourier.signals import SignalSpec, gen_signal

u = Universe(p=16, d=3)
spec = SignalSpec(p=16, d=3, k=3, seed=5)
x, xhat = gen_signal(spec)

H, R, B = 8, 24, 48
bundle = SampleBundle.draw(u, H, R, B, entropy=5)
signal = AuditedSignal(u, x)
signal.grant_bundle(bundle)

nu = float(np.max(np.abs(xhat))) / 2.0
print(f"k={spec.k} tones on n={u.n}, starting radius nu = {nu:.4f}")
print(f"bundle: (H, R, B, d) = {bundle.points.shape} array, {signal.granted_total} samples\n")

y = np.zeros(u.n, dtype=np.complex128)  # the spectrum so far, zero off its support
for i in range(1, H + 1):
    radius = 2.0 ** (1 - i) * nu
    y += linfinity_reduce(signal, y, bundle.points[i - 1], radius).z
    resid = float(np.max(np.abs(xhat - y)))
    print(f"round {i}: radius {radius:.5f}  support {np.count_nonzero(y):2d}  resid {resid:.6f}"
          f"  (target <= {radius:.5f})")

print(f"\nfinal residual {resid:.2e} vs 2^(1-H)*nu = {2.0 ** (1 - H) * nu:.2e}")
print(f"audit: read all {signal.granted_total} declared points:"
      f" {signal.all_granted_read()}")
assert np.array_equal(np.flatnonzero(y), np.flatnonzero(xhat))
print("support matches the planted tones exactly")
