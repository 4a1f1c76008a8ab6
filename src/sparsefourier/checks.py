"""Seeded Monte Carlo checks of the three probability facts the guarantee rests on.

The measurement-coefficient moments, the estimator's leakage tail bound at
10/sqrt(B), and the shifted-box acceptance rate (1 - r_b/r_s)^2. Each
check maps a seed to (ok, detail); `sfft verify` runs every entry of
CHECKS and acceptance tests A2-A4 run the same functions at fixed seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .dft import Universe, as_coords, flat_index, inverse, unflat_index
from .grids import GridSpec, box_projects_uniquely
from .sampling import coefficient

__all__ = [
    "noise_bound_check",
    "coefficient_moments",
    "estimator_tail_bound",
    "shift_acceptance",
    "CHECKS",
]


def noise_bound_check(
    u: Universe,
    xhat: np.ndarray,
    f,
    v_set,
    b: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical exceedance rate of the estimator's leakage tail bound.

    Over `trials` fresh sample lists of size `b`, measures how often

        | sum_{f' in V} c_{f-f'} xhat_{f'} |  >  (10/sqrt(B)) * ||xhat_V||_2

    The second-moment bound puts the true rate at most 1/100.
    """
    f_flat = int(flat_index(u, as_coords(u, f)))
    v_idx = np.asarray(list(v_set), dtype=np.int64)
    if f_flat in set(v_idx.tolist()):
        raise ValueError("f must not belong to V")
    if trials < 1 or b < 1:
        raise ValueError("need trials >= 1 and b >= 1")
    if len(v_idx) == 0:
        return 0.0

    mask = np.zeros(u.n, dtype=np.complex128)
    mask[v_idx] = np.asarray(xhat)[v_idx]
    threshold = 10.0 / np.sqrt(b) * np.linalg.norm(mask)

    # g_t = sum_{f' in V} xhat_{f'} omega^(-f'.t), dense via one inverse;
    # phase_f[t] = omega^(f.t); then each trial is a B-point average.
    g = inverse(u, mask) * np.sqrt(u.n)
    tcoords = unflat_index(u, np.arange(u.n))
    phase_f = np.exp(2j * np.pi * ((tcoords @ as_coords(u, f)) % u.p) / u.p)

    idx = rng.integers(0, u.n, size=(trials, b))
    sums = (phase_f[idx] * g[idx]).mean(axis=1)
    return float(np.mean(np.abs(sums) > threshold))


def coefficient_moments(seed: int):
    """c_0 = 1 exactly; E|c_f|^2 = 1/B and decorrelation across f, within 3 SE."""
    u = Universe(p=16, d=2)
    b, draws = 64, 10_000
    rng = np.random.default_rng(seed)
    points = unflat_index(u, np.arange(u.n))[rng.integers(0, u.n, size=(draws, b))]
    c0_err = float(np.max(np.abs(coefficient(u, 0, points) - 1.0)))
    cs = np.array([coefficient(u, f, points) for f in (1, 7, 16, 100, 255)])
    i, j = np.triu_indices(len(cs), 1)
    # E|c_f|^2 = 1/B for each f and E[c_f conj(c_g)] = 0 for each pair f != g
    terms = np.concatenate([np.abs(cs) ** 2, cs[i] * np.conj(cs[j])])
    gaps = np.abs(terms.mean(axis=1) - np.r_[np.full(len(cs), 1 / b), np.zeros(len(i))])
    limits = 3 * np.sqrt(terms.real.var(axis=1) + terms.imag.var(axis=1)) / math.sqrt(draws)
    worst = np.argmax(gaps - limits)
    ok = bool(c0_err <= 1e-12 and np.all(gaps <= limits))
    return ok, (
        f"|c_0 - 1| {c0_err:.1e} (tol 1e-12); worst gap {gaps[worst]:.2e}"
        f" vs 3*SE {limits[worst]:.2e} (B={b}, {draws} draws)"
    )


def estimator_tail_bound(seed: int):
    """Estimator leakage exceeds its tail bound in at most 2% of draws."""
    u = Universe(p=8, d=2)
    rng = np.random.default_rng(seed)
    support = [1, 9, 20, 33, 41, 50, 57, 63]
    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[support] = np.exp(2j * np.pi * rng.random(len(support)))
    rate = noise_bound_check(u, xhat, f=5, v_set=support, b=32, trials=10_000, rng=rng)
    return rate <= 0.02, f"exceedance rate {rate:.4f} vs limit 0.02 (n={u.n}, B=32, 10000 draws)"


def shift_acceptance(seed: int):
    """Shifted worst-case box rounds uniquely at rate >= (1-r_b/r_s)^2."""
    ratios, r_s, draws = np.array([0.5, 0.1, 0.01]), 0.5, 10_000
    shifts = np.random.default_rng(seed).uniform(-r_s, r_s, size=(len(ratios), draws, 2))
    center = 0.5 + 0.5j  # on a decision cross of the unit grid: the extremal center
    unique = box_projects_uniquely(
        center + (shifts[..., 0] + 1j * shifts[..., 1]), r_s * ratios[:, None], GridSpec(1.0)
    )
    rates = unique.mean(axis=1)
    bounds = (1 - ratios) ** 2
    floors = bounds - 3 * np.sqrt(bounds * (1 - bounds) / draws)
    details = "; ".join(
        f"ratio {r}: rate {rate:.4f} >= {lo:.4f}" for r, rate, lo in zip(ratios, rates, floors)
    )
    return bool(np.all(rates >= floors)), details


CHECKS = {
    "coefficient-moments": coefficient_moments,
    "estimator-tail-bound": estimator_tail_bound,
    "shift-acceptance": shift_acceptance,
}
