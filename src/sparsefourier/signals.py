"""Synthetic test signals, the exact spectrum oracle, and trial metrics.

Signals are planted in the frequency domain: k unit-magnitude tones at
distinct uniform frequencies with uniform random phases, plus optional
complex Gaussian noise on every frequency coordinate. Ground truth is then
exact by construction, and the noise level mu = (1/sqrt(k)) * l2(tail) is
directly controllable through sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dft import Universe, densify, forward, inverse
from .recovery import DESK_PROFILE, RecoveryResult, ceil_log2, require_memory
from .sampling import DOMAIN_SIGNAL, stream_rng

__all__ = [
    "SignalSpec",
    "Metrics",
    "gen_signal",
    "oracle_top_k",
    "noise_floor_value",
    "compute_metrics",
]


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for one synthetic instance.

    k tones of magnitude 1 with uniform phases. sigma is the
    per-coordinate standard deviation of frequency-domain complex Gaussian
    noise (E|eta|^2 = sigma^2), applied to all n coordinates.
    """

    p: int
    d: int
    k: int
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        u = self.universe  # validates p, d
        if not (1 <= self.k <= u.n):
            raise ValueError(f"need 1 <= k <= {u.n}, got k={self.k}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")

    @property
    def universe(self) -> Universe:
        return Universe(p=self.p, d=self.d)


def gen_signal(spec: SignalSpec) -> tuple:
    """Generate (x, xhat_truth), deterministic per seed."""
    u = spec.universe
    # spectrum, noise draw and transform: at most 64 bytes per point at once
    require_memory(64 * u.n, f"synthesizing a signal on n = {u.n} points would")
    rng = stream_rng(spec.seed, DOMAIN_SIGNAL)
    support = rng.choice(u.n, size=spec.k, replace=False)
    phases = np.exp(2j * np.pi * rng.random(spec.k))

    xhat = np.zeros(u.n, dtype=np.complex128)
    xhat[support] = phases
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if spec.sigma > 0:
            noise = rng.standard_normal(u.n) + 1j * rng.standard_normal(u.n)
            xhat += spec.sigma / math.sqrt(2) * noise
        x = inverse(u, xhat)
    if not (np.isfinite(xhat).all() and np.isfinite(x).all()):
        raise ValueError(f"sigma={spec.sigma} overflows the generated signal")
    return x, xhat


def oracle_top_k(
    u: Universe, x: np.ndarray, k: int, mu_min_scale: float = DESK_PROFILE.mu_min
) -> tuple:
    """Exact top-k reference: (best k-sparse approx, mu, R*).

    Runs a full transform, keeps the k largest-magnitude coordinates (ties
    broken toward the lower flat index via a stable sort), and reports
    mu = (1/sqrt(k)) * l2 norm of the rest. R* is the smallest power of two
    at or above sup|xhat| / max(mu, mu_min_scale * l2(x)), the floor keeping
    it finite for exactly sparse signals; degenerate all-zero input gets
    the minimal R* = 2.
    """
    if not (1 <= k <= u.n):
        raise ValueError(f"need 1 <= k <= {u.n}, got k={k}")
    xhat = forward(u, x)
    order = np.argsort(-np.abs(xhat), kind="stable")
    top = order[:k]
    approx = {int(f): complex(xhat[f]) for f in top}
    tail = xhat.copy()
    tail[top] = 0
    mu = float(np.linalg.norm(tail) / math.sqrt(k))

    linf = float(np.max(np.abs(xhat)))
    floor = noise_floor_value(x, mu, mu_min_scale)
    rstar = 2.0 if (linf == 0 or floor == 0) else max(2.0, 2.0 ** ceil_log2(linf / floor))
    return approx, mu, rstar


def noise_floor_value(x: np.ndarray, mu: float, mu_min_scale: float = DESK_PROFILE.mu_min) -> float:
    """Effective noise level: mu floored relative to the signal energy.

    Exactly sparse signals have mu = 0; the guarantee is then checked
    against a floor far above double-precision transform error yet far
    below any real coefficient.
    """
    return max(mu, mu_min_scale * float(np.linalg.norm(x)))


@dataclass(frozen=True)
class Metrics:
    """Per-trial outcome; every field lands in the report."""

    seed: int
    linf_error: float
    noise_floor: float
    guarantee_ok: bool
    l2l2_after_topk: Optional[float]
    support_precision: float
    support_recall: float
    samples_used: int
    wall_ms: float
    attempts_total: int
    attempts_max: int


def compute_metrics(
    u: Universe,
    xhat_truth: np.ndarray,
    k: int,
    result: RecoveryResult,
    seed: int,
    wall_ms: float,
    mu: float,
    floor: float,
) -> Metrics:
    """Score a finished run against the exact spectrum."""
    resid = xhat_truth - densify(u, result.y)
    linf_error = float(np.max(np.abs(resid)))
    guarantee_ok = bool(linf_error <= floor)

    tail_l2 = mu * math.sqrt(k)
    l2l2 = float(np.linalg.norm(resid) / tail_l2) if tail_l2 > 0 else None

    order = np.argsort(-np.abs(xhat_truth), kind="stable")
    true_top = set(int(f) for f in order[:k])
    got = set(result.y)
    hit = len(got & true_top)
    precision = hit / len(got) if got else 1.0
    recall = hit / k

    return Metrics(
        seed=seed,
        linf_error=linf_error,
        noise_floor=floor,
        guarantee_ok=guarantee_ok,
        l2l2_after_topk=l2l2,
        support_precision=precision,
        support_recall=recall,
        samples_used=result.samples_used,
        wall_ms=wall_ms,
        attempts_total=result.attempts_total,
        attempts_max=result.attempts_max,
    )
