"""Top-level sparse recovery drivers and their constants schedule.

The main driver alternates two moves on a shrinking radius ladder
nu_l = 2^(-l) * mu * R*:

  1. H median-and-threshold rounds push the residual sup norm from
     2*nu_l down to 2^(1-H)*nu_l (reduction module);
  2. a random complex shift s_l is drawn so that every coefficient's
     uncertainty box rounds unambiguously, and y is replaced by the grid
     projection of y + z + s_l on a lattice of side beta*nu_l (grids
     module). Projection collapses the accumulated estimation noise back
     to a clean lattice value, which is what lets the ladder keep halving
     without the support drifting.

After the last rung the residual bound is 2^(1-H)*nu_L = mu, the noise
level, and y is returned as-is. The warm-up variant skips the shift and
uses a fixed small H; it is only meant for k = O(log n).

All sample positions are drawn up front as one SampleBundle and declared
to the audited signal, so a completed run has read exactly B*R*H points.
A run whose bundle and estimate matrix would not fit in physical memory
is refused before anything is drawn.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .grids import GoodShiftError, GridSpec, ShiftParams, draw_good_shift, project
from .reduction import reduce_h_rounds
from .sampling import DOMAIN_SHIFT, AuditedSignal, SampleBundle, stream_rng

__all__ = [
    "RecoveryConfig",
    "PAPER_PROFILE",
    "DESK_PROFILE",
    "Schedule",
    "IterationDiag",
    "RecoveryResult",
    "ShiftFailure",
    "build_schedule",
    "ceil_log2",
    "require_memory",
    "fourier_sparse_recovery",
    "fourier_sparse_recovery_by_projection",
]


# occupied coefficients per unit of k that build_schedule's H floor allows for
C_S = 26
# shift draws allowed per rung, per bit of log2 n
MAX_SHIFT_ATTEMPTS_FACTOR = 10
# the projection-only variant's rounds per rung and lattice side / nu
WARMUP_H = 5
WARMUP_GRID = 0.6


@dataclass(frozen=True)
class RecoveryConfig:
    """Constant profile driving the schedule.

    c_b, c_r, c_h scale the list size B = c_b*k, the repetition count
    R = c_r*ceil(log2 n), and the per-rung round count H. alpha and beta
    set the shift radius (alpha*nu) and grid side (beta*nu); the shift
    argument needs alpha <= beta/2 and beta < 0.1.

    mu_min is a floor on the noise level relative to the signal's l2 norm;
    it is applied by the harness when it computes mu from ground truth
    (the driver itself just requires mu > 0).
    """

    c_b: int = 8
    c_r: int = 4
    c_h: int = 3
    alpha: float = 0.02
    beta: float = 0.08
    mu_min: float = 1e-12

    def __post_init__(self):
        for name in ("c_b", "c_r", "c_h"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not (0 < self.alpha < self.beta < 0.1):
            raise ValueError(
                f"need 0 < alpha < beta < 0.1, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.alpha > self.beta / 2:
            raise ValueError(
                f"shift radius must leave rounding room: alpha <= beta/2,"
                f" got alpha={self.alpha}, beta={self.beta}"
            )
        if not 0 < self.mu_min < math.inf:
            raise ValueError(f"mu_min must be positive and finite, got {self.mu_min}")


PAPER_PROFILE = RecoveryConfig(c_b=10**6, c_r=10**3, c_h=20, alpha=1e-3, beta=0.04)
DESK_PROFILE = RecoveryConfig(c_b=8, c_r=4, c_h=3, alpha=0.02, beta=0.08)


def ceil_log2(x) -> int:
    """Smallest integer e with 2^e >= x, exact on powers of two and on any int."""
    if not 0 < x < math.inf:
        raise ValueError(f"need a positive finite value, got {x}")
    if isinstance(x, (int, np.integer)):
        return (int(x) - 1).bit_length()
    mant, exp = math.frexp(x)  # x = mant * 2^exp with mant in [0.5, 1)
    return exp - 1 if mant == 0.5 else exp


def require_memory(need: float, what: str) -> None:
    """Refuse, with ValueError, work that needs more bytes than physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{what} need {need / 2**30:.3g} GiB,"
            f" more than the {have / 2**30:.3g} GiB of physical memory"
        )


@dataclass(frozen=True)
class Schedule:
    """Resolved per-run parameters: list size, repetitions, rungs."""

    b: int
    r: int
    h: int
    l: int
    nus: tuple

    @property
    def budget(self) -> int:
        return self.b * self.r * self.h


def build_schedule(
    config: RecoveryConfig,
    n: int,
    k: int,
    mu: float,
    rstar: float,
    warmup: bool = False,
) -> Schedule:
    """Resolve (B, R, H, L) and the radius ladder for one run.

    R* is rounded up to a power of two, so the ladder ends exactly at
    2^(1-H) * nu_L = mu for the main driver. H takes the larger of the
    nominal value ceil(log2 k) + c_h and a floor that keeps the shift
    rejection loop fast: with at most C_S*k occupied coefficients, a
    per-attempt failure chance of at most 1/2 needs the box radius
    2^(1-H)*nu below alpha*nu / (4*C_S*k). Small-constant profiles would
    otherwise make good shifts astronomically rare for k beyond a handful.
    The cap at log2 R* always wins when the ladder is short.
    """
    if k < 1:
        raise ValueError(f"sparsity k must be at least 1, got {k}")
    if n < 2:
        raise ValueError(f"universe size must be at least 2, got {n}")
    if not 0 < mu < math.inf:
        raise ValueError(f"noise level mu must be positive and finite, got {mu}")
    if not 2 <= rstar < math.inf:
        raise ValueError(f"dynamic range bound rstar must be finite and at least 2, got {rstar}")

    log2_rstar = ceil_log2(rstar)
    b = config.c_b * k
    r = config.c_r * ceil_log2(n)
    if warmup:
        h = WARMUP_H
        ell = max(1, log2_rstar - h + 1)
    else:
        h_fast = math.ceil(3 + math.log2(C_S * k / config.alpha))
        h = min(max(ceil_log2(k) + config.c_h, h_fast), log2_rstar)
        ell = log2_rstar - h + 1
    rstar_pow = float(2.0**log2_rstar)
    nus = tuple(2.0 ** (-i) * mu * rstar_pow for i in range(1, ell + 1))
    return Schedule(b=b, r=r, h=h, l=ell, nus=nus)


class ShiftFailure(RuntimeError):
    """The shift rejection loop ran out of attempts at ladder rung l."""

    def __init__(self, iteration: int, attempts: int, misconfigured: bool):
        super().__init__(
            f"no good shift at iteration {iteration} after {attempts} attempts"
            + (" (parameters make acceptance impossible)" if misconfigured else "")
        )
        self.iteration = iteration
        self.attempts = attempts
        self.misconfigured = misconfigured


@dataclass(frozen=True)
class IterationDiag:
    nu: float
    shift: complex
    shift_attempts: int
    support_after_reduce: int
    support_after_projection: int


@dataclass(frozen=True)
class RecoveryResult:
    y: dict
    diagnostics: tuple
    samples_used: int
    schedule: Schedule = field(repr=False)

    @property
    def attempts_total(self) -> int:
        return sum(d.shift_attempts for d in self.diagnostics)

    @property
    def attempts_max(self) -> int:
        return max((d.shift_attempts for d in self.diagnostics), default=0)


def _drive(
    x: AuditedSignal,
    schedule: Schedule,
    config: RecoveryConfig,
    entropy: int,
    use_shift: bool,
    grid_scale: float,
) -> RecoveryResult:
    u = x.universe
    # the solve's tracemalloc peak: bundle coordinates and their flat indices, three
    # (R, n) complex matrices per round (scatter, transform, scaled copy), per-list
    # sample arrays, the working spectra y, z and y + z (three length-n complex
    # vectors), and an allowance for numpy's first-call caches
    need = (
        schedule.budget * (u.d + 1) * 8
        + schedule.r * (48 * u.n + 64 * schedule.b)
        + 48 * u.n
        + 2**18
    )
    require_memory(need, f"B*R*H = {schedule.budget} samples and ({schedule.r}, {u.n}) matrices")
    bundle = SampleBundle.draw(u, schedule.h, schedule.r, schedule.b, entropy)
    x.grant_bundle(bundle)
    cap = MAX_SHIFT_ATTEMPTS_FACTOR * ceil_log2(u.n)

    # y is a length-n spectrum, zero off its support
    y = np.zeros(u.n, dtype=np.complex128)
    diags = []
    for ell in range(1, schedule.l + 1):
        nu = schedule.nus[ell - 1]
        w = y + reduce_h_rounds(x, y, bundle, nu, schedule.h)
        supp = np.flatnonzero(w)
        if ell == schedule.l:
            y = w
            diags.append(IterationDiag(nu, 0j, 0, len(supp), len(supp)))
            break

        shift = 0j
        attempts = 0
        if use_shift:
            params = ShiftParams(
                r_s=config.alpha * nu, r_b=2.0 ** (1 - schedule.h) * nu, r_g=config.beta * nu
            )
            try:
                shift, attempts = draw_good_shift(
                    w[supp], params, stream_rng(entropy, DOMAIN_SHIFT, ell), cap
                )
            except GoodShiftError as exc:
                raise ShiftFailure(ell, exc.attempts, exc.misconfigured) from exc

        y = np.zeros_like(w)
        y[supp] = project(w[supp] + shift, GridSpec(grid_scale * nu))
        diags.append(IterationDiag(nu, shift, attempts, len(supp), np.count_nonzero(y)))

    return RecoveryResult(
        y={int(f): complex(y[f]) for f in np.flatnonzero(y)},
        diagnostics=tuple(diags),
        samples_used=math.prod(bundle.points.shape[:-1]),
        schedule=schedule,
    )


def fourier_sparse_recovery(
    x: AuditedSignal,
    k: int,
    mu: float,
    rstar: float,
    config: RecoveryConfig = DESK_PROFILE,
    rng: int = 0,
) -> RecoveryResult:
    """Recover an O(k)-sparse spectrum approximation with sup error mu.

    mu bounds the noise level (1/sqrt(k) times the l2 norm of the
    spectrum's tail) and rstar bounds sup|xhat| / mu; both come from the
    caller, typically an oracle or prior knowledge. rng is the integer
    seed every random choice of the run derives from.
    """
    schedule = build_schedule(config, x.universe.n, k, mu, rstar)
    return _drive(x, schedule, config, rng, True, config.beta)


def fourier_sparse_recovery_by_projection(
    x: AuditedSignal,
    k: int,
    mu: float,
    rstar: float,
    config: RecoveryConfig = DESK_PROFILE,
    rng: int = 0,
) -> RecoveryResult:
    """Shift-free variant with H = WARMUP_H; meant for k = O(log n).

    Uses a coarser lattice (side WARMUP_GRID * nu) whose cells are wide
    enough that no random shift is needed: the post-reduction residual
    2^(1-H)*nu plus the projection displacement still fits inside half the
    next rung's radius.
    """
    schedule = build_schedule(config, x.universe.n, k, mu, rstar, warmup=True)
    return _drive(x, schedule, config, rng, False, WARMUP_GRID)
