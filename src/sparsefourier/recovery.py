"""Top-level sparse recovery driver and its constants schedule.

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
level, and y is returned as-is. With warmup=True the same driver skips the
shift, uses a fixed small H and a coarser lattice; it is only meant for
k = O(log n).

All sample positions are drawn up front as one SampleBundle and declared
to the audited signal, so a completed run has read exactly B*R*H points.
A run whose bundle and slab matrices would not fit in physical memory is
refused before anything is drawn.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dft import Universe, is_int
from .grids import GoodShiftError, GridSpec, ShiftParams, draw_good_shift, project
from .reduction import reduce_h_rounds, round_memory
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
    "solve_memory",
    "fourier_sparse_recovery",
]


# occupied coefficients per unit of k that build_schedule's H floor allows for
C_S = 26
# shift draws allowed per rung, per bit of log2 n
MAX_SHIFT_ATTEMPTS_FACTOR = 10
# the warm-up variant's rounds per rung and lattice side / nu
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
            if not is_int(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # plain ints, so reports serialise
        if not (0 < self.alpha <= self.beta / 2 and self.beta < 0.1):
            raise ValueError(
                f"need 0 < alpha <= beta/2 and beta < 0.1 (the shift must leave rounding room),"
                f" got alpha={self.alpha}, beta={self.beta}"
            )
        if not 0 < self.mu_min < math.inf:
            raise ValueError(f"mu_min must be positive and finite, got {self.mu_min}")


PAPER_PROFILE = RecoveryConfig(c_b=10**6, c_r=10**3, c_h=20, alpha=1e-3, beta=0.04)
DESK_PROFILE = RecoveryConfig()


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


def solve_memory(u: Universe, schedule: Schedule) -> int:
    """Tracemalloc peak of a solve: the bundle's flat indices; one round's coordinates and
    buffers (round_memory); y, which the rounds add into, and the round's z; 1 MiB numpy.fft."""
    per_round = round_memory(u, schedule.r, schedule.b)
    return 8 * schedule.budget + per_round + 32 * u.n + 2**20


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
    2^(1-H) * nu_L = mu (a warm-up run with log2 R* < H keeps one rung).
    H takes the larger of the nominal value ceil(log2 k) + c_h and a floor
    that keeps the shift rejection loop fast: with at most C_S*k occupied
    coefficients, a per-attempt failure chance of at most 1/2 needs the box
    radius 2^(1-H)*nu below alpha*nu / (4*C_S*k). Small-constant profiles
    would otherwise make good shifts astronomically rare for k beyond a
    handful. The cap at log2 R* always wins when the ladder is short.
    """
    if not is_int(k) or k < 1:
        raise ValueError(f"sparsity k must be an integer of at least 1, got {k!r}")
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
    else:
        h_fast = math.ceil(3 + math.log2(C_S * k / config.alpha))
        h = min(max(ceil_log2(k) + config.c_h, h_fast), log2_rstar)
    ell = max(1, log2_rstar - h + 1)
    rstar_pow = float(2.0**log2_rstar)
    nus = tuple(2.0 ** (-i) * mu * rstar_pow for i in range(1, ell + 1))
    return Schedule(b=b, r=r, h=h, l=ell, nus=nus)


class ShiftFailure(RuntimeError):
    """The shift rejection loop ran out of attempts at ladder rung l."""

    def __init__(self, iteration: int, attempts: int):
        super().__init__(f"no good shift at iteration {iteration} after {attempts} attempts")
        self.iteration = iteration
        self.attempts = attempts


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


def fourier_sparse_recovery(
    x: AuditedSignal,
    k: int,
    mu: float,
    rstar: float,
    config: RecoveryConfig = DESK_PROFILE,
    rng: int = 0,
    warmup: bool = False,
) -> RecoveryResult:
    """Recover an O(k)-sparse spectrum approximation with sup error mu.

    mu bounds the noise level (1/sqrt(k) times the l2 norm of the
    spectrum's tail) and rstar bounds sup|xhat| / mu; both come from the
    caller, typically an oracle or prior knowledge. rng is the integer
    seed every random choice of the run derives from.

    warmup=True runs the shift-free variant, meant for k = O(log n): H =
    WARMUP_H rounds per rung and a coarser lattice of side WARMUP_GRID * nu,
    whose cells are wide enough that no random shift is needed: the
    post-reduction residual 2^(1-H)*nu plus the projection displacement
    still fits inside half the next rung's radius.
    """
    u = x.universe
    schedule = build_schedule(config, u.n, k, mu, rstar, warmup)
    require_memory(solve_memory(u, schedule), f"B*R*H = {schedule.budget} samples and their solve")
    bundle = SampleBundle.draw(u, schedule.h, schedule.r, schedule.b, rng)
    x.grant_bundle(bundle)
    cap = MAX_SHIFT_ATTEMPTS_FACTOR * ceil_log2(u.n)
    side = WARMUP_GRID if warmup else config.beta

    # y is a length-n spectrum, zero off its support; the rounds and the projection overwrite it
    y = np.zeros(u.n, dtype=np.complex128)
    diags = []
    for ell, nu in enumerate(schedule.nus, start=1):
        y = reduce_h_rounds(x, y, bundle, nu)
        supp = np.flatnonzero(y)
        if ell == schedule.l:
            diags.append(IterationDiag(nu, 0j, 0, len(supp), len(supp)))
            break

        shift = 0j
        attempts = 0
        if not warmup:
            params = ShiftParams(
                r_s=config.alpha * nu, r_b=2.0 ** (1 - schedule.h) * nu, r_g=config.beta * nu
            )
            try:
                shift, attempts = draw_good_shift(
                    y[supp], params, stream_rng(rng, DOMAIN_SHIFT, ell), cap
                )
            except GoodShiftError as exc:
                raise ShiftFailure(ell, exc.attempts) from exc

        y[supp] = project(y[supp] + shift, GridSpec(side * nu))
        diags.append(IterationDiag(nu, shift, attempts, len(supp), np.count_nonzero(y)))

    return RecoveryResult(
        y={int(f): complex(y[f]) for f in np.flatnonzero(y)},
        diagnostics=tuple(diags),
        samples_used=bundle.flats.size,
        schedule=schedule,
    )
