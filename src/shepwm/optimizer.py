"""Bound-constrained global-best particle swarm optimizer.

Deterministic by construction: restart r of a run with seed S draws all of
its randomness from ``numpy.random.Generator(PCG64(SeedSequence((S, r))))``,
and derived seeds for batched work (sweeps, comparison grids) come from
``derive_seed``. Identical inputs therefore give bit-identical results on a
fixed platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidBounds, ShePwmError

_U64_MAX = 2**64 - 1


def derive_seed(seed: int, index: int) -> int:
    """Child seed for independent work item `index` under a base seed.

    Defined as the first 64-bit word of SeedSequence((seed, index)); the
    derivation is part of the reproducibility contract.
    """
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters. All fields except the seed have defaults."""

    seed: int
    swarm_size: int = 50
    iterations: int = 500
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    velocity_clamp_fraction: float = 0.2
    restarts: int = 5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ShePwmError(f"{f.name} must be finite, got {value}")
        if not (0 <= int(self.seed) <= _U64_MAX):
            raise ShePwmError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.swarm_size < 1 or self.iterations < 1 or self.restarts < 1:
            raise ShePwmError("swarm_size, iterations and restarts must be >= 1")
        if not (self.inertia_start >= self.inertia_end >= 0.0):
            raise ShePwmError("need inertia_start >= inertia_end >= 0")
        if self.cognitive < 0 or self.social < 0:
            raise ShePwmError("acceleration coefficients must be >= 0")
        if not (0.0 < self.velocity_clamp_fraction <= 1.0):
            raise ShePwmError("velocity_clamp_fraction must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Best point found across all restarts, with run diagnostics.

    Holds arrays, so instances compare by identity; tests compare fields.
    """

    best_position: np.ndarray
    best_value: float
    evaluations: int
    converged_iteration: int
    gbest_history: np.ndarray = field(repr=False, default=None)
    winning_restart: int = 0


def _check_bounds(bounds: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    if len(bounds) == 0:
        raise InvalidBounds("bounds must be a non-empty list of (low, high) pairs")
    lo = np.asarray([b[0] for b in bounds], dtype=np.float64)
    hi = np.asarray([b[1] for b in bounds], dtype=np.float64)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidBounds("bounds must be finite")
    if np.any(lo > hi):
        raise InvalidBounds("each lower bound must be <= its upper bound")
    return lo, hi


def minimize(
    objective: Callable,
    bounds: Sequence[tuple[float, float]],
    config: PsoConfig,
    vectorized: bool = False,
) -> OptimizerResult:
    """Minimize a total objective over a box with global-best PSO.

    objective: maps an in-bounds point (shape (D,)) to a finite float; with
        vectorized=True it maps a (P, D) batch to a (P,) array instead. A
        non-finite value raises ShePwmError.
    bounds: one (low, high) pair per dimension.

    Per iteration each particle's velocity is updated with inertia (linear
    schedule from inertia_start to inertia_end), a cognitive pull toward its
    personal best and a social pull toward the swarm best, then clamped to
    velocity_clamp_fraction of each dimension's range. Positions are clamped
    back to the box and the velocity component is zeroed in any clamped
    dimension. The global best is reduced over particles in index order, so
    ties resolve deterministically. There is no early stopping: every restart
    runs the full iteration count and the best restart wins (ties go to the
    lowest restart index).
    """
    lo, hi = _check_bounds(bounds)
    dim = lo.size
    span = hi - lo
    vmax = config.velocity_clamp_fraction * span

    if vectorized:
        batch = lambda pts: np.asarray(objective(pts), dtype=np.float64)
    else:
        batch = lambda pts: np.asarray(
            [float(objective(p)) for p in pts], dtype=np.float64
        )

    def evaluate(pts):
        fx = batch(pts)
        if not np.isfinite(fx).all():
            raise ShePwmError("objective returned a non-finite value")
        return fx

    best_val = np.inf
    best_pos = None
    best_hist = None
    best_conv = 0
    best_restart = 0
    evals = 0

    for r in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((int(config.seed), r)))
        x = lo + rng.random((config.swarm_size, dim)) * span
        v = np.zeros_like(x)
        fx = evaluate(x)
        evals += config.swarm_size
        pbest = x.copy()
        fp = fx.copy()
        g = int(np.argmin(fp))
        gpos, gval = pbest[g].copy(), float(fp[g])
        hist = np.empty(config.iterations + 1)
        hist[0] = gval
        conv = 0

        for t in range(config.iterations):
            if config.iterations > 1:
                w = config.inertia_start + (
                    config.inertia_end - config.inertia_start
                ) * (t / (config.iterations - 1))
            else:
                w = config.inertia_start
            r1 = rng.random((config.swarm_size, dim))
            r2 = rng.random((config.swarm_size, dim))
            v = w * v + config.cognitive * r1 * (pbest - x) + config.social * r2 * (
                gpos - x
            )
            np.clip(v, -vmax, vmax, out=v)
            x = x + v
            clamped = (x < lo) | (x > hi)
            np.clip(x, lo, hi, out=x)
            v[clamped] = 0.0
            fx = evaluate(x)
            evals += config.swarm_size
            improved = fx < fp
            pbest[improved] = x[improved]
            fp[improved] = fx[improved]
            g = int(np.argmin(fp))
            if fp[g] < gval:
                gpos, gval = pbest[g].copy(), float(fp[g])
                conv = t + 1
            hist[t + 1] = gval

        if gval < best_val:
            best_val = gval
            best_pos = gpos
            best_hist = hist
            best_conv = conv
            best_restart = r

    return OptimizerResult(
        best_position=best_pos,
        best_value=best_val,
        evaluations=evals,
        converged_iteration=best_conv,
        gbest_history=best_hist,
        winning_restart=best_restart,
    )
