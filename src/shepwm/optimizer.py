"""Bound-constrained global-best particle swarm optimizer.

Deterministic by construction: restart r of a run with seed S draws all of
its randomness from ``numpy.random.Generator(PCG64(SeedSequence((S, r))))``,
and derived seeds for batched work (sweeps, comparison grids) come from
``derive_seed``. Identical inputs therefore give bit-identical results on a
fixed platform. ``minimize_stacked`` runs the swarms of many seeds and all
their restarts as one batch; every update is elementwise or per swarm, so
each result has the same bits as a one-seed ``minimize``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (ShePwmError, apply_rules, check_count, check_nonnegative, check_real,
                     check_sequence)

_U64_MAX = 2**64 - 1


def check_seed(seed, name: str = "seed") -> int:
    """seed as an int, refused unless it is an unsigned 64-bit integer."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value <= _U64_MAX:
        raise ShePwmError(f"{name} must be an unsigned 64-bit integer, got {seed!r}")
    return value


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

    RULES = (("seed", check_seed), ("swarm_size", check_count),
             ("iterations", check_count), ("inertia_start", check_nonnegative),
             ("inertia_end", check_nonnegative), ("cognitive", check_nonnegative),
             ("social", check_nonnegative), ("velocity_clamp_fraction", check_real),
             ("restarts", check_count))

    def __post_init__(self):
        apply_rules(self, self.RULES)
        if self.inertia_start < self.inertia_end:
            raise ShePwmError("need inertia_start >= inertia_end >= 0")
        if not (0.0 < self.velocity_clamp_fraction <= 1.0):
            raise ShePwmError("velocity_clamp_fraction must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Best point found across all restarts, with run diagnostics.

    gbest_history and converged_iteration belong to the winning restart;
    restart_values and restart_converged hold every restart's best value and
    convergence iteration, in restart order. Holds arrays, so instances
    compare by identity; tests compare fields.
    """

    best_position: np.ndarray
    best_value: float
    evaluations: int
    converged_iteration: int
    gbest_history: np.ndarray = field(repr=False, default=None)
    winning_restart: int = 0
    restart_values: tuple[float, ...] = ()
    restart_converged: tuple[int, ...] = ()


def _check_bound(pair, name: str) -> tuple[float, float]:
    """pair as (low, high): a sequence of two finite reals, low <= high."""
    pair = check_sequence(pair, name, check_real)
    if len(pair) != 2:
        raise ShePwmError(f"{name} must hold (low, high) pairs, got {pair!r}")
    low, high = pair
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ShePwmError(f"{name} must be finite")
    if low > high:
        raise ShePwmError("each lower bound must be <= its upper bound")
    return pair


def _check_bounds(bounds: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    bounds = check_sequence(bounds, "bounds", _check_bound)
    if not bounds:
        raise ShePwmError("bounds must be a non-empty list of (low, high) pairs")
    lo = np.asarray([b[0] for b in bounds], dtype=np.float64)
    hi = np.asarray([b[1] for b in bounds], dtype=np.float64)
    return lo, hi


def minimize(
    objective: Callable,
    bounds: Sequence[tuple[float, float]],
    config: PsoConfig,
) -> OptimizerResult:
    """Minimize a total objective over a box with global-best PSO.

    objective: called as objective(points, cutoff). It maps a read-only
        (P, D) batch of in-bounds points to a (P,) array of finite values;
        any other shape, or a non-finite value, raises ShePwmError. cutoff
        is a read-only (P,) array holding each row's personal best so far
        (+inf on the first call). The swarm only asks whether a value is
        below its cutoff, so a row whose true value is >= its cutoff may
        come back as any finite value between the cutoff and the true
        value; an objective that cannot use this ignores the cutoff.
    bounds: one (low, high) pair per dimension.

    Per iteration each particle's velocity is updated with inertia (linear
    schedule from inertia_start to inertia_end), a cognitive pull toward its
    personal best and a social pull toward the swarm best, then clamped to
    velocity_clamp_fraction of each dimension's range. Positions are clamped
    back to the box and the velocity component is zeroed in any clamped
    dimension. The global best is reduced over particles in index order, so
    ties resolve deterministically. There is no early stopping: every restart
    runs the full iteration count and the best restart wins (ties go to the
    lowest restart index). The restarts run together as one stacked swarm;
    see minimize_stacked.
    """
    return minimize_stacked(objective, bounds, config, [config.seed])[0]


def minimize_stacked(
    objective: Callable,
    bounds: Sequence[tuple[float, float]],
    config: PsoConfig,
    seeds: Sequence[int],
) -> list[OptimizerResult]:
    """``minimize`` under each of `seeds` (unsigned 64-bit), as one stacked swarm.

    Result b is bit-identical to ``minimize`` with ``config.seed = seeds[b]``.
    The len(seeds) * restarts swarms advance together, and each iteration
    makes one objective call on all their particles, ordered by seed, then
    restart, then particle. Swarm (b, r) draws from its own
    ``PCG64(SeedSequence((seeds[b], r)))`` stream, and every update is
    elementwise or per swarm, so no swarm sees another. The objective must
    likewise give each row the bits it would give alone, and each row's
    cutoff is that particle's own personal best.
    """
    lo, hi = _check_bounds(bounds)
    seeds = check_sequence(seeds, "seeds", lambda seed, _: check_seed(seed))
    dim = lo.size
    span = hi - lo
    vmax = config.velocity_clamp_fraction * span
    restarts, size, iters = config.restarts, config.swarm_size, config.iterations
    blocks = len(seeds) * restarts
    rows = blocks * size
    x = np.empty((blocks, size, dim))
    # Every personal best starts at +inf. The objective reads the positions,
    # and the personal bests as each row's cutoff, through read-only views.
    fp = np.full((blocks, size), np.inf)
    points, cutoff = x.reshape(rows, dim), fp.reshape(rows)
    points.flags.writeable = cutoff.flags.writeable = False

    def evaluate():
        fx = np.asarray(objective(points, cutoff), dtype=np.float64)
        if fx.shape != (rows,):
            raise ShePwmError(
                f"objective must return one value per row, got shape {fx.shape} "
                f"for {rows} rows"
            )
        if not np.isfinite(fx).all():
            raise ShePwmError("objective returned a non-finite value")
        return fx.reshape(blocks, size)

    # The bounds tiled over one swarm, so that each clamp runs numpy's inner
    # loop over size * dim elements rather than dim.
    lo_t, hi_t, vmax_t, neg_vmax_t = (
        np.tile(a, (size, 1)) for a in (lo, hi, vmax, -vmax)
    )
    if dim == 1:
        # The clamps give np.clip's bits, zero signs included. With one
        # dimension np.clip sees each bound as a single broadcast value and
        # returns the point itself when it ties a bound as a zero of the
        # other sign; with more it returns the bound. np.maximum and
        # np.minimum return their second operand on such a tie, so the
        # operand order reproduces either case.
        def clamp(a, low, high):
            np.maximum(low, a, out=a)
            np.minimum(high, a, out=a)
    else:
        def clamp(a, low, high):
            np.maximum(a, low, out=a)
            np.minimum(a, high, out=a)

    rngs = [
        np.random.default_rng(np.random.SeedSequence((seed, r)))
        for seed in seeds
        for r in range(restarts)
    ]
    for rng, xb in zip(rngs, x):
        rng.random(out=xb)
    x *= span
    x += lo
    v = np.zeros_like(x)
    np.copyto(fp, evaluate())
    # bests[:, 0] holds the personal bests and bests[:, 1] each swarm's best
    # position, repeated for every one of its particles, so that one subtract
    # takes both gaps.
    bests = np.empty((blocks, 2, size, dim))
    pbest, gpos = bests[:, 0], bests[:, 1]
    pbest[...] = x
    swarm = np.arange(blocks)
    g = np.argmin(fp, axis=1)
    gval = fp[swarm, g]
    gpos[...] = pbest[swarm, g][:, None, :]
    hist = np.empty((blocks, iters + 1))
    hist[:, 0] = gval
    conv = np.zeros(blocks, dtype=np.int64)

    # pulls holds (cognitive * r1, social * r2) and gaps (pbest - x, gbest - x)
    # per swarm. The in-place steps below evaluate
    # v = w*v + cognitive*r1*(pbest - x) + social*r2*(gbest - x) in the
    # one-swarm order, so every element gets the same bits.
    coef = np.array([config.cognitive, config.social], dtype=np.float64)[:, None, None]
    pulls = np.empty((blocks, 2, size, dim))
    gaps = np.empty_like(pulls)
    cognitive_pull, social_pull = pulls[:, 0], pulls[:, 1]
    x_both = x[:, None]
    clamped = np.empty(x.shape, dtype=bool)
    above = np.empty_like(clamped)
    improved = np.empty(fp.shape, dtype=bool)
    improved_rows = improved[..., None]

    for t in range(iters):
        if iters > 1:
            w = config.inertia_start + (
                config.inertia_end - config.inertia_start
            ) * (t / (iters - 1))
        else:
            w = config.inertia_start
        for rng, pb in zip(rngs, pulls):
            rng.random(out=pb)
        pulls *= coef
        np.subtract(bests, x_both, out=gaps)
        pulls *= gaps
        v *= w
        v += cognitive_pull
        v += social_pull
        clamp(v, neg_vmax_t, vmax_t)
        x += v
        np.less(x, lo_t, out=clamped)
        np.greater(x, hi_t, out=above)
        clamped |= above
        clamp(x, lo_t, hi_t)
        np.copyto(v, 0.0, where=clamped)
        fx = evaluate()
        np.less(fx, fp, out=improved)
        np.copyto(pbest, x, where=improved_rows)
        np.copyto(fp, fx, where=improved)
        # Only swarms whose least personal best beats their best gather a new
        # one, and it is the first argmin's value: fp.min may give -0.0 where
        # that is +0.0, though the two compare alike.
        better = (fp.min(axis=1) < gval).nonzero()[0]
        if better.size:
            g = np.argmin(fp[better], axis=1)
            gval[better] = fp[better, g]
            gpos[better] = pbest[better, g][:, None, :]
            conv[better] = t + 1
        hist[:, t + 1] = gval

    results = []
    for b in range(len(seeds)):
        own = slice(b * restarts, (b + 1) * restarts)
        win = int(np.argmin(gval[own]))
        k = b * restarts + win
        results.append(
            OptimizerResult(
                best_position=gpos[k, 0].copy(),
                best_value=float(gval[k]),
                evaluations=restarts * size * (iters + 1),
                converged_iteration=int(conv[k]),
                gbest_history=hist[k].copy(),
                winning_restart=win,
                restart_values=tuple(gval[own].tolist()),
                restart_converged=tuple(conv[own].tolist()),
            )
        )
    return results
