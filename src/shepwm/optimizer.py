"""Global-best particle swarm optimizer in the unit box, mapped onto bounds.

Deterministic by construction: restart r of a run with seed S draws all of
its randomness from ``numpy.random.Generator(PCG64(SeedSequence((S, r))))``,
and derived seeds for batched work (sweeps, comparison grids) come from
``derive_seed``. Identical inputs therefore give bit-identical results on a
fixed platform. ``minimize_stacked`` runs the swarms of many seeds and all
their restarts as one batch in [0, 1]^dim; every update is elementwise or
per swarm, so each result has the same bits as a one-seed run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (ShePwmError, apply_rules, check_count, check_nonnegative, check_plan,
                     check_real, check_sequence)

_U64_MAX = 2**64 - 1
# The most bytes of uniform draws a stacked swarm holds at once; it fixes how
# many iterations each swarm's stream fills per call (at least one).
DRAW_BUDGET_BYTES = 1 << 20
# A swarm's peak with its objective's output: tracemalloc read 129 B per row at
# one dimension, 33 B per row and 90 B per row and dimension at 2 to 12 (one
# swarm under minimize, mapped points included; every row improving), and 16 B
# per swarm and iteration of history and its copy; draws add <= DRAW_BUDGET_BYTES.
SWARM_ROW_BYTES = 40
SWARM_DIM_BYTES = 92
HISTORY_BYTES = 16


def check_seed(seed, name: str = "seed") -> int:
    """seed as an int, refused unless it is an unsigned 64-bit integer."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value <= _U64_MAX:
        raise ShePwmError(f"{name} must be an unsigned 64-bit integer, got {seed!r}")
    return value


def check_swarm_size(n, name: str) -> int:
    """n by check_count, refused below 2: a lone particle is its own best and never moves."""
    n = check_count(n, name)
    if n < 2:
        raise ShePwmError(f"{name} must be >= 2, got {n}")
    return n


def swarm_bytes(swarms: int, size: int, dim: int, iterations: int) -> int:
    """The planned peak of stacked swarms, less the objective's working arrays."""
    return (swarms * size * (SWARM_ROW_BYTES + dim * SWARM_DIM_BYTES)
            + swarms * (iterations + 1) * HISTORY_BYTES + DRAW_BUDGET_BYTES)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for independent work item `index` under a base seed.

    Defined as the first 64-bit word of SeedSequence((seed, index)); the
    derivation is part of the reproducibility contract.
    """
    seed, index = check_seed(seed), check_seed(index, "index")
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters. All fields except the seed have defaults."""

    seed: int
    swarm_size: int = 50
    iterations: int = 200
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    velocity_clamp_fraction: float = 0.2
    restarts: int = 5

    RULES = (("seed", check_seed), ("swarm_size", check_swarm_size),
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
    """pair as (low, high): two finite reals, low <= high, a finite width apart."""
    pair = check_sequence(pair, name, check_real)
    if len(pair) != 2:
        raise ShePwmError(f"{name} must hold (low, high) pairs, got {pair!r}")
    low, high = pair
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ShePwmError(f"{name} must be finite")
    if low > high:
        raise ShePwmError("each lower bound must be <= its upper bound")
    if not math.isfinite(high - low):
        raise ShePwmError(f"{name} width must be finite, got ({low!r}, {high!r})")
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

    The swarm runs in [0, 1]^D (minimize_stacked); the objective and the
    result see each of its points u as min(low + (high - low)*u, high), a new
    array per evaluation, which on the unit box is u itself, bit for bit.
    """
    lo, hi = _check_bounds(bounds)
    span = hi - lo

    def to_box(u):
        x = u * span
        x += lo
        np.minimum(x, hi, out=x)
        x.flags.writeable = False
        return x

    result = minimize_stacked(lambda u, cutoff: objective(to_box(u), cutoff), lo.size,
                              config, [config.seed])[0]
    return replace(result, best_position=to_box(result.best_position).copy())


def minimize_stacked(
    objective: Callable,
    dim: int,
    config: PsoConfig,
    seeds: Sequence[int],
) -> list[OptimizerResult]:
    """``minimize`` in [0, 1]^dim under each of `seeds`, as one stacked swarm.

    Per iteration each particle's velocity is updated with inertia (linear
    schedule from inertia_start to inertia_end), a cognitive pull toward its
    personal best and a social pull toward the swarm best, then clamped to
    +-velocity_clamp_fraction. Positions are clamped back to [0, 1], zeroing
    the velocity in any clamped dimension. The global best is reduced over
    particles in index order, so ties resolve deterministically. There is no
    early stopping: every restart runs the full iteration count and the best
    restart wins (ties go to the lowest restart index).

    Result b is bit-identical to a run under ``config.seed = seeds[b]``
    alone. The len(seeds) * restarts swarms advance together, and each
    iteration makes one objective call on all their particles, ordered by
    seed, then restart, then particle. Swarm (b, r) draws from its own
    ``PCG64(SeedSequence((seeds[b], r)))`` stream, and every update is
    elementwise or per swarm, so no swarm sees another. The objective must
    likewise give each row the bits it would give alone, and each row's
    cutoff is that particle's own personal best. No seeds give no results.
    """
    dim = check_count(dim, "dim")
    seeds = check_sequence(seeds, "seeds", lambda seed, _: check_seed(seed))
    if not seeds:
        return []
    vmax = config.velocity_clamp_fraction
    restarts, size, iters = config.restarts, config.swarm_size, config.iterations
    blocks = len(seeds) * restarts
    check_plan(swarm_bytes(blocks, size, dim, iters), "the swarm", seeds=len(seeds),
               restarts=restarts, swarm_size=size, dimensions=dim, iterations=iters)
    rows = blocks * size
    x = np.empty((blocks, size, dim))
    # Every personal best starts at +inf. The objective reads the positions,
    # and the personal bests as each row's cutoff, through read-only views.
    fp = np.full((blocks, size), np.inf)
    x_rows, fp_rows = x.reshape(rows, dim), fp.reshape(rows)
    points, cutoff = x_rows.view(), fp_rows.view()
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
        return fx

    rngs = [
        np.random.default_rng(np.random.SeedSequence((seed, r)))
        for seed in seeds
        for r in range(restarts)
    ]
    for rng, xb in zip(rngs, x):
        rng.random(out=xb)
    v = np.zeros_like(x)
    np.copyto(fp_rows, evaluate())
    # bests[0] holds the personal bests and bests[1] each swarm's best
    # position, repeated for every one of its particles, so that one subtract
    # takes both gaps; each half is one contiguous block.
    bests = np.empty((2, blocks, size, dim))
    pbest, gpos = bests
    pbest_rows = pbest.reshape(rows, dim)
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
    pulls = np.empty((2, blocks, size, dim))
    gaps = np.empty_like(pulls)
    cognitive_pull, social_pull = pulls
    # Each swarm's stream fills the draws of `chunk` iterations at once, in
    # the order one iteration at a time would draw them: (r1, r2) per
    # iteration, r1 for the cognitive pull and r2 for the social one.
    chunk = min(iters, max(1, DRAW_BUDGET_BYTES // pulls.nbytes))
    draws = np.empty((blocks, chunk, 2, size, dim))
    clamped = np.empty(x.shape, dtype=bool)
    above = np.empty_like(clamped)
    improved = np.empty(rows, dtype=bool)

    for t in range(iters):
        if iters > 1:
            w = config.inertia_start + (
                config.inertia_end - config.inertia_start
            ) * (t / (iters - 1))
        else:
            w = config.inertia_start
        step = t % chunk
        if step == 0:
            fill = min(chunk, iters - t)
            for rng, own in zip(rngs, draws):
                rng.random(out=own[:fill])
        np.multiply(draws[:, step, 0], config.cognitive, out=cognitive_pull)
        np.multiply(draws[:, step, 1], config.social, out=social_pull)
        np.subtract(bests, x, out=gaps)
        pulls *= gaps
        v *= w
        v += cognitive_pull
        v += social_pull
        np.maximum(v, -vmax, out=v)
        np.minimum(v, vmax, out=v)
        # x is never -0.0 (draws are >= +0.0), so no clamp meets a zero-sign tie
        x += v
        np.less(x, 0.0, out=clamped)
        np.greater(x, 1.0, out=above)
        clamped |= above
        np.maximum(x, 0.0, out=x)
        np.minimum(x, 1.0, out=x)
        np.copyto(v, 0.0, where=clamped)
        fx = evaluate()
        np.less(fx, fp_rows, out=improved)
        moved = improved.nonzero()[0]
        pbest_rows[moved] = x_rows[moved]
        fp_rows[moved] = fx[moved]
        # Only swarms whose least personal best beats their best gather a new
        # one, and it is the first argmin's value: the minimum may be -0.0
        # where that is +0.0, though the two compare alike.
        better = (np.minimum.reduce(fp, axis=1) < gval).nonzero()[0]
        if better.size:
            g = fp[better].argmin(axis=1)
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
