"""Selective harmonic elimination: problem setup, cost function, PSO solve.

The solver searches the box [0, pi/2]^K for switching angles that hit a
target per-unit fundamental while nulling a chosen set of odd harmonics.
Raw optimizer coordinates are sort-repaired into nondecreasing order before
evaluation, which makes the objective total on the box and permutation
invariant. ``cost_batch`` is the vectorised numpy kernel the swarm calls;
the scalar ``cost`` is the reference it is tested against and the value
reported with a solution. ``solve``, ``sweep`` and the variable-DC-link
comparison all go through ``solve_pairs``, which runs every (target, seed)
pair's swarms as one stacked batch.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ShePwmError
from .harmonics import analytic_harmonic
from .optimizer import OptimizerResult, PsoConfig, derive_seed, minimize_stacked
from .pattern import HALF_PI, SwitchingPattern, default_sign_pattern

# A solution is feasible when every eliminated-order residual and the
# fundamental tracking error are below 0.1% of the DC base s*V_dc.
RESIDUAL_THRESHOLD_PU = 1e-3
FUNDAMENTAL_THRESHOLD_PU = 1e-3

DEFAULT_ELIMINATE = (3, 5, 7, 9, 11)


@dataclass(frozen=True)
class SheProblem:
    """One elimination problem: target fundamental plus structure and weights."""

    target_m: float
    eliminate_orders: tuple[int, ...] = DEFAULT_ELIMINATE
    cells: int = 2
    angles_per_cell: int = 3
    sign_pattern: tuple[int, ...] | None = None
    weight_fundamental: float = 100.0
    weight_harmonics: float = 10.0
    vdc_per_cell: float = 200.0

    def __post_init__(self):
        if not (0.0 <= self.target_m <= 1.0):
            raise ShePwmError(f"target_m must be in [0, 1], got {self.target_m}")
        for name in ("weight_fundamental", "weight_harmonics"):
            w = getattr(self, name)
            if not (math.isfinite(w) and w >= 0.0):
                raise ShePwmError(f"{name} must be finite and >= 0, got {w}")
        if not (math.isfinite(self.vdc_per_cell) and self.vdc_per_cell > 0):
            raise ShePwmError(
                f"vdc_per_cell must be finite and > 0, got {self.vdc_per_cell!r}"
            )
        if self.cells < 1 or self.angles_per_cell < 1:
            raise ShePwmError("cells and angles_per_cell must be >= 1")
        object.__setattr__(
            self, "eliminate_orders", tuple(int(n) for n in self.eliminate_orders)
        )
        k = self.n_angles
        orders = self.eliminate_orders
        if len(set(orders)) != len(orders):
            raise ShePwmError(f"eliminate_orders must be distinct, got {orders}")
        if any(n <= 1 or n % 2 == 0 for n in orders):
            raise ShePwmError(f"eliminate_orders must be odd and > 1, got {orders}")
        if len(orders) > k - 1:
            raise ShePwmError(
                f"{k} angles support at most {k - 1} eliminations, got {len(orders)}"
            )
        signs = self.sign_pattern
        if signs is None:
            signs = default_sign_pattern(self.cells, self.angles_per_cell)
        object.__setattr__(self, "sign_pattern", tuple(int(s) for s in signs))
        if len(self.sign_pattern) != k:
            raise ShePwmError(
                f"sign pattern length {len(self.sign_pattern)} != K = {k}"
            )
        self.make_pattern(np.zeros(k))

    @property
    def n_angles(self) -> int:
        return self.cells * self.angles_per_cell

    @property
    def base_volts(self) -> float:
        return self.cells * self.vdc_per_cell

    def make_pattern(self, angles: Sequence[float]) -> SwitchingPattern:
        return SwitchingPattern(
            angles=tuple(angles),
            signs=self.sign_pattern,
            cells=self.cells,
            vdc_per_cell=self.vdc_per_cell,
        )


@dataclass(frozen=True)
class Solution:
    """Solved angles with the residual bookkeeping for one target.

    Equality covers the solution payload; optimizer diagnostics are excluded.
    """

    pattern: SwitchingPattern
    cost: float
    fundamental_pu: float
    residuals_pu: dict[int, float]
    feasible: bool
    diagnostics: OptimizerResult = field(repr=False, compare=False)
    target_m: float = 0.0


def cost(angles: Sequence[float], problem: SheProblem) -> float:
    """Reference scalar evaluation of the elimination cost.

    Sorts the raw angles, then weighs the fundamental tracking error against
    the 1/n-weighted per-unit magnitudes of the orders to eliminate.
    """
    arr = np.asarray(angles, dtype=np.float64)
    if arr.shape != (problem.n_angles,):
        raise ShePwmError(
            f"expected {problem.n_angles} angles, got shape {arr.shape}"
        )
    if np.any(arr < 0.0) or np.any(arr > HALF_PI):
        raise ShePwmError("angles must lie within [0, pi/2]")
    return _evaluate(problem, problem.make_pattern(np.sort(arr)))[2]


def _evaluate(
    problem: SheProblem, pattern: SwitchingPattern
) -> tuple[float, dict[int, float], float]:
    """Per-unit fundamental, per-unit eliminated-order residuals and cost of
    a sorted pattern, from one closed-form harmonic per order."""
    base = problem.base_volts
    orders = problem.eliminate_orders
    volts = {n: abs(analytic_harmonic(pattern, n)) for n in (1, *orders)}
    fund_pu = volts[1] / base
    total = problem.weight_fundamental * abs(problem.target_m - fund_pu)
    for n in orders:
        total += problem.weight_harmonics / n * volts[n] / base
    residuals = {n: volts[n] / base for n in orders}
    return fund_pu, residuals, total


def cost_batch(
    positions: np.ndarray, problem: SheProblem, target_m: np.ndarray | None = None
) -> np.ndarray:
    """Elimination cost for a (P, K) batch of raw angle vectors.

    Each row is sort-repaired (ascending) before evaluation. Harmonics are
    per-unit of the DC base s*V_dc, so the cost does not depend on V_dc:

        cost = weight_fundamental * |target_m - |V1_pu||
             + sum_n weight_harmonics/n * |Vn_pu|     over eliminate_orders

    with Vn_pu = 4/(n*pi*cells) * sum_i signs[i]*cos(n*theta_i).

    The kernel makes one cosine per angle, c = cos(theta), on a (K, P)
    block. Every odd order then follows from the Chebyshev step
    cos((n+2)theta) = 2cos(2theta)*cos(n*theta) - cos((n-2)theta), with
    2cos(2theta) = 4c^2 - 2 and cos(-theta) = cos(theta) to start from. The
    signs are folded in before the first step; the step is linear and a
    factor of +-1 is exact, so this changes no bit. Only the orders in
    eliminate_orders are summed. Each step is elementwise, and the sum over
    angles adds one sorted-angle row at a time, so a row's bits do not
    depend on the batch it is evaluated in.

    target_m, when given, is a (P,) vector of per-row targets that replaces
    problem.target_m; row i then costs what it would cost alone under
    replace(problem, target_m=target_m[i]).
    """
    arr = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    k = problem.n_angles
    if arr.ndim != 2 or arr.shape[1] != k:
        raise ShePwmError(f"expected {k} angles per row, got shape {arr.shape}")
    rows = arr.shape[0]
    if target_m is None:
        target_m = problem.target_m
    elif np.shape(target_m) != (rows,):
        raise ShePwmError(
            f"target_m must hold one value per row ({rows}), "
            f"got shape {np.shape(target_m)}"
        )
    orders = problem.eliminate_orders
    cur = np.cos(np.sort(arr, axis=1).T, out=np.empty((k, rows)))
    two_cos2 = 4.0 * cur * cur - 2.0
    cur *= np.array(problem.sign_pattern, dtype=np.float64)[:, None]
    sums = {1: _sum_angles(cur)}
    prev = cur.copy()
    step = np.empty_like(cur)
    for n in range(3, max(orders, default=1) + 1, 2):
        np.multiply(two_cos2, cur, out=step)
        np.subtract(step, prev, out=prev)
        prev, cur = cur, prev
        if n in orders:
            sums[n] = _sum_angles(cur)
    scale = 4.0 / (np.pi * problem.cells)
    total = problem.weight_fundamental * np.abs(target_m - np.abs(scale * sums[1]))
    for n in orders:
        total += (problem.weight_harmonics / n) * np.abs(scale / n * sums[n])
    return total


def _sum_angles(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (K, P) block, adding one row at a time in row order.

    ``terms.sum(axis=0)`` is not used: numpy sums a single column pairwise,
    which would give a one-row batch other bits than a larger one.
    """
    acc = terms[0].copy()
    for row in terms[1:]:
        acc += row
    return acc


def solve(problem: SheProblem, pso: PsoConfig) -> Solution:
    """Minimize the elimination cost and package the repaired best point."""
    return solve_pairs(problem, [(problem.target_m, pso.seed)], pso)[0]


def _package(problem: SheProblem, result: OptimizerResult) -> Solution:
    """Solution for the optimizer's best point on one target's problem."""
    pat = problem.make_pattern(np.sort(result.best_position))
    fund_pu, residuals, total = _evaluate(problem, pat)
    feasible = (
        abs(fund_pu - problem.target_m) <= FUNDAMENTAL_THRESHOLD_PU
        and all(r <= RESIDUAL_THRESHOLD_PU for r in residuals.values())
    )
    return Solution(
        pattern=pat,
        cost=total,
        fundamental_pu=fund_pu,
        residuals_pu=residuals,
        feasible=feasible,
        diagnostics=result,
        target_m=problem.target_m,
    )


def _solve_stacked(problem: SheProblem, pairs, pso: PsoConfig) -> list[Solution]:
    """Every (target_m, seed) pair's swarms as one stacked swarm."""
    targets = np.array([m for m, _ in pairs], dtype=np.float64)
    row_targets = np.repeat(targets, pso.restarts * pso.swarm_size)
    results = minimize_stacked(
        lambda pts: cost_batch(pts, problem, target_m=row_targets),
        bounds=[(0.0, HALF_PI)] * problem.n_angles,
        config=pso,
        seeds=[seed for _, seed in pairs],
    )
    return [
        _package(replace(problem, target_m=m), result)
        for (m, _), result in zip(pairs, results)
    ]


def solve_pairs(
    problem: SheProblem,
    pairs: Sequence[tuple[float, int]],
    pso: PsoConfig,
    jobs: int = 1,
) -> list[Solution]:
    """One solve per (target_m, seed) pair, in input order.

    Pair i solves replace(problem, target_m=m_i) under replace(pso,
    seed=seed_i), bit for bit. All pairs run as one stacked swarm; jobs > 1
    splits the pairs into at most `jobs` contiguous chunks, each stacked in
    its own process. The chunking does not change any result.
    """
    if jobs < 1:
        raise ShePwmError(f"jobs must be >= 1, got {jobs}")
    chunks = min(jobs, len(pairs))
    if chunks <= 1:
        return _solve_stacked(problem, pairs, pso)
    cuts = [len(pairs) * c // chunks for c in range(chunks + 1)]
    work = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=chunks) as pool:
        parts = pool.map(_solve_stacked, repeat(problem), work, repeat(pso))
        return [sol for part in parts for sol in part]


def sweep(
    problem: SheProblem,
    m_values: Sequence[float],
    pso: PsoConfig,
    jobs: int = 1,
) -> list[Solution]:
    """Independent solves over a list of targets, in input order.

    Solve i runs with seed derive_seed(pso.seed, i), so results do not depend
    on how the work is scheduled; jobs > 1 splits the targets over up to
    `jobs` processes (see solve_pairs).
    """
    if len(m_values) == 0:
        raise ShePwmError("no target values given")
    for m in m_values:
        if not (0.0 <= m <= 1.0):
            raise ShePwmError(f"per-unit target {m} outside [0, 1]")
    pairs = [(float(m), derive_seed(pso.seed, i)) for i, m in enumerate(m_values)]
    return solve_pairs(problem, pairs, pso, jobs)
