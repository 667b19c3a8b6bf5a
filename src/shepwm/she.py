"""Selective harmonic elimination: problem setup, cost function, PSO solve.

The solver searches the box [0, pi/2]^K for switching angles that hit a
target per-unit fundamental while nulling a chosen set of odd harmonics.
Raw optimizer coordinates are sort-repaired into nondecreasing order before
evaluation, which makes the objective total on the box and permutation
invariant. ``cost_batch`` is the vectorised numpy kernel the swarm calls;
the scalar ``cost`` runs its arithmetic on one row, and a solution's cost
is its optimizer's best value, which is that full cost bit for bit. ``solve``,
``sweep`` and the variable-DC-link comparison all go through
``solve_pairs``, which runs every (target, seed) pair's swarms as one
stacked batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ShePwmError
from .harmonics import odd_harmonic_sums, signed_cosines
from .optimizer import (
    OptimizerResult,
    PsoConfig,
    check_seed,
    derive_seed,
    minimize_stacked,
)
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

    @cached_property
    def _kernel(self) -> _KernelColumns:
        """The kernel constants that cost_batch and every solution's figures
        read, built on first use and kept; nothing else builds them.

        Derived from the fields alone, so it takes no part in equality,
        hashing or pickling; ``dataclasses.replace`` builds a new one.
        """
        orders = self.eliminate_orders
        unit = 4.0 / (np.pi * self.cells)
        return _KernelColumns(
            signs=_column(self.sign_pattern),
            unit=unit,
            max_order=max(orders, default=1),
            layers=[n // 2 for n in orders],
            scale=_column([unit / n for n in orders]),
            weight=_column([self.weight_harmonics / n for n in orders]),
        )

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_kernel", None)
        return state


class _KernelColumns(NamedTuple):
    """The kernel's per-problem constants for the eliminated orders: they
    depend on the problem alone, not on the angles; arrays read-only."""

    signs: np.ndarray  # (K, 1) transition signs
    unit: float  # per-unit scale of the fundamental, 4/(pi*cells)
    max_order: int  # the highest order, 1 when there is none
    layers: list[int]  # each order's layer n // 2 of the recurrence stack
    scale: np.ndarray  # (n_orders, 1) per-unit scale 4/(pi*cells*n)
    weight: np.ndarray  # (n_orders, 1) cost weight weight_harmonics/n


def _column(values) -> np.ndarray:
    col = np.array(values, dtype=np.float64)[:, None]
    col.flags.writeable = False
    return col


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
    """cost_batch's value for one vector of raw angles within [0, pi/2]."""
    arr = np.asarray(angles, dtype=np.float64)
    if arr.shape != (problem.n_angles,):
        raise ShePwmError(
            f"expected {problem.n_angles} angles, got shape {arr.shape}"
        )
    # NaN fails both comparisons, so it is refused with the out-of-box angles
    if not np.all((arr >= 0.0) & (arr <= HALF_PI)):
        raise ShePwmError("angles must lie within [0, pi/2]")
    return float(cost_batch(arr, problem)[0])


def cost_batch(
    positions: np.ndarray,
    problem: SheProblem,
    target_m: np.ndarray | None = None,
    cutoff: np.ndarray | None = None,
) -> np.ndarray:
    """Elimination cost for a (P, K) batch of raw angle vectors.

    Each row is sort-repaired (ascending) before evaluation. Harmonics are
    per-unit of the DC base s*V_dc, so the cost does not depend on V_dc:

        cost = weight_fundamental * |target_m - |V1_pu||
             + sum_n weight_harmonics/n * |Vn_pu|     over eliminate_orders

    with Vn_pu = 4/(n*pi*cells) * sum_i signs[i]*cos(n*theta_i).

    The kernel makes one cosine per angle and takes every order's sum by
    ``harmonics.odd_harmonic_sums``, so a row's bits do not depend on the
    batch it is evaluated in.

    target_m, when given, is a (P,) vector of per-row targets that replaces
    problem.target_m; row i then costs what it would cost alone under
    replace(problem, target_m=target_m[i]).

    cutoff, when given, is a (P,) vector of bounds that lets the kernel skip
    rows that cannot come in under them: a row whose fundamental term is
    already >= its cutoff returns that term, and only the other rows run
    the harmonic orders. Every harmonic term is >= +0 and rounded addition
    of a non-negative number never decreases a sum, so a skipped row's
    value lies between its cutoff and its full cost, and each row compares
    with its cutoff as its full cost would. Rows that are not skipped get
    their full cost, bit for bit.
    """
    arr = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    k = problem.n_angles
    if arr.ndim != 2 or arr.shape[1] != k:
        raise ShePwmError(f"expected {k} angles per row, got shape {arr.shape}")
    rows = arr.shape[0]
    for name, per_row in (("target_m", target_m), ("cutoff", cutoff)):
        if per_row is not None and np.shape(per_row) != (rows,):
            raise ShePwmError(
                f"{name} must hold one value per row ({rows}), "
                f"got shape {np.shape(per_row)}"
            )
    if target_m is None:
        target_m = problem.target_m
    kernel = problem._kernel
    block = signed_cosines(np.sort(arr, axis=1), kernel.signs)
    fund = odd_harmonic_sums(block, 1)[0]
    fund_pu = np.abs(kernel.unit * fund)
    total = problem.weight_fundamental * np.abs(target_m - fund_pu)
    # A NaN cutoff bounds nothing, so its row is kept.
    keep = np.arange(rows) if cutoff is None else (~(total >= cutoff)).nonzero()[0]
    sums = odd_harmonic_sums(block, kernel.max_order, keep)
    terms = sums.take(kernel.layers, axis=0)
    terms *= kernel.scale
    np.abs(terms, out=terms)
    terms *= kernel.weight
    kept = total[keep]
    # one order at a time, in eliminate_orders order: that order fixes the bits
    for term in terms:
        kept += term
    total[keep] = kept
    return total


def solve(problem: SheProblem, pso: PsoConfig) -> Solution:
    """Minimize the elimination cost and package the repaired best point."""
    return solve_pairs(problem, [(problem.target_m, pso.seed)], pso)[0]


def _package(problem: SheProblem, target_m: float, result: OptimizerResult) -> Solution:
    """Solution for the optimizer's best point on target_m, its figures
    read by cost_batch's arithmetic on the problem's kernel constants. Its
    cost is the best value: a row that the kernel's cutoff skips returns at
    least its personal best, so every best is a full cost."""
    pat = problem.make_pattern(np.sort(result.best_position))
    kernel = problem._kernel
    block = signed_cosines(np.array([pat.angles]), kernel.signs)
    sums = odd_harmonic_sums(block, kernel.max_order)[:, 0]
    fund_pu = float(abs(kernel.unit * sums[0]))
    res = np.abs(sums[kernel.layers] * kernel.scale[:, 0]).tolist()
    residuals = dict(zip(problem.eliminate_orders, res))
    feasible = (
        abs(fund_pu - target_m) <= FUNDAMENTAL_THRESHOLD_PU
        and all(r <= RESIDUAL_THRESHOLD_PU for r in residuals.values())
    )
    return Solution(
        pattern=pat,
        cost=result.best_value,
        fundamental_pu=fund_pu,
        residuals_pu=residuals,
        feasible=feasible,
        diagnostics=result,
        target_m=target_m,
    )


def _solve_stacked(problem: SheProblem, pairs, pso: PsoConfig) -> list[Solution]:
    """Every (target_m, seed) pair's swarms as one stacked swarm."""
    targets = np.array([m for m, _ in pairs], dtype=np.float64)
    row_targets = np.repeat(targets, pso.restarts * pso.swarm_size)
    results = minimize_stacked(
        lambda pts, cutoff: cost_batch(
            pts, problem, target_m=row_targets, cutoff=cutoff
        ),
        bounds=[(0.0, HALF_PI)] * problem.n_angles,
        config=pso,
        seeds=[seed for _, seed in pairs],
    )
    return [_package(problem, m, result) for (m, _), result in zip(pairs, results)]


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
    its own process. The chunking does not change any result. Every pair
    is checked before any swarm runs.
    """
    if jobs < 1:
        raise ShePwmError(f"jobs must be >= 1, got {jobs}")
    for m, seed in pairs:
        # NaN fails the comparison too
        if not 0.0 <= m <= 1.0:
            raise ShePwmError(f"per-unit target {m} outside [0, 1]")
        check_seed(seed)
    chunks = min(jobs, len(pairs))
    if chunks <= 1:
        return _solve_stacked(problem, pairs, pso)
    # Imported here: the pool pulls in multiprocessing, which only a
    # parallel run needs, and every CLI start would pay for it.
    from concurrent.futures import ProcessPoolExecutor

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
    pairs = [(float(m), derive_seed(pso.seed, i)) for i, m in enumerate(m_values)]
    return solve_pairs(problem, pairs, pso, jobs)
