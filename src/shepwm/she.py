"""Selective harmonic elimination: problem setup, cost function, PSO solve.

The solver searches the unit box [0, 1]^K, and ``_ordered_angles``, the one
home of the map, turns each point u into ascending angles in [0, pi/2]:
theta_K = (pi/2)*u_K^(1/K), then theta_k = theta_(k+1)*u_k^(1/k). That is
the order-statistic construction of K sorted uniforms, so the box covers the
ordered angles once, with uniform density, and the swarm never sorts.
``cost_batch``, the public cost of raw angle rows, refuses angles outside
[0, pi/2], sorts each row once and runs the same kernel; the scalar
``cost`` is its value for one row, and a solution's cost is its optimizer's
best value, which is that full cost bit for bit. ``solve``, ``sweep`` and the
variable-DC-link comparison all go through ``solve_pairs``, which runs
every (target, seed) pair's swarms as one stacked batch. ``SheProblem``
plans the kernel's share of one particle row and the reported THD's
spectrum, and ``solve_pairs`` the solve's peak, before anything is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (ShePwmError, apply_rules, check_count, check_plan, check_real, check_reals,
                     check_sequence)
from .harmonics import (DEFAULT_MAX_ORDER, LAYER_BYTES, add_rows, odd_harmonic_sums,
                        plan_spectrum, signed_cosines)
from .optimizer import (
    OptimizerResult,
    PsoConfig,
    check_seed,
    derive_seed,
    minimize_stacked,
    swarm_bytes,
)
from .pattern import HALF_PI, SwitchingPattern, check_signs, check_vdc, default_sign_pattern

# A solution is feasible when every eliminated-order residual and the
# fundamental tracking error are below 0.1% of the DC base s*V_dc.
RESIDUAL_THRESHOLD_PU = 1e-3
FUNDAMENTAL_THRESHOLD_PU = 1e-3

DEFAULT_ELIMINATE = (3, 5, 7, 9, 11)
# The cost's weights: WEIGHT_FUNDAMENTAL on the fundamental tracking error and
# WEIGHT_HARMONICS/n on each eliminated order n's residual.
WEIGHT_FUNDAMENTAL = 100.0
WEIGHT_HARMONICS = 10.0
# The kernel's share of a solve's peak past optimizer.swarm_bytes and
# harmonics.LAYER_BYTES per recurrence layer, by tracemalloc of solve_pairs at
# 120,000 and 1,200,000 row angles: 21-27 B per particle row at K = 1 and 2
# (its target, fundamental, cost and cutoff test), and less at K = 4 to 12,
# where the swarm's update temporaries, which swarm_bytes plans, outweigh the
# kernel's 16 B per row and angle; ROW_ANGLE_BYTES keeps 2 B of those.
ROW_BYTES = 28
ROW_ANGLE_BYTES = 2


def check_target(m, name: str = "target_m") -> float:
    """m as a float, refused unless within [0, 1]: the per-unit target rule."""
    m = check_real(m, name)
    if not 0.0 <= m <= 1.0:  # NaN fails too
        raise ShePwmError(f"{name} must be in [0, 1], got {m}")
    return m


def check_orders(orders, name: str = "eliminate_orders") -> tuple[int, ...]:
    """orders as ints by check_count, refused unless distinct, odd and > 1."""
    orders = check_sequence(orders, name, check_count)
    if len(set(orders)) != len(orders):
        raise ShePwmError(f"{name} must be distinct, got {orders}")
    if any(n <= 1 or n % 2 == 0 for n in orders):
        raise ShePwmError(f"{name} must be odd and > 1, got {orders}")
    return orders


def _signs_or_none(signs, name: str) -> tuple[int, ...] | None:
    """signs by check_signs; None asks for the default of the cell counts."""
    return None if signs is None else check_signs(signs, name)


@dataclass(frozen=True)
class SheProblem:
    """One elimination problem: target fundamental plus structure; the cost's
    weights are the constants WEIGHT_FUNDAMENTAL and WEIGHT_HARMONICS."""

    target_m: float
    eliminate_orders: tuple[int, ...] = DEFAULT_ELIMINATE
    cells: int = 2
    angles_per_cell: int = 3
    sign_pattern: tuple[int, ...] | None = None
    vdc_per_cell: float = 200.0

    RULES = (("target_m", check_target), ("eliminate_orders", check_orders),
             ("cells", check_count), ("angles_per_cell", check_count),
             ("sign_pattern", _signs_or_none), ("vdc_per_cell", check_vdc))

    def __post_init__(self):
        apply_rules(self, self.RULES)
        k, n = self.n_angles, len(self.eliminate_orders)
        if n > k - 1:
            raise ShePwmError(f"{k} angles support at most {k - 1} eliminations, got {n}")
        top = max(self.eliminate_orders, default=1)  # before any sign is built
        check_plan(_row_bytes(k, top), "a particle row", K=k, top_order=top)
        plan_spectrum(k, DEFAULT_MAX_ORDER)  # every solve report's THD
        if self.sign_pattern is None:  # the default follows the checked counts
            apply_rules(self, [("sign_pattern", lambda _, __: default_sign_pattern(
                self.cells, self.angles_per_cell))])
        if len(self.sign_pattern) != k:
            raise ShePwmError(f"sign pattern length {len(self.sign_pattern)} != K = {k}")
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
            exponents=_column([1.0 / k for k in range(1, self.n_angles + 1)]),
            unit=unit,
            max_order=max(orders, default=1),
            layers=_frozen([n // 2 for n in orders], np.intp),
            scale=_column([unit / n for n in orders]),
            weight=_column([WEIGHT_HARMONICS / n for n in orders]),
        )

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_kernel", None)
        return state


class _KernelColumns(NamedTuple):
    """The kernel's per-problem constants for the eliminated orders: they
    depend on the problem alone, not on the angles; arrays read-only."""

    signs: np.ndarray  # (K, 1) transition signs
    exponents: np.ndarray  # (K, 1) the map's exponents 1/k, k = 1..K
    unit: float  # per-unit scale of the fundamental, 4/(pi*cells)
    max_order: int  # the highest order, 1 when there is none
    layers: np.ndarray  # (n_orders,) intp, each order's layer n // 2 of the stack
    scale: np.ndarray  # (n_orders, 1) per-unit scale 4/(pi*cells*n)
    weight: np.ndarray  # (n_orders, 1) cost weight WEIGHT_HARMONICS/n


def _row_bytes(k: int, top: int) -> int:
    return ROW_BYTES + k * (ROW_ANGLE_BYTES + LAYER_BYTES * ((top + 1) // 2))


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _column(values) -> np.ndarray:
    return _frozen(values, np.float64)[:, None]


@dataclass(frozen=True)
class Solution:
    """Solved angles with the residual bookkeeping for one target.

    Equality covers the solution payload; optimizer diagnostics are excluded.
    diagnostics.best_position is the swarm's best point in [0, 1]^K, and the
    pattern's angles are its map.
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
    arr = check_reals(angles, "angles")
    if arr.shape != (problem.n_angles,):
        raise ShePwmError(
            f"expected {problem.n_angles} angles, got shape {arr.shape}"
        )
    return float(cost_batch(arr, problem)[0])


def cost_batch(positions: np.ndarray, problem: SheProblem) -> np.ndarray:
    """Elimination cost for a (P, K) batch of raw angle vectors within [0, pi/2].

    Each row is sorted ascending (one np.sort over the batch) and then costed
    by the kernel the swarm runs on its mapped rows. Harmonics are per-unit
    of the DC base s*V_dc, so the cost does not depend on V_dc:

        cost = WEIGHT_FUNDAMENTAL * |target_m - |V1_pu||
             + sum_n WEIGHT_HARMONICS/n * |Vn_pu|     over eliminate_orders

    with Vn_pu = 4/(n*pi*cells) * sum_i signs[i]*cos(n*theta_i).

    ``harmonics.signed_cosines`` makes one cosine per angle and
    ``harmonics.odd_harmonic_sums`` takes every order's sum, so a row's bits
    do not depend on the batch it is evaluated in.
    """
    arr = np.atleast_2d(check_reals(positions, "positions"))
    k = problem.n_angles
    if arr.ndim != 2 or arr.shape[1] != k:
        raise ShePwmError(f"expected {k} angles per row, got shape {arr.shape}")
    # copied into the (K, P) layout the map writes
    theta = np.sort(arr, axis=1).T.copy()
    # np.sort puts NaN last, so the last row's maximum refuses it too
    if theta.size and not (theta[0].min() >= 0.0 and theta[-1].max() <= HALF_PI):
        raise ShePwmError("angles must lie within [0, pi/2]")
    return _ordered_cost(theta, problem)


def _ordered_angles(u: np.ndarray, problem: SheProblem) -> np.ndarray:
    """(K, B) block of ascending angles in [0, pi/2] for a (B, K) batch of
    points in [0, 1]^K, column b the angles of row b.

    theta_K = (pi/2)*u_K^(1/K), then theta_k = theta_(k+1)*u_k^(1/k) for
    k = K-1, ..., 1. The powers are exp(log(u)/k) on a contiguous copy of the
    batch, one np.log and one np.exp in place and a product with the
    problem's exponent column, so every element takes the same numpy loop
    whatever the batch's shape and each column's bits are its own (np.power
    takes sqrt for the 1/2 column when its exponent is broadcast, and pow
    when it is not). Each power of a u within [0, 1] is within [0, 1], so the
    top row's scale and the K - 1 row products in place keep theta_k <=
    theta_(k+1) <= pi/2 exactly.
    """
    theta = u.T.copy()
    with np.errstate(divide="ignore"):  # log(0) is -inf, and exp(-inf) is 0
        np.log(theta, out=theta)
    theta *= problem._kernel.exponents
    np.exp(theta, out=theta)
    rows = list(theta)
    rows[-1] *= HALF_PI
    for k in range(len(rows) - 2, -1, -1):
        rows[k] *= rows[k + 1]
    return theta


def _ordered_cost(theta: np.ndarray, problem: SheProblem, target_m=None,
                  cutoff=None) -> np.ndarray:
    """cost_batch's value of each column of a (K, B) block of ascending
    angles, which it overwrites; unchecked. target_m and cutoff, when given,
    hold one value per column: its target, and a bound at or above which it
    returns its fundamental term alone. That lies between the bound and its
    full cost, as no harmonic term is below +0 and rounded addition of one
    never decreases a sum; the others get their full cost, bit for bit."""
    if target_m is None:
        target_m = problem.target_m
    kernel = problem._kernel
    block = signed_cosines(theta, kernel.signs)
    # the fundamental needs no recurrence: the K rows of the block in order
    fund = add_rows(block[:, None])[0]
    fund_pu = np.abs(kernel.unit * fund)
    total = WEIGHT_FUNDAMENTAL * np.abs(target_m - fund_pu)
    # A NaN cutoff bounds nothing, so its row is kept.
    keep = np.arange(len(total)) if cutoff is None else (~(total >= cutoff)).nonzero()[0]
    sums = odd_harmonic_sums(block, kernel.max_order, keep)
    # row 0 the kept rows' fundamental term, then one row per order, added
    # in eliminate_orders order: that order fixes the bits
    terms = np.empty((1 + len(kernel.layers), len(keep)))
    total.take(keep, out=terms[0], mode="clip")
    orders = terms[1:]
    sums.take(kernel.layers, axis=0, out=orders, mode="clip")
    orders *= kernel.scale
    np.abs(orders, out=orders)
    orders *= kernel.weight
    total[keep] = add_rows(terms)
    return total


def solve(problem: SheProblem, pso: PsoConfig) -> Solution:
    """Minimize the elimination cost and package the mapped best point."""
    return solve_pairs(problem, [(problem.target_m, pso.seed)], pso)[0]


def _package(problem: SheProblem, target_m: float, result: OptimizerResult) -> Solution:
    """Solution for the optimizer's best point on target_m: its angles are
    the point's map, and its figures are read by the kernel's arithmetic on
    the problem's constants. Its cost is the best value: a row that the
    kernel's cutoff skips returns at least its personal best, so every best
    is a full cost."""
    theta = _ordered_angles(result.best_position[None], problem)
    pat = problem.make_pattern(theta[:, 0])
    kernel = problem._kernel
    sums = odd_harmonic_sums(signed_cosines(theta, kernel.signs), kernel.max_order)[:, 0]
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
    """Every (target_m, seed) pair's swarms as one stacked swarm over [0, 1]^K."""
    targets = np.array([m for m, _ in pairs], dtype=np.float64)
    row_targets = np.repeat(targets, pso.restarts * pso.swarm_size)
    results = minimize_stacked(
        lambda pts, cutoff: _ordered_cost(
            _ordered_angles(pts, problem), problem, row_targets, cutoff
        ),
        problem.n_angles, pso, [seed for _, seed in pairs],
    )
    return [_package(problem, m, result) for (m, _), result in zip(pairs, results)]


def _check_pair(pair, name: str) -> tuple[float, int]:
    """pair as (target_m, seed) by their rules; refused unless a sequence of two."""
    pair = check_sequence(pair, name, lambda v, _: v)
    if len(pair) != 2:
        raise ShePwmError(f"{name} must hold (target_m, seed) pairs, got {pair!r}")
    return check_target(pair[0]), check_seed(pair[1])


def solve_pairs(
    problem: SheProblem,
    pairs: Sequence[tuple[float, int]],
    pso: PsoConfig,
    jobs: int = 1,
) -> list[Solution]:
    """One solve per (target_m, seed) pair, in input order.

    Pair i solves replace(problem, target_m=m_i) under replace(pso,
    seed=seed_i), bit for bit. All pairs run as one stacked swarm; jobs > 1
    splits them into at most min(jobs, os.cpu_count()) contiguous chunks, each
    stacked in its own process; the chunking changes no result. Every pair
    is checked, then the swarm's peak planned, before any swarm runs; no
    pairs give no solutions.
    """
    jobs = check_count(jobs, "jobs")
    pairs = check_sequence(pairs, "pairs", _check_pair)
    if not pairs:
        return []
    k, top, n = problem.n_angles, max(problem.eliminate_orders, default=1), len(pairs)
    swarms = n * pso.restarts
    check_plan(swarm_bytes(swarms, pso.swarm_size, k, pso.iterations)
               + swarms * pso.swarm_size * _row_bytes(k, top), "the solve",
               pairs=n, restarts=pso.restarts, swarm_size=pso.swarm_size, K=k,
               top_order=top, iterations=pso.iterations)
    chunks = min(jobs, len(pairs), os.cpu_count() or 1)
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
    m_values = check_sequence(m_values, "m_values", lambda m, _: check_target(m))
    if not m_values:
        raise ShePwmError("no target values given")
    pairs = [(m, derive_seed(pso.seed, i)) for i, m in enumerate(m_values)]
    return solve_pairs(problem, pairs, pso, jobs)
