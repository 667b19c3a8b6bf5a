"""Variable-DC-link operation: lookup tables and method comparison.

The conventional approach re-solves the elimination problem at every
commanded per-unit voltage and feeds the cells from the nominal DC link.
The variable-DC-link approach solves once at full modulation and reaches
lower outputs by scaling every cell's DC voltage through the duty cycle of
an idealized isolated DC-DC converter (output = duty * input, all cells
driven identically). Scaling the DC link scales every harmonic by the same
factor, so the full-modulation solution's THD carries over unchanged to the
entire output range. ``build_lookup`` applies that law directly: it analyses
the base solution once, and every row carries the base THD exactly and
fundamental_v = v_pu * the base fundamental.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .errors import ShePwmError
from .harmonics import DEFAULT_MAX_ORDER, analytic_harmonic, pattern_thd
from .optimizer import PsoConfig, derive_seed
from .pattern import HALF_PI
from .she import SheProblem, Solution, solve, solve_pairs

PROPOSED = "proposed"
# lookup CSV columns before theta_1..theta_K
LOOKUP_COLUMNS = ["v_pu", "method", "duty", "thd_pct", "feasible", "fundamental_v"]


@dataclass(frozen=True)
class LookupRow:
    """One operating point: commanded voltage, duty, angles, quality figures."""

    v_pu: float
    method: str
    duty: float
    thd: float
    feasible: bool
    fundamental_v: float
    angles: tuple[float, ...]


@dataclass(frozen=True)
class LookupTable:
    """Rows sorted ascending by commanded per-unit voltage.

    Every row is a proposed (variable-DC-link) row derived from the one base
    solve, so its duty equals its v_pu.
    """

    rows: tuple[LookupRow, ...]
    base_vdc_per_cell: float
    cells: int
    thd_max_order: int

    def __post_init__(self):
        v = [r.v_pu for r in self.rows]
        if any(b < a for a, b in zip(v, v[1:])):
            raise ShePwmError("lookup rows must be sorted ascending by v_pu")
        for r in self.rows:
            if not (0.0 <= r.v_pu <= 1.0 and 0.0 <= r.duty <= 1.0):
                raise ShePwmError(f"row at v_pu={r.v_pu} outside the unit ranges")
            if r.method != PROPOSED:
                raise ShePwmError(f"unknown method {r.method!r}")
            if r.duty != r.v_pu:
                raise ShePwmError(f"proposed row at v_pu={r.v_pu} must have duty=v_pu")


@dataclass(frozen=True)
class ComparisonRow:
    """Conventional vs variable-DC-link quality at one commanded voltage.

    improvement is the fractional THD reduction (thd_conv - thd_prop) /
    thd_conv, or None when the two THD values are identical (shared
    operating point at full modulation).
    """

    v_pu: float
    thd_conventional: float
    thd_proposed: float
    improvement: float | None
    feasible_conventional: bool
    feasible_proposed: bool


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    base_solution: Solution
    conventional: tuple[Solution, ...]


def _check_grid(v_pu_grid) -> list[float]:
    grid = [float(v) for v in v_pu_grid]
    if not grid:
        raise ShePwmError("empty per-unit voltage grid")
    for v in grid:
        if not (0.0 < v <= 1.0):
            raise ShePwmError(f"grid value {v} outside (0, 1]")
    return sorted(grid)


def build_lookup(
    v_pu_grid,
    pso: PsoConfig,
    problem: SheProblem,
    thd_max_order: int = DEFAULT_MAX_ORDER,
    base_solution: Solution | None = None,
) -> LookupTable:
    """Variable-DC-link lookup rows for a grid of commanded voltages.

    Solves once at full modulation (or reuses base_solution) and analyses
    that solution once; each row then follows by duty scaling: the base
    angles and THD, and duty times the base fundamental. Every row carries
    the base feasibility flag, since duty scaling preserves the residuals in
    per-unit terms exactly.
    """
    grid = _check_grid(v_pu_grid)
    base = base_solution
    if base is None:
        base = solve(replace(problem, target_m=1.0), pso)
    # the base solve is pinned at full modulation, so the duty that reaches v
    # is v itself
    thd = pattern_thd(base.pattern, thd_max_order)
    fund = abs(analytic_harmonic(base.pattern, 1))
    return LookupTable(
        rows=tuple(
            LookupRow(v, PROPOSED, v, thd, base.feasible, v * fund, base.pattern.angles)
            for v in grid
        ),
        base_vdc_per_cell=problem.vdc_per_cell,
        cells=problem.cells,
        thd_max_order=thd_max_order,
    )


def compare_methods(
    v_pu_grid,
    pso: PsoConfig,
    problem: SheProblem,
    thd_max_order: int = DEFAULT_MAX_ORDER,
    jobs: int = 1,
) -> ComparisonTable:
    """Conventional re-solve at every grid point vs the duty-scaled base solve.

    The base solve (target 1.0, seed pso.seed) and the conventional solves
    run as one stacked batch (see solve_pairs). Conventional solve i, over
    the sorted grid without 1.0, uses seed derive_seed(pso.seed, i), as a
    sweep over those points would; jobs > 1 splits the batch over
    processes without changing any result. At v_pu = 1.0 both methods share
    the base operating point and the improvement is undefined.
    """
    grid = _check_grid(v_pu_grid)
    below_full = [v for v in grid if v != 1.0]
    pairs = [(1.0, pso.seed)]
    pairs += [(v, derive_seed(pso.seed, i)) for i, v in enumerate(below_full)]
    base, *solved = solve_pairs(problem, pairs, pso, jobs)
    conventional = solved + [base] * (len(grid) - len(below_full))
    # duty scaling carries the base THD to every grid point (see build_lookup)
    thd_p = pattern_thd(base.pattern, thd_max_order)

    rows = []
    for v, conv in zip(grid, conventional):
        thd_c = pattern_thd(conv.pattern, thd_max_order)
        improvement = None if thd_c == thd_p else (thd_c - thd_p) / thd_c
        rows.append(
            ComparisonRow(
                v_pu=v,
                thd_conventional=thd_c,
                thd_proposed=thd_p,
                improvement=improvement,
                feasible_conventional=conv.feasible,
                feasible_proposed=base.feasible,
            )
        )
    return ComparisonTable(
        rows=tuple(rows),
        base_solution=base,
        conventional=tuple(conventional),
    )


def _angle_headers(k: int) -> list[str]:
    return [f"theta_{i + 1}" for i in range(k)]


def lookup_csv(table: LookupTable):
    """Lookup CSV text, line by line; 17-digit angles parse back bit-exactly."""
    k = len(table.rows[0].angles) if table.rows else 0
    header = LOOKUP_COLUMNS + _angle_headers(k)
    yield ",".join(header) + "\n"
    # build_lookup gives every row the base's one angles tuple, so a table
    # formats its angle columns once
    angles = angle_text = None
    for r in table.rows:
        if r.angles is not angles:
            angles = r.angles
            angle_text = "".join("," + format(a, ".17g") for a in angles)
        cells = [
            repr(r.v_pu),
            r.method,
            repr(r.duty),
            repr(100.0 * r.thd),
            "true" if r.feasible else "false",
            repr(r.fundamental_v),
        ]
        yield ",".join(cells) + angle_text + "\n"


def read_lookup_csv(
    path,
    base_vdc_per_cell: float = SheProblem.vdc_per_cell,
    cells: int = SheProblem.cells,
    thd_max_order: int = DEFAULT_MAX_ORDER,
) -> LookupTable:
    """Parse a lookup CSV back; structural metadata comes from the caller
    (it lives in the run manifest, not in the CSV schema). A header other
    than lookup_csv's, a row whose field count differs from the header's,
    whose feasible flag is not true/false, whose number does not parse, whose
    thd_pct or fundamental_v is not finite and >= 0, or whose angles are not
    nondecreasing within [0, pi/2] raises ShePwmError naming its line."""
    rows = []
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        if header != LOOKUP_COLUMNS + _angle_headers(len(header) - len(LOOKUP_COLUMNS)):
            raise ShePwmError(f"{path}, line 1: not a lookup CSV header")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            where = f"{path}, line {lineno}"
            if len(parts) != len(header):
                raise ShePwmError(f"{where}: {len(parts)} fields, header {len(header)}")
            if parts[4] not in ("true", "false"):
                raise ShePwmError(f"{where}: feasible is {parts[4]!r}, not true/false")
            try:
                v_pu, duty, thd_pct, fund, *angles = (
                    float(x) for x in parts[:1] + parts[2:4] + parts[5:])
            except ValueError as exc:
                raise ShePwmError(f"{where}: {exc}") from None
            if not all(0.0 <= x < math.inf for x in (thd_pct, fund)):
                raise ShePwmError(f"{where}: negative or non-finite THD or fundamental")
            if not all(0.0 <= a <= b <= HALF_PI
                       for a, b in zip(angles, angles[1:] + [HALF_PI])):
                raise ShePwmError(f"{where}: angles decrease or leave [0, pi/2]")
            rows.append(LookupRow(v_pu, parts[1], duty, thd_pct / 100.0,
                                  parts[4] == "true", fund, tuple(angles)))
    return LookupTable(
        rows=tuple(rows),
        base_vdc_per_cell=base_vdc_per_cell,
        cells=cells,
        thd_max_order=thd_max_order,
    )


def lookup_json(table: LookupTable):
    """Lookup JSON text (indent 2), streamed in encoder chunks."""
    doc = {
        "base_vdc_per_cell": table.base_vdc_per_cell,
        "cells": table.cells,
        "thd_max_order": table.thd_max_order,
        "rows": [
            {
                "v_pu": r.v_pu,
                "method": r.method,
                "duty": r.duty,
                "thd_pct": 100.0 * r.thd,
                "feasible": r.feasible,
                "fundamental_v": r.fundamental_v,
                "angles_rad": list(r.angles),
            }
            for r in table.rows
        ],
    }
    yield from json.JSONEncoder(indent=2).iterencode(doc)
    yield "\n"


def comparison_csv(table: ComparisonTable):
    """Comparison CSV text, line by line, with the improvement column; '-'
    marks the undefined improvement at a shared operating point."""
    header = [
        "v_pu",
        "thd_conventional_pct",
        "thd_proposed_pct",
        "improvement_pct",
        "feasible_conventional",
        "feasible_proposed",
    ]
    yield ",".join(header) + "\n"
    for r in table.rows:
        imp = "-" if r.improvement is None else repr(100.0 * r.improvement)
        yield ",".join(
            [
                repr(r.v_pu),
                repr(100.0 * r.thd_conventional),
                repr(100.0 * r.thd_proposed),
                imp,
                "true" if r.feasible_conventional else "false",
                "true" if r.feasible_proposed else "false",
            ]
        ) + "\n"
