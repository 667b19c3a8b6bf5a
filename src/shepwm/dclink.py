"""Variable-DC-link operation: lookup tables and method comparison.

The conventional approach re-solves the elimination problem at every
commanded per-unit voltage and feeds the cells from the nominal DC link.
The variable-DC-link approach solves once at full modulation and reaches
lower outputs by scaling every cell's DC voltage through the duty cycle of
an idealized isolated DC-DC converter (output = duty * input, all cells
driven identically). Scaling the DC link scales every harmonic by the same
factor, so the full-modulation solution's THD carries over unchanged to the
entire output range. ``LookupTable`` is that law as a type: one base record
(angles, THD, feasibility, fundamental) and a grid of commanded voltages,
and the row at v has duty v and fundamental_v = v * the base fundamental.
``build_lookup`` analyses the base solution once; ``read_lookup_csv`` refuses
a file whose rows are not one base scaled by duty.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

from .errors import ShePwmError
from .harmonics import DEFAULT_MAX_ORDER, analytic_spectrum, pattern_thd, thd
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
    """One base operating point, duty-scaled to each voltage of a grid.

    grid is ascending within (0, 1]; angles, thd, feasible and fundamental_v
    (volts at the full DC link) are the base's. The row at v has duty v and
    fundamental v * fundamental_v. A row fundamental that is subnormal
    (nonzero, below the smallest normal float) is refused: it has lost
    bits, so the base fundamental could not be recovered from the CSV.
    """

    grid: tuple[float, ...]
    angles: tuple[float, ...]
    thd: float
    feasible: bool
    fundamental_v: float
    base_vdc_per_cell: float
    cells: int
    thd_max_order: int

    def __post_init__(self):
        grid = _check_grid(self.grid)
        if grid != list(self.grid):
            raise ShePwmError("lookup grid must be sorted ascending")
        object.__setattr__(self, "grid", tuple(grid))
        for v in grid:
            if 0.0 < v * self.fundamental_v < sys.float_info.min:
                raise ShePwmError(
                    f"row fundamental {v * self.fundamental_v!r} V at v_pu {v!r} "
                    "is subnormal")

    @property
    def rows(self) -> tuple[LookupRow, ...]:
        return tuple(
            LookupRow(v, PROPOSED, v, self.thd, self.feasible,
                      v * self.fundamental_v, self.angles)
            for v in self.grid
        )


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
    """Variable-DC-link lookup table for a grid of commanded voltages.

    Solves once at full modulation (or reuses base_solution) and takes the
    base THD and fundamental from one spectrum of that solution. The base
    solve is pinned at full modulation, so the duty that reaches v is v
    itself; every row carries the base feasibility flag, since duty scaling
    preserves the residuals in per-unit terms exactly.
    """
    grid = _check_grid(v_pu_grid)
    base = base_solution
    if base is None:
        base = solve(replace(problem, target_m=1.0), pso)
    spectrum = analytic_spectrum(base.pattern, thd_max_order)
    return LookupTable(
        grid=tuple(grid),
        angles=base.pattern.angles,
        thd=thd(spectrum),
        feasible=base.feasible,
        fundamental_v=spectrum.fundamental,
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
    yield ",".join(LOOKUP_COLUMNS + _angle_headers(len(table.angles))) + "\n"
    # every row shares the base's THD, flag and angles: format them once
    thd_flag = f"{100.0 * table.thd!r},{'true' if table.feasible else 'false'}"
    angles = "".join("," + format(a, ".17g") for a in table.angles)
    for v in table.grid:
        yield f"{v!r},{PROPOSED},{v!r},{thd_flag},{v * table.fundamental_v!r}{angles}\n"


def _read_base(parts: list[str], where: str) -> tuple[float, bool, tuple[float, ...]]:
    """The base THD ratio, feasible flag and angles of a lookup CSV row."""
    if parts[4] not in ("true", "false"):
        raise ShePwmError(f"{where}: feasible is {parts[4]!r}, not true/false")
    try:
        thd_pct, *angles = (float(x) for x in parts[3:4] + parts[6:])
    except ValueError as exc:
        raise ShePwmError(f"{where}: {exc}") from None
    if not 0.0 <= thd_pct < math.inf:
        raise ShePwmError(f"{where}: negative or non-finite THD")
    if not all(0.0 <= a <= b <= HALF_PI
               for a, b in zip(angles, angles[1:] + [HALF_PI])):
        raise ShePwmError(f"{where}: angles decrease or leave [0, pi/2]")
    return thd_pct / 100.0, parts[4] == "true", tuple(angles)


def _base_fundamental(path, rows: list[tuple[int, float, float]]) -> float:
    """The first F with v * F == fundamental_v on every (line, v, fundamental_v)
    row, among the top row's fundamental_v / v and two ulps either side: a
    once-rounded normal product puts F there. Else the line the last of
    them failed on is named."""
    _, v, fund = rows[-1]
    lo = hi = fund / v
    candidates = [lo]
    for _ in range(2):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        candidates += [lo, hi]
    failed = 0
    for f in candidates:
        bad = next((i for i, (_, v, fund) in enumerate(rows) if v * f != fund), None)
        if bad is None:
            return f
        failed = max(failed, bad)
    raise ShePwmError(f"{path}, line {rows[failed][0]}: fundamental_v is not "
                      "v_pu times a base fundamental that the other rows share")


def read_lookup_csv(
    path,
    base_vdc_per_cell: float = SheProblem.vdc_per_cell,
    cells: int = SheProblem.cells,
    thd_max_order: int = DEFAULT_MAX_ORDER,
) -> LookupTable:
    """Parse a lookup CSV back into its table; structural metadata comes from
    the caller (it lives in the run manifest, not in the CSV schema).

    A file is outside input, so the duty-scaling law is checked here.
    ShePwmError names the line of a foreign header or one with no rows, of
    a row with the wrong field count, a flag not true/false, an unparsable
    number, a negative or non-finite THD or fundamental, or angles outside
    nondecreasing [0, pi/2], and of a row that is not the first row's base
    scaled to its v_pu: other THD, flag or angle text, a method other than
    proposed, duty != v_pu, v_pu outside (0, 1] or descending, or a
    fundamental_v that is v_pu times no base fundamental the rows share.
    """
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
            if not rows:
                base_line, base_text = lineno, parts[3:5] + parts[6:]
                base_thd, base_feasible, base_angles = _read_base(parts, where)
            elif parts[3:5] + parts[6:] != base_text:
                raise ShePwmError(
                    f"{where}: THD, feasible flag or angles differ from line {base_line}")
            if parts[1] != PROPOSED:
                raise ShePwmError(f"{where}: method {parts[1]!r}, not {PROPOSED!r}")
            try:
                v_pu, duty, fund = float(parts[0]), float(parts[2]), float(parts[5])
            except ValueError as exc:
                raise ShePwmError(f"{where}: {exc}") from None
            if duty != v_pu:
                raise ShePwmError(f"{where}: duty {duty!r} is not v_pu {v_pu!r}")
            if not (0.0 < v_pu <= 1.0 and (not rows or rows[-1][1] <= v_pu)):
                raise ShePwmError(f"{where}: v_pu {v_pu!r} outside (0, 1] or "
                                  "below the row before")
            if not 0.0 <= fund < math.inf:
                raise ShePwmError(f"{where}: negative or non-finite fundamental")
            rows.append((lineno, v_pu, fund))
    if not rows:
        raise ShePwmError(f"{path}, line 1: a header with no rows")
    return LookupTable(
        grid=tuple(v for _, v, _ in rows),
        angles=base_angles,
        thd=base_thd,
        feasible=base_feasible,
        fundamental_v=_base_fundamental(path, rows),
        base_vdc_per_cell=base_vdc_per_cell,
        cells=cells,
        thd_max_order=thd_max_order,
    )


def lookup_json(table: LookupTable):
    """Lookup JSON text (indent 2), streamed in encoder chunks."""
    thd_pct, angles = 100.0 * table.thd, list(table.angles)
    doc = {
        "base_vdc_per_cell": table.base_vdc_per_cell,
        "cells": table.cells,
        "thd_max_order": table.thd_max_order,
        "rows": [
            {
                "v_pu": v,
                "method": PROPOSED,
                "duty": v,
                "thd_pct": thd_pct,
                "feasible": table.feasible,
                "fundamental_v": v * table.fundamental_v,
                "angles_rad": angles,
            }
            for v in table.grid
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
