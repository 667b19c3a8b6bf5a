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
and the row at v has duty v and fundamental_v = v * the base fundamental;
it owns every rule of a table. ``build_lookup`` analyses the base solution
once; ``read_lookup_csv`` refuses a file whose rows are not its table's.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, replace

from .errors import (GridPositionError, ShePwmError, apply_rules, check_count,
                     check_nonnegative, check_real, check_sequence)
from .harmonics import DEFAULT_MAX_ORDER, analytic_spectrum, pattern_thd, plan_spectrum, thd
from .optimizer import PsoConfig, derive_seed
from .pattern import check_angles, check_vdc
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


def check_lookup_grid(grid, name: str = "grid") -> tuple[float, ...]:
    """grid as a tuple of reals; refuse an empty one, or with a GridPositionError
    the first value outside (0, 1] or below the one before."""
    grid = check_sequence(grid, name, check_real)
    if not grid:
        raise ShePwmError("empty per-unit voltage grid")
    prev = 0.0
    for i, v in enumerate(grid):
        if not 0.0 < v <= 1.0:
            raise GridPositionError(i, f"grid value {v!r} outside (0, 1]")
        if v < prev:
            raise GridPositionError(
                i, f"lookup grid must be sorted ascending: {v!r} after {prev!r}")
        prev = v
    return grid


def check_flag(value, name: str) -> bool:
    """value as a bool, refused unless it equals True or False; "no", 2 and
    an array (no one truth value) are refused, not cast."""
    if getattr(value, "ndim", 0) or value not in (True, False):
        raise ShePwmError(f"{name} must be True or False, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class LookupTable:
    """One base operating point, duty-scaled to each voltage of a grid.

    Each field obeys its rule in ``RULES``, and no row fundamental is subnormal.
    Angles, thd, feasible and fundamental_v (volts at the full DC link) are
    the base's; the row at v has duty v and fundamental v * fundamental_v.
    """

    grid: tuple[float, ...]
    angles: tuple[float, ...]
    thd: float
    feasible: bool
    fundamental_v: float
    base_vdc_per_cell: float
    cells: int
    thd_max_order: int

    # kept as Python floats, ints and a bool, whose repr the writers print
    RULES = (("grid", check_lookup_grid), ("feasible", check_flag),
             ("thd", check_nonnegative), ("fundamental_v", check_nonnegative),
             ("base_vdc_per_cell", check_vdc), ("cells", check_count),
             ("thd_max_order", check_count), ("angles", check_angles))

    def __post_init__(self):
        apply_rules(self, self.RULES)
        for i, v in enumerate(self.grid):  # too coarse to give the fundamental back
            if 0.0 < v * self.fundamental_v < sys.float_info.min:
                raise GridPositionError(i, f"row fundamental {v * self.fundamental_v!r} V "
                                           f"at v_pu {v!r} is subnormal")

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
    """The base solution's lookup table beside each grid value's conventional
    solution and THD; every row's proposed THD and flag are the table's."""

    proposed: LookupTable
    base_solution: Solution
    conventional: tuple[Solution, ...]
    thd_conventional: tuple[float, ...]

    @property
    def rows(self) -> tuple[ComparisonRow, ...]:
        p, thd_c = self.proposed, self.thd_conventional
        return tuple(ComparisonRow(v, c, p.thd, None if c == p.thd else (c - p.thd) / c,
                                   conv.feasible, p.feasible)
                     for v, conv, c in zip(p.grid, self.conventional, thd_c))


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
    grid = check_lookup_grid(sorted(check_sequence(v_pu_grid, "grid", check_real)))
    thd_max_order = check_count(thd_max_order, "thd_max_order")
    plan_spectrum(problem.n_angles, thd_max_order)  # before any solve
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
    processes without changing any result. The proposed side is build_lookup's
    table of the base solve; at v_pu = 1.0 both methods share the base
    operating point and the improvement is undefined."""
    grid = check_lookup_grid(sorted(check_sequence(v_pu_grid, "grid", check_real)))
    thd_max_order = check_count(thd_max_order, "thd_max_order")
    plan_spectrum(problem.n_angles, thd_max_order)  # before any solve
    below_full = [v for v in grid if v != 1.0]
    pairs = [(1.0, pso.seed)]
    pairs += [(v, derive_seed(pso.seed, i)) for i, v in enumerate(below_full)]
    base, *solved = solve_pairs(problem, pairs, pso, jobs)
    conventional = solved + [base] * (len(grid) - len(below_full))
    proposed = build_lookup(grid, pso, problem, thd_max_order, base_solution=base)
    thd_c = tuple(pattern_thd(c.pattern, thd_max_order) for c in conventional)
    return ComparisonTable(proposed, base, tuple(conventional), thd_c)


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


def _base_fundamental(rows: list[LookupRow]) -> float:
    """The first F with v_pu * F == fundamental_v on the most leading rows (on
    all, in a file the writer made) among the top row's fundamental_v / v_pu
    and two ulps either side: a once-rounded normal product puts F there."""
    top = rows[-1]
    lo = hi = top.fundamental_v / top.v_pu
    candidates = [lo]
    for _ in range(2):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        candidates += [lo, hi]
    return max(candidates, key=lambda f: next(
        (i for i, r in enumerate(rows) if r.v_pu * f != r.fundamental_v), len(rows)))


def read_lookup_csv(
    path,
    base_vdc_per_cell: float = SheProblem.vdc_per_cell,
    cells: int = SheProblem.cells,
    thd_max_order: int = DEFAULT_MAX_ORDER,
) -> LookupTable:
    """Parse a lookup CSV back into its table; structural metadata comes from
    the caller (it lives in the run manifest, not in the CSV schema).

    It parses, builds the table of the first row's THD, flag and angles,
    the v_pu column and the fundamental_v column's base fundamental, and
    compares each row with the table's by value. A metadata argument the table
    refuses is refused by name before the file is read. ShePwmError names the
    line of a foreign header or one with no rows, a wrong field count, a flag
    not true/false, an unparsable number, a v_pu the grid rule refuses, the
    first row when the table refuses a base figure, and the first row that
    differs (its THD as the thd_pct column)."""
    base_vdc_per_cell = check_vdc(base_vdc_per_cell, "base_vdc_per_cell")
    cells = check_count(cells, "cells")
    thd_max_order = check_count(thd_max_order, "thd_max_order")
    lines, pcts, rows = [], [], []
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
                v_pu, duty, thd_pct, fund, *angles = map(
                    float, parts[:1] + parts[2:4] + parts[5:])
            except ValueError as exc:
                raise ShePwmError(f"{where}: {exc}") from None
            lines.append(lineno)
            pcts.append(thd_pct)
            rows.append(LookupRow(v_pu, parts[1], duty, thd_pct / 100.0,
                                  parts[4] == "true", fund, tuple(angles)))
    if not rows:
        raise ShePwmError(f"{path}, line 1: a header with no rows")
    grid, base = tuple(r.v_pu for r in rows), rows[0]
    try:
        check_lookup_grid(grid)  # before a v_pu of 0 divides a fundamental_v
        table = LookupTable(grid, base.angles, base.thd, base.feasible,
                            _base_fundamental(rows), base_vdc_per_cell, cells,
                            thd_max_order)
    except GridPositionError as exc:
        raise ShePwmError(f"{path}, line {lines[exc.position]}: {exc}") from None
    except ShePwmError as exc:
        raise ShePwmError(f"{path}, line {lines[0]}: {exc}") from None
    for lineno, pct, row, expected in zip(lines, pcts, rows, table.rows):
        for name, got in vars(row).items():
            want = vars(expected)[name]
            if got != want:
                if name == "thd":  # named as the file has it, in percent
                    name, got, want = "thd_pct", pct, 100.0 * want
                raise ShePwmError(f"{path}, line {lineno}: {name} is {got!r}, "
                                  f"not the table's {want!r}")
    return table


def lookup_json(table: LookupTable):
    """Lookup JSON text, the bytes json.JSONEncoder(indent=2) writes.

    The encoder writes the head, and one row whose v_pu, duty and
    fundamental_v are markers, once per table; each grid value fills that
    row's text in at the markers.
    """
    encode = json.JSONEncoder(indent=2).encode
    head, sep, tail = encode({"base_vdc_per_cell": table.base_vdc_per_cell,
                              "cells": table.cells, "thd_max_order": table.thd_max_order,
                              "rows": ["@row", "@row"]}).split('"@row"')
    row = encode({"v_pu": "@v", "method": PROPOSED, "duty": "@v",
                  "thd_pct": 100.0 * table.thd, "feasible": table.feasible,
                  "fundamental_v": "@f", "angles_rad": list(table.angles)})
    # a row sits two levels deep, so each of its line breaks indents 4 more
    row_open, to_duty, to_fundamental, row_close = re.split(
        '"@[vf]"', row.replace("\n", "\n    "))
    yield head
    for i, v in enumerate(table.grid):
        yield (f"{sep if i else ''}{row_open}{v!r}{to_duty}{v!r}{to_fundamental}"
               f"{v * table.fundamental_v!r}{row_close}")
    yield tail + "\n"


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
