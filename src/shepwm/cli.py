"""Command-line surface: solve, sweep, table, compare, analyze.

Angles are radians everywhere unless --degrees is given, which converts at
the input/output boundary only. `_write_outputs` writes every output: each
file, then its `<output>.manifest.json` sidecar, then stdout. The manifest
records every resolved parameter (defaults included), the seed, the tool
version and a timestamp. Re-running the recorded command with the recorded
parameters on the same platform reproduces the output byte-for-byte; the
timestamp is metadata about the original run, not an input.

Exit status: 0 on success, 1 when the full-modulation base point of a
table/compare run misses the feasibility thresholds (outputs are still
written), 2 on usage errors, on output paths that cannot be written and on
two outputs (manifests included) that name the same file, and on a run whose
arrays cannot be allocated: each count's arrays are planned against
errors.COUNT_BUDGET_BYTES before they are built. A run that exits 2 leaves no
output file and no stdout behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .dclink import build_lookup, compare_methods, comparison_csv, lookup_csv, lookup_json
from .errors import ShePwmError, check_count, check_plan
from .harmonics import (DEFAULT_MAX_ORDER, analytic_spectrum, pattern_thd, pct_of_fundamental,
                        spectrum_csv, thd)
from .optimizer import PsoConfig
from .pattern import SwitchingPattern, levels, synthesize, waveform_csv
from .she import SheProblem, Solution, solve, sweep

GRID_STOP_SLACK = 1e-9
# Cap on (stop - start) / step of a start:stop:step grid, checked before the
# grid is built.
MAX_GRID_POINTS = 1_000_000
# The bytes one order of `analyze --max-order` holds at peak: about 1.1 kB for
# its spectrum entry, its JSON record and its text.
ORDER_BYTES = 1200


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated float list")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list")


def parse_grid(text: str) -> list[float]:
    """`start:stop:step` (inclusive of stop within 1e-9) or a comma list.

    Only the syntax is checked here; the library refuses an empty grid or a
    value outside its range before any solve.
    """
    if ":" not in text:
        return _float_list(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid {text!r} must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid {text!r} has non-numeric parts")
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"grid {text!r} has non-finite parts")
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be > 0")
    if stop < start:
        raise argparse.ArgumentTypeError("grid stop must be >= start")
    if (stop - start) / step > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has more than {MAX_GRID_POINTS} points"
        )
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + GRID_STOP_SLACK:
            break
        values.append(round(v, 12))
        i += 1
    return values


# Solver flags as (flag, config field, type, help). A flag's default is its
# field's default, and the dataclass alone decides whether a value is valid.
PROBLEM_FLAGS = (
    ("--cells", "cells", int, "series H-bridge cells s"),
    ("--angles-per-cell", "angles_per_cell", int, "switching angles per cell k; K = k*s"),
    ("--vdc", "vdc_per_cell", float, "nominal per-cell DC voltage in volts"),
    ("--eliminate", "eliminate_orders", _int_list, "odd harmonic orders to eliminate"),
    ("--signs", "sign_pattern", _int_list, "transition signs, +1/-1; None: per K"),
)
PSO_FLAGS = (
    ("--swarm", "swarm_size", int, "particles per swarm"),
    ("--iterations", "iterations", int, "iterations per restart"),
    ("--restarts", "restarts", int, "independent restarts"),
)
_NOT_EXTRA = {field for _, field, _, _ in PROBLEM_FLAGS + PSO_FLAGS} | {
    "pu", "seed", "command", "func"}


def _configs(args, target_m: float) -> tuple[SheProblem, PsoConfig, dict]:
    """Problem, swarm and manifest config: both dataclasses in full, plus every
    parsed argument that is not one of their fields."""
    given = vars(args)
    problem = SheProblem(target_m, **{field: given[field] for _, field, _, _ in PROBLEM_FLAGS})
    pso = PsoConfig(args.seed, **{field: given[field] for _, field, _, _ in PSO_FLAGS})
    extra = {k: v for k, v in given.items() if k not in _NOT_EXTRA}
    return problem, pso, {"problem": asdict(problem), "pso": asdict(pso), **extra}


def _write_outputs(command: str, cfg: dict, seed: int | None, files: list,
                   stdout: str | None = None) -> None:
    """Write each file in `files` ((path, text pieces) pairs), then its
    manifest sidecar, then `stdout`. Two targets that resolve to the same
    file are refused before anything is opened. If anything raises, every
    regular file this run opened is removed before the error propagates, so
    a failed run leaves no output behind."""
    manifest = {"command": command, "config": cfg, "seed": seed, "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")}
    manifest = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    writes = [w for path, pieces in files
              for w in ((path, pieces), (f"{path}.manifest.json", [manifest]))]
    real = [os.path.realpath(target) for target, _ in writes]
    for (target, _), path in zip(writes, real):
        if real.count(path) > 1:
            raise ShePwmError(f"two outputs name the same file {target!r}")
    opened = []
    try:
        for target, text in writes:
            with open(target, "w", newline="") as fh:
                opened.append(target)
                fh.writelines(text)
        if stdout is not None:
            sys.stdout.write(stdout)
    except BaseException:
        for target in opened:
            if os.path.isfile(target) and not os.path.islink(target):
                os.remove(target)
        raise


def _json_float(x: float):
    """x, or None (JSON null) for the NaN of an undefined THD or percent."""
    return None if math.isnan(x) else x


def _solution_doc(sol: Solution, degrees: bool) -> dict:
    # the fundamental and THD of one spectrum, as build_lookup takes them
    spectrum = analytic_spectrum(sol.pattern)
    angles = list(sol.pattern.angles)
    key = "angles_rad"
    if degrees:
        angles = [math.degrees(a) for a in angles]
        key = "angles_deg"
    return {
        "target_pu": sol.target_m,
        "feasible": sol.feasible,
        "cost": sol.cost,
        "fundamental_pu": sol.fundamental_pu,
        "fundamental_v": spectrum.fundamental,
        "thd_pct": _json_float(100.0 * thd(spectrum)),
        "residuals_pu": {str(n): r for n, r in sorted(sol.residuals_pu.items())},
        key: angles,
        "signs": list(sol.pattern.signs),
        "cells": sol.pattern.cells,
        "vdc_per_cell": sol.pattern.vdc_per_cell,
        "diagnostics": {
            "best_value": sol.diagnostics.best_value,
            "evaluations": sol.diagnostics.evaluations,
            "converged_iteration": sol.diagnostics.converged_iteration,
            "winning_restart": sol.diagnostics.winning_restart,
            "restart_values": list(sol.diagnostics.restart_values),
            "restart_converged": list(sol.diagnostics.restart_converged),
        },
    }


def _cmd_solve(args) -> int:
    problem, pso, cfg = _configs(args, args.pu)
    sol = solve(problem, pso)
    text = json.dumps(_solution_doc(sol, args.degrees), indent=2) + "\n"
    _write_outputs("solve", cfg, pso.seed, [(args.out, [text])] if args.out else [], text)
    return 0


def _sweep_csv_text(solutions: list[Solution]) -> str:
    k = solutions[0].pattern.n_angles
    header = ["target_pu", "feasible", "cost", "fundamental_pu", "thd_pct"]
    header += [f"theta_{i + 1}" for i in range(k)]
    lines = [",".join(header)]
    for s in solutions:
        row = [
            repr(s.target_m),
            "true" if s.feasible else "false",
            repr(s.cost),
            repr(s.fundamental_pu),
            repr(100.0 * pattern_thd(s.pattern)),
        ]
        row += [format(a, ".17g") for a in s.pattern.angles]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    problem, pso, cfg = _configs(args, 1.0)
    solutions = sweep(problem, args.pu_grid, pso, jobs=args.jobs)
    text = _sweep_csv_text(solutions)
    files = [(args.out, [text])] if args.out else []
    _write_outputs("sweep", cfg, pso.seed, files, None if files else text)
    return 0


def _cmd_table(args) -> int:
    problem, pso, cfg = _configs(args, 1.0)
    table = build_lookup(args.pu_grid, pso, problem)
    files = [(args.out, lookup_csv(table))]
    if args.json_out:
        files.append((args.json_out, lookup_json(table)))
    _write_outputs("table", cfg, pso.seed, files)
    return 0 if table.feasible else 1


def _cmd_compare(args) -> int:
    problem, pso, cfg = _configs(args, 1.0)
    table = compare_methods(args.pu_grid, pso, problem, jobs=args.jobs)
    _write_outputs("compare", cfg, pso.seed, [(args.out, comparison_csv(table))])
    return 0 if table.proposed.feasible else 1


def _cmd_analyze(args) -> int:
    check_plan(ORDER_BYTES * check_count(args.max_order, "--max-order"), "the analysis",
               max_order=args.max_order)
    check_count(args.samples, "--samples")
    angles = args.angles
    if args.degrees:
        angles = [math.radians(a) for a in angles]
    cells = args.cells if args.cells is not None else max([1, *levels(args.signs)])
    pattern = SwitchingPattern(
        angles=tuple(angles), signs=args.signs, cells=cells, vdc_per_cell=args.vdc
    )
    spectrum = analytic_spectrum(pattern, args.max_order)
    ratio = thd(spectrum)
    doc = {
        "fundamental_v": spectrum.fundamental,
        "thd": _json_float(ratio),
        "thd_pct": _json_float(100.0 * ratio),
        "max_order": args.max_order,
        "base_volts": spectrum.base_volts,
        "cells": cells,
        "spectrum": [
            {"order": n, "magnitude_v": m, "pct_of_fundamental": _json_float(pct)}
            for n, (m, pct) in enumerate(zip(spectrum.magnitudes[1:],
                                             pct_of_fundamental(spectrum)), 1)
        ],
    }
    cfg = {
        "angles_rad": list(angles),
        "signs": list(args.signs),
        "cells": cells,
        "vdc_per_cell": args.vdc,
        "max_order": args.max_order,
        "samples": args.samples,
        "degrees": args.degrees,
        "emit_waveform": args.emit_waveform,
        "emit_spectrum": args.emit_spectrum,
    }
    files = []
    if args.emit_waveform:
        waveform = waveform_csv(synthesize(pattern, args.samples))
        files.append((args.emit_waveform, waveform))
    if args.emit_spectrum:
        files.append((args.emit_spectrum, spectrum_csv(spectrum)))
    _write_outputs("analyze", cfg, None, files, json.dumps(doc, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shepwm",
        description="Selective harmonic elimination toolkit for cascaded "
                    "H-bridge inverters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # solve, sweep, table and compare share these; the grid commands add --pu-grid
    solver = argparse.ArgumentParser(add_help=False)
    for table, cls in ((PROBLEM_FLAGS, SheProblem), (PSO_FLAGS, PsoConfig)):
        for flag, field, type_, help_ in table:
            solver.add_argument(flag, dest=field, type=type_, default=getattr(cls, field),
                                help=f"{help_} (default %(default)s)")
    solver.add_argument("--seed", type=int, required=True,
                        help="base seed (unsigned 64-bit, required)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--pu-grid", type=parse_grid, required=True,
                      metavar="START:STOP:STEP")

    p_solve = sub.add_parser("solve", parents=[solver],
                             help="solve one target and print JSON")
    p_solve.add_argument("--pu", type=float, required=True,
                         help="target per-unit fundamental in [0, 1]")
    p_solve.add_argument("--degrees", action="store_true",
                         help="emit angles in degrees")
    p_solve.add_argument("--out", default=None, help="also write the JSON here")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[grid, solver],
                             help="independent solves over a grid (CSV)")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_table = sub.add_parser(
        "table", parents=[grid, solver],
        help="variable-DC-link lookup table from one base solve",
    )
    p_table.add_argument("--out", required=True, help="lookup CSV path")
    p_table.add_argument("--json-out", default=None, help="optional JSON mirror")
    p_table.set_defaults(func=_cmd_table)

    p_cmp = sub.add_parser(
        "compare", parents=[grid, solver],
        help="conventional vs variable-DC-link THD over a grid",
    )
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.add_argument("--out", required=True, help="comparison CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_an = sub.add_parser("analyze", help="THD and spectrum of a given pattern")
    p_an.add_argument("--angles", type=_float_list, required=True,
                      metavar="A1,A2,...")
    p_an.add_argument("--signs", type=_int_list, required=True, metavar="S1,S2,...")
    p_an.add_argument("--vdc", type=float, default=SheProblem.vdc_per_cell)
    p_an.add_argument("--cells", type=int, default=None,
                      help="cell count (default: peak level of the signs)")
    p_an.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p_an.add_argument("--samples", type=int, default=65536,
                      help="samples per period for --emit-waveform")
    p_an.add_argument("--degrees", action="store_true",
                      help="interpret --angles as degrees")
    p_an.add_argument("--emit-waveform", default=None, metavar="CSV")
    p_an.add_argument("--emit-spectrum", default=None, metavar="CSV")
    p_an.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShePwmError, OSError) as exc:
        print(f"shepwm: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"shepwm: error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
