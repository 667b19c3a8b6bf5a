"""Command-line surface: solve, sweep, table, compare, analyze.

Angles are radians everywhere unless --degrees is given, which converts at
the input/output boundary only. Every file output gets a
`<output>.manifest.json` sidecar with the fully resolved configuration.

Exit status: 0 on success, 1 when the full-modulation base point of a
table/compare run misses the feasibility thresholds (outputs are still
written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .dclink import (
    build_lookup,
    compare_methods,
    write_comparison_csv,
    write_lookup_csv,
    write_lookup_json,
)
from .errors import InfeasibleBasePoint, ShePwmError, ZeroFundamental
from .harmonics import analytic_spectrum, pattern_thd, thd, write_spectrum_csv
from .manifest import make_manifest, write_manifest
from .optimizer import PsoConfig
from .pattern import SwitchingPattern, synthesize, write_waveform_csv
from .she import SheProblem, Solution, solve, sweep

GRID_STOP_SLACK = 1e-9


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer")
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _pu(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"per-unit value {text!r} is not a number")
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"per-unit value {value} outside [0, 1]")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


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


def _signs(text: str) -> tuple[int, ...]:
    values = _int_list(text)
    for v in values:
        if v not in (1, -1):
            raise argparse.ArgumentTypeError(f"sign {v} must be +1 or -1")
    return tuple(values)


def _weights(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError("weights must be two numbers: A,B")
    return values[0], values[1]


def parse_grid(text: str) -> list[float]:
    """`start:stop:step` (inclusive of stop within 1e-9) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"grid {text!r} must look like start:stop:step"
            )
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
        values = []
        i = 0
        while True:
            v = start + i * step
            if v > stop + GRID_STOP_SLACK:
                break
            values.append(round(v, 12))
            i += 1
    else:
        values = _float_list(text)
    if not values:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise argparse.ArgumentTypeError(f"grid value {v} outside [0, 1]")
    return values


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cells", type=_positive_int, default=2,
                   help="series H-bridge cells s (default 2)")
    p.add_argument("--angles-per-cell", type=_positive_int, default=3,
                   help="switching angles per cell k; K = k*s (default 3)")
    p.add_argument("--vdc", type=float, default=200.0,
                   help="nominal per-cell DC voltage in volts (default 200)")
    p.add_argument("--eliminate", type=_int_list, default=[3, 5, 7, 9, 11],
                   metavar="N,N,...", help="odd harmonic orders to eliminate")
    p.add_argument("--signs", type=_signs, default=None, metavar="S,S,...",
                   help="transition signs (+1/-1 per angle); default per K")
    p.add_argument("--weights", type=_weights, default=(100.0, 10.0), metavar="A,B",
                   help="fundamental,harmonic cost weights (default 100,10)")


def _add_pso_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, required=True,
                   help="base seed (unsigned 64-bit, required)")
    p.add_argument("--swarm", type=_positive_int, default=50)
    p.add_argument("--iterations", type=_positive_int, default=500)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--inertia-start", type=float, default=0.9)
    p.add_argument("--inertia-end", type=float, default=0.4)
    p.add_argument("--cognitive", type=float, default=2.0)
    p.add_argument("--social", type=float, default=2.0)
    p.add_argument("--velocity-clamp", type=float, default=0.2)


def _problem(args, target_m: float = 1.0) -> SheProblem:
    return SheProblem(
        target_m=target_m,
        eliminate_orders=tuple(args.eliminate),
        cells=args.cells,
        angles_per_cell=args.angles_per_cell,
        sign_pattern=args.signs,
        weight_fundamental=args.weights[0],
        weight_harmonics=args.weights[1],
        vdc_per_cell=args.vdc,
    )


def _pso(args) -> PsoConfig:
    return PsoConfig(
        seed=args.seed,
        swarm_size=args.swarm,
        iterations=args.iterations,
        restarts=args.restarts,
        inertia_start=args.inertia_start,
        inertia_end=args.inertia_end,
        cognitive=args.cognitive,
        social=args.social,
        velocity_clamp_fraction=args.velocity_clamp,
    )


def _solver_config(problem: SheProblem, pso: PsoConfig, **extra) -> dict:
    return {"problem": asdict(problem), "pso": asdict(pso), **extra}


def _thd_pct_or_none(sol: Solution, max_order: int):
    """THD in percent; None when the fundamental vanished (zero target)."""
    try:
        return 100.0 * pattern_thd(sol.pattern, max_order)
    except ZeroFundamental:
        return None


def _solution_doc(sol: Solution, degrees: bool, max_order: int) -> dict:
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
        "fundamental_v": sol.fundamental_pu * sol.pattern.base_volts,
        "thd_pct": _thd_pct_or_none(sol, max_order),
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
    problem = _problem(args, target_m=args.pu)
    pso = _pso(args)
    sol = solve(problem, pso)
    text = json.dumps(_solution_doc(sol, args.degrees, args.max_order), indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        cfg = _solver_config(problem, pso, max_order=args.max_order,
                             degrees=args.degrees, out=args.out)
        write_manifest(make_manifest("solve", cfg, pso.seed), args.out)
    return 0


def _sweep_csv_text(solutions: list[Solution], max_order: int) -> str:
    k = solutions[0].pattern.n_angles
    header = ["target_pu", "feasible", "cost", "fundamental_pu", "thd_pct"]
    header += [f"theta_{i + 1}" for i in range(k)]
    lines = [",".join(header)]
    for s in solutions:
        thd_pct = _thd_pct_or_none(s, max_order)
        row = [
            repr(s.target_m),
            "true" if s.feasible else "false",
            repr(s.cost),
            repr(s.fundamental_pu),
            "nan" if thd_pct is None else repr(thd_pct),
        ]
        row += [format(a, ".17g") for a in s.pattern.angles]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    problem = _problem(args)
    pso = _pso(args)
    solutions = sweep(problem, args.pu_grid, pso, jobs=args.jobs)
    text = _sweep_csv_text(solutions, args.max_order)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        cfg = _solver_config(problem, pso, pu_grid=args.pu_grid,
                             max_order=args.max_order, jobs=args.jobs, out=args.out)
        write_manifest(make_manifest("sweep", cfg, pso.seed), args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_table(args) -> int:
    problem = _problem(args)
    pso = _pso(args)
    table = build_lookup(
        args.pu_grid, pso, problem,
        thd_max_order=args.max_order,
        require_feasible_base=args.require_feasible_base,
    )
    write_lookup_csv(table, args.out)
    cfg = _solver_config(problem, pso, pu_grid=args.pu_grid,
                         max_order=args.max_order, out=args.out,
                         json_out=args.json_out,
                         require_feasible_base=args.require_feasible_base)
    write_manifest(make_manifest("table", cfg, pso.seed), args.out)
    if args.json_out:
        write_lookup_json(table, args.json_out)
        write_manifest(make_manifest("table", cfg, pso.seed), args.json_out)
    return 0 if all(r.feasible for r in table.rows) else 1


def _cmd_compare(args) -> int:
    problem = _problem(args)
    pso = _pso(args)
    table = compare_methods(
        args.pu_grid, pso, problem, thd_max_order=args.max_order, jobs=args.jobs
    )
    write_comparison_csv(table, args.out)
    cfg = _solver_config(problem, pso, pu_grid=args.pu_grid,
                         max_order=args.max_order, jobs=args.jobs, out=args.out)
    write_manifest(make_manifest("compare", cfg, pso.seed), args.out)
    return 0 if table.base_solution.feasible else 1


def _infer_cells(signs: tuple[int, ...]) -> int:
    level = peak = 0
    for sg in signs:
        level += sg
        peak = max(peak, level)
    return max(peak, 1)


def _cmd_analyze(args) -> int:
    angles = args.angles
    if args.degrees:
        angles = [math.radians(a) for a in angles]
    cells = args.cells if args.cells is not None else _infer_cells(args.signs)
    pattern = SwitchingPattern(
        angles=tuple(angles), signs=args.signs, cells=cells, vdc_per_cell=args.vdc
    )
    spectrum = analytic_spectrum(pattern, args.max_order)
    ratio = thd(spectrum)
    doc = {
        "fundamental_v": spectrum.fundamental,
        "thd": ratio,
        "thd_pct": 100.0 * ratio,
        "max_order": args.max_order,
        "base_volts": spectrum.base_volts,
        "cells": cells,
        "spectrum": [
            {
                "order": n,
                "magnitude_v": spectrum.magnitudes[n],
                "pct_of_fundamental": 100.0 * spectrum.magnitudes[n] / spectrum.fundamental,
            }
            for n in range(1, args.max_order + 1)
        ],
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
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
    if args.emit_waveform:
        write_waveform_csv(synthesize(pattern, args.samples), args.emit_waveform)
        write_manifest(make_manifest("analyze", cfg, None), args.emit_waveform)
    if args.emit_spectrum:
        write_spectrum_csv(spectrum, args.emit_spectrum)
        write_manifest(make_manifest("analyze", cfg, None), args.emit_spectrum)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shepwm",
        description="Selective harmonic elimination toolkit for cascaded "
                    "H-bridge inverters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one target and print JSON")
    p_solve.add_argument("--pu", type=_pu, required=True,
                         help="target per-unit fundamental in [0, 1]")
    _add_problem_args(p_solve)
    _add_pso_args(p_solve)
    p_solve.add_argument("--max-order", type=_positive_int, default=49)
    p_solve.add_argument("--degrees", action="store_true",
                         help="emit angles in degrees")
    p_solve.add_argument("--out", default=None, help="also write the JSON here")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="independent solves over a grid (CSV)")
    p_sweep.add_argument("--pu-grid", type=parse_grid, required=True,
                         metavar="START:STOP:STEP")
    _add_problem_args(p_sweep)
    _add_pso_args(p_sweep)
    p_sweep.add_argument("--max-order", type=_positive_int, default=49)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_table = sub.add_parser(
        "table", help="variable-DC-link lookup table from one base solve"
    )
    p_table.add_argument("--pu-grid", type=parse_grid, required=True,
                         metavar="START:STOP:STEP")
    _add_problem_args(p_table)
    _add_pso_args(p_table)
    p_table.add_argument("--max-order", type=_positive_int, default=49)
    p_table.add_argument("--out", required=True, help="lookup CSV path")
    p_table.add_argument("--json-out", default=None, help="optional JSON mirror")
    p_table.add_argument("--require-feasible-base", action="store_true",
                         help="error out instead of flagging an infeasible base")
    p_table.set_defaults(func=_cmd_table)

    p_cmp = sub.add_parser(
        "compare", help="conventional vs variable-DC-link THD over a grid"
    )
    p_cmp.add_argument("--pu-grid", type=parse_grid, required=True,
                       metavar="START:STOP:STEP")
    _add_problem_args(p_cmp)
    _add_pso_args(p_cmp)
    p_cmp.add_argument("--max-order", type=_positive_int, default=49)
    p_cmp.add_argument("--jobs", type=_positive_int, default=1)
    p_cmp.add_argument("--out", required=True, help="comparison CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_an = sub.add_parser("analyze", help="THD and spectrum of a given pattern")
    p_an.add_argument("--angles", type=_float_list, required=True,
                      metavar="A1,A2,...")
    p_an.add_argument("--signs", type=_signs, required=True, metavar="S1,S2,...")
    p_an.add_argument("--vdc", type=float, default=200.0)
    p_an.add_argument("--cells", type=_positive_int, default=None,
                      help="cell count (default: peak level of the signs)")
    p_an.add_argument("--max-order", type=_positive_int, default=49)
    p_an.add_argument("--samples", type=_positive_int, default=65536,
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
    except InfeasibleBasePoint as exc:
        print(f"shepwm: infeasible base point: {exc}", file=sys.stderr)
        return 1
    except ShePwmError as exc:
        print(f"shepwm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
