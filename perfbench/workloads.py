"""The benchmark's workloads: their inputs, and the checks on their answers.

Every input is made from the benchmark's seed. The three CLI workloads run
``python -m shepwm``; ``analyze-routes`` calls the library in one process.
Each check returns how many answers it looked at, how many were wrong, and the
quality figures of the run (the paper's THD columns, solve costs and
feasibility, route agreement).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import numpy as np

import shepwm
from shepwm import dclink, harmonics, pattern, she

THRESHOLD_PU = getattr(she, "RESIDUAL_THRESHOLD_PU", 1e-3)
FUNDAMENTAL_THRESHOLD_PU = getattr(she, "FUNDAMENTAL_THRESHOLD_PU", 1e-3)
# The acceptance suite's bound on THD invariance under duty scaling: duty
# scaling changes the THD only in its last bits (criterion 4).
THD_INVARIANCE_PCT = 1e-12 * 100.0
K8_SIGNS = (1, -1, 1, 1, -1, 1, -1, -1)


@dataclass
class Checked:
    """Outcome of the answer checks on one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)

    def add(self, other: "Checked") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: max(0, 5 - len(self.problems))]


@dataclass(frozen=True)
class CliWorkload:
    name: str
    argv: tuple[str, ...]  # "{seed}" and "{out}" are filled per run
    outputs: tuple[str, ...]  # primary outputs, compared byte for byte
    answers: int  # answers one run produces
    check: Callable[[Path, int], Checked]  # (output directory, exit code)

    def args(self, seed: int, out: Path) -> list[str]:
        return [a.format(seed=seed, out=out) for a in self.argv]

    @property
    def parallel(self) -> bool:
        """Runs with --jobs > 1, so its output must equal a --jobs 1 run's."""
        return "--jobs" in self.argv and self.argv[self.argv.index("--jobs") + 1] != "1"


def _compare_check(d: Path, rc: int) -> Checked:
    chk = Checked()
    with open(d / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    grid = [round(0.1 * i, 12) for i in range(1, 11)]
    chk.item([float(r["v_pu"]) for r in rows] == grid, "compare: 10 rows 0.1..1.0")
    if not rows:
        return chk
    anchor = float(rows[-1]["thd_proposed_pct"])
    base_feasible = rows[-1]["feasible_proposed"] == "true"
    for r in rows:
        v = float(r["v_pu"])
        ok = abs(float(r["thd_proposed_pct"]) - anchor) <= THD_INVARIANCE_PCT
        ok &= (r["improvement_pct"] == "-") == (v == 1.0)
        ok &= (r["feasible_proposed"] == "true") == base_feasible
        chk.item(ok, f"compare: row v_pu={v}")
    chk.item(rc == (0 if base_feasible else 1), f"compare: exit code {rc}")
    conv = [float(r["thd_conventional_pct"]) for r in rows]
    chk.quality = {
        "thd_proposed_pct": anchor,
        "thd_conventional_pct": sum(conv) / len(conv),
        "feasible_frac":
            sum(r["feasible_conventional"] == "true" for r in rows) / len(rows),
    }
    return chk


def _feasible_from_angles(angles, signs, cells, vdc, target, orders) -> bool:
    pat = shepwm.SwitchingPattern(tuple(angles), tuple(signs), cells, vdc)
    base = cells * vdc
    fund = abs(harmonics.analytic_harmonic(pat, 1)) / base
    return abs(fund - target) <= FUNDAMENTAL_THRESHOLD_PU and all(
        abs(harmonics.analytic_harmonic(pat, n)) / base <= THRESHOLD_PU
        for n in orders
    )


def _table_check(d: Path, rc: int) -> Checked:
    chk = Checked()
    table = dclink.read_lookup_csv(d / "table.csv", 200.0, 2)
    with open(d / "table.json") as fh:
        mirror = json.load(fh)["rows"]
    grid = [round(0.001 * i, 12) for i in range(1, 1001)]
    chk.item([r.v_pu for r in table.rows] == grid and len(mirror) == len(grid),
             "table: 1000 rows 0.001..1.0")
    if not table.rows:
        return chk
    anchor = 100.0 * table.rows[-1].thd
    feasible_of: dict[tuple, bool] = {}
    for r, m in zip(table.rows, mirror):
        if r.angles not in feasible_of:
            feasible_of[r.angles] = _feasible_from_angles(
                r.angles, K8_SIGNS, 2, 200.0, 1.0, she.DEFAULT_ELIMINATE)
        ok = (r.v_pu, r.duty, r.fundamental_v, r.feasible, list(r.angles)) == (
            m["v_pu"], m["duty"], m["fundamental_v"], m["feasible"], m["angles_rad"])
        ok &= r.thd == m["thd_pct"] / 100.0
        ok &= r.method == "proposed" and r.duty == r.v_pu
        ok &= abs(100.0 * r.thd - anchor) <= THD_INVARIANCE_PCT
        ok &= r.feasible == feasible_of[r.angles]
        chk.item(ok, f"table: row v_pu={r.v_pu}")
    all_feasible = all(r.feasible for r in table.rows)
    chk.item(rc == (0 if all_feasible else 1), f"table: exit code {rc}")
    base = table.rows[-1]
    problem = she.SheProblem(target_m=1.0, cells=2, angles_per_cell=4,
                             sign_pattern=K8_SIGNS)
    chk.quality = {
        "thd_proposed_pct": anchor,
        "feasible_frac": float(base.feasible),
        "final_cost": she.cost(list(base.angles), problem),
    }
    return chk


SWEEP_GRID = [round(0.2 + 0.1 * i, 12) for i in range(8)]


def _sweep_check(d: Path, rc: int) -> Checked:
    chk = Checked()
    with open(d / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    chk.item([float(r["target_pu"]) for r in rows] == SWEEP_GRID,
             "sweep: one row per target")
    costs, thds, feasible = [], [], []
    for r in rows:
        target = float(r["target_pu"])
        angles = [float(r[f"theta_{i}"]) for i in range(1, 7)]
        problem = she.SheProblem(target_m=target)
        cost = she.cost(angles, problem)
        thd_pct = 100.0 * harmonics.pattern_thd(problem.make_pattern(angles))
        ok = cost == float(r["cost"]) and thd_pct == float(r["thd_pct"])
        ok &= (r["feasible"] == "true") == _feasible_from_angles(
            angles, problem.sign_pattern, 2, 200.0, target, she.DEFAULT_ELIMINATE)
        chk.item(ok, f"sweep: row target={target}")
        costs.append(cost)
        thds.append(thd_pct)
        feasible.append(r["feasible"] == "true")
    chk.item(rc == 0, f"sweep: exit code {rc}")
    if rows:
        chk.quality = {
            "final_cost": sum(costs) / len(costs),
            "thd_conventional_pct": sum(thds) / len(thds),
            "feasible_frac": sum(feasible) / len(feasible),
        }
    return chk


CLI_WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "compare-k6-paper",
            ("compare", "--pu-grid", "0.1:1.0:0.1", "--seed", "{seed}",
             "--jobs", "1", "--out", "{out}/compare.csv"),
            ("compare.csv",), 10, _compare_check),
        CliWorkload(
            "table-k8-fine",
            ("table", "--cells", "2", "--angles-per-cell", "4",
             "--signs", ",".join(str(s) for s in K8_SIGNS), "--iterations", "2000",
             "--pu-grid", "0.001:1.0:0.001", "--seed", "{seed}",
             "--out", "{out}/table.csv", "--json-out", "{out}/table.json"),
            ("table.csv", "table.json"), 1000, _table_check),
        CliWorkload(
            "sweep-k6-jobs2",
            ("sweep", "--pu-grid", "0.2:0.9:0.1", "--jobs", "2", "--seed", "{seed}",
             "--out", "{out}/sweep.csv"),
            ("sweep.csv",), 8, _sweep_check),
    )
}


# ----------------------------------------------------------------------------
# Host reference: fixed work that never touches shepwm.

REFERENCE_STEPS = 50000  # about 0.8 s


def host_reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed chunk of Python and small-array numpy
    work, the same kind of work the workloads do.

    On a shared host the speed of a core drifts by up to 2x over minutes as
    other tenants come and go. Run between the timed runs and on the same
    CPU, this chunk slows with them, so a run's time divided by the
    reference's time (``wall_ref``, ``cpu_ref``) drifts less than the run's
    time and moves when shepwm's own cost moves.
    """
    x = np.random.default_rng(0).random((50, 6)) * 1.5
    t0, c0 = perf_counter(), process_time()
    acc = 0.0
    for i in range(REFERENCE_STEPS):
        acc += float(np.abs(np.cos((i % 5 + 1) * np.sort(x, axis=1))).sum())
        for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            acc += math.cos(v * i)
    if not math.isfinite(acc):
        raise RuntimeError("host reference produced a non-finite sum")
    return perf_counter() - t0, process_time() - c0


# ----------------------------------------------------------------------------
# analyze-routes: library calls only, no PSO.

ROUTE_PATTERNS = 200
ROUTE_ORDERS = 49
DFT_SAMPLES = 8192
LOOKUP_GRID = [round(0.001 * i, 12) for i in range(1, 1001)]
# A fixed K=6 base for the 1000-point lookup (the README's example angles).
BASE_ANGLES = (0.087, 0.26, 0.44, 0.61, 0.79, 0.96)


def route_patterns(seed: int) -> list:
    """Seeded valid patterns: K in {6, 8, 10, 12}, random cells, signs, V_dc.

    A pattern whose fundamental is below 1e-9 of its base has no defined THD,
    so it is drawn again.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < ROUTE_PATTERNS:
        k = int(rng.choice((6, 8, 10, 12)))
        divisors = [s for s in range(1, k + 1) if k % s == 0]
        cells = int(divisors[rng.integers(len(divisors))])
        signs, level = [], 0
        for _ in range(k):
            options = [sg for sg in (1, -1) if 0 <= level + sg <= cells]
            sg = options[rng.integers(len(options))]
            signs.append(sg)
            level += sg
        angles = np.sort(rng.random(k) * (np.pi / 2))
        vdc = float(50.0 + 450.0 * rng.random())
        pat = shepwm.SwitchingPattern(tuple(angles), tuple(signs), cells, vdc)
        if abs(harmonics.analytic_harmonic(pat, 1)) > 1e-9 * pat.base_volts:
            out.append(pat)
    return out


def route_base():
    """The fixed base solution and problem that the lookup is scaled from."""
    problem = she.SheProblem(target_m=1.0)
    pat = problem.make_pattern(BASE_ANGLES)
    base = problem.base_volts
    solution = she.Solution(
        pattern=pat,
        cost=she.cost(list(BASE_ANGLES), problem),
        fundamental_pu=abs(harmonics.analytic_harmonic(pat, 1)) / base,
        residuals_pu={n: abs(harmonics.analytic_harmonic(pat, n)) / base
                      for n in problem.eliminate_orders},
        feasible=False,
        diagnostics=None,
        target_m=1.0,
    )
    return problem, solution


def route_batch(patterns, problem, base, span=None) -> dict:
    """One analyze-routes run: three spectrum routes per pattern, then a lookup.

    Library functions are looked up on their modules at call time, so the
    tracer's wrappers see these calls. ``span(name, rid)`` opens a benchmark
    span per pattern when tracing.
    """
    n = len(patterns)
    closed = np.empty((n, ROUTE_ORDERS))
    seg = np.empty((n, ROUTE_ORDERS))
    dft = np.empty((n, ROUTE_ORDERS))
    thd = np.empty(n)
    for i, pat in enumerate(patterns):
        with span("bench.pattern", f"pattern-{i}") if span else nullcontext():
            _routes_of(pat, i, closed, seg, dft, thd)
    table = dclink.build_lookup(
        LOOKUP_GRID, shepwm.PsoConfig(seed=0), problem, base_solution=base)
    return {"closed": closed, "seg": seg, "dft": dft, "thd": thd, "table": table}


def _routes_of(pat, i, closed, seg, dft, thd) -> None:
    orders = range(1, ROUTE_ORDERS + 1)
    spec = harmonics.analytic_spectrum(pat, ROUTE_ORDERS)
    thd[i] = harmonics.thd(spec)
    closed[i] = [spec.magnitudes[k] for k in orders]
    seg[i] = [harmonics.segment_integral_harmonic(pat, k) for k in orders]
    samples = pattern.synthesize(pat, DFT_SAMPLES)
    d = harmonics.dft_spectrum(samples, ROUTE_ORDERS, base_volts=pat.base_volts)
    dft[i] = [d.magnitudes[k] for k in orders]


def route_digest(res: dict) -> str:
    """Hash of every number a route batch produced, for the determinism check."""
    h = hashlib.sha256()
    for key in ("closed", "seg", "dft", "thd"):
        h.update(res[key].tobytes())
    for r in res["table"].rows:
        row = [r.v_pu, r.duty, r.thd, r.fundamental_v, *r.angles]
        h.update(np.asarray(row).tobytes())
    return h.hexdigest()


def route_check(patterns, problem, base, res: dict) -> Checked:
    """The three routes agree, and the lookup rows are duty-scaled copies.

    Closed form and segment integration agree to the acceptance suite's
    1e-10 relative bound. The DFT of an N = 8192 sample waveform differs from
    the exact coefficients by folded harmonics and edge quantisation, both
    bounded by a multiple of total variation / (pi * N); the worst seen over
    6000 patterns is 2.1x, and the check allows 4x, as the acceptance suite
    does, with no relative slack.
    """
    chk = Checked()
    worst = 0.0
    for i, pat in enumerate(patterns):
        vdc, base_v = pat.vdc_per_cell, pat.base_volts
        closed, seg, dft = res["closed"][i], np.abs(res["seg"][i]), res["dft"][i]
        odd = np.arange(1, ROUTE_ORDERS + 1) % 2 == 1
        seg_tol = np.where(odd, 1e-10 * np.maximum(closed, seg) + 1e-12 * vdc,
                           1e-9 * vdc)
        aliasing = 4.0 * (4 * pat.n_angles * vdc) / (math.pi * DFT_SAMPLES)
        ok = bool(np.all(np.abs(seg - closed) <= seg_tol))
        ok &= bool(np.all(np.abs(dft - closed) <= aliasing))
        ok &= math.isfinite(res["thd"][i]) and res["thd"][i] > 0.0
        err = max(np.max(np.abs(seg - closed)), np.max(np.abs(dft - closed)),
                  np.max(np.abs(dft - seg))) / base_v
        worst = max(worst, float(err))
        chk.item(ok, f"routes: pattern {i} (K={pat.n_angles}) disagrees")
    rows = res["table"].rows
    chk.item([r.v_pu for r in rows] == LOOKUP_GRID, "routes: lookup grid")
    anchor = rows[-1].thd
    fund = rows[-1].fundamental_v
    for r in rows:
        ok = r.duty == r.v_pu and r.angles == base.pattern.angles
        ok &= abs(r.thd - anchor) <= THD_INVARIANCE_PCT / 100.0
        ok &= abs(r.fundamental_v - r.v_pu * fund) <= 1e-12 * fund
        ok &= r.feasible == base.feasible
        chk.item(ok, f"routes: lookup row v_pu={r.v_pu}")
    chk.quality = {"route_err_pu": worst, "thd_proposed_pct": 100.0 * anchor}
    return chk
