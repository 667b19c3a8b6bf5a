"""In-process half of the benchmark, started by run.py as a child process.

    python3 perfbench/inproc.py routes --seed S --seconds T --out RESULT.json
    python3 perfbench/inproc.py trace --workload W --seed S --seconds T \
        --workdir DIR --spans SPANS.jsonl --out RESULT.json

``routes`` times the analyze-routes library calls, one batch per run, for T
seconds, with a host reference chunk after each batch. ``trace`` alternates
an untraced and a traced in-process run of a workload (``shepwm.cli.main``
with the same argv as the timed CLI runs), then probes the batched cost
kernel. Both write one JSON result and exit.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import shepwm
from shepwm import cli, dclink, harmonics, pattern, she

import tracer as tr
import workloads as W

MIN_BATCHES = 3
PROBE_ROWS = (50, 250, 2500)
PROBE_SECONDS = 0.08  # timing budget per probe shape


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _out_of_time(start: float, last: float, seconds: float, done: int, least: int):
    elapsed = perf_counter() - start
    return done >= least and elapsed + last > seconds


def routes(args) -> dict:
    patterns = W.route_patterns(args.seed)
    problem, base = W.route_base()
    batches, refs, digests = [], [W.host_reference()], set()
    chk = W.Checked()
    start = perf_counter()
    while True:
        t0, c0 = perf_counter(), _cpu_s()
        res = W.route_batch(patterns, problem, base)
        wall, cpu = perf_counter() - t0, _cpu_s() - c0
        batches.append((wall, cpu))
        refs.append(W.host_reference())
        one = W.route_check(patterns, problem, base, res)
        chk.add(one)
        chk.quality = one.quality
        digests.add(W.route_digest(res))
        if _out_of_time(start, wall + refs[-1][0], args.seconds, len(batches),
                        MIN_BATCHES):
            break
    chk.item(len(digests) == 1, "determinism: route batches differ")
    return {"batches": batches, "refs": refs, "check": vars(chk)}


def kernel_probe() -> dict:
    """µs per particle-row of the public batched cost at P rows x K angles.

    The cosine count P*K*(1+|orders|) and the bytes moved (angles read plus
    costs written, 8 bytes each) are computed from the shape, not measured.
    """
    cost_batch = getattr(shepwm, "cost_batch", None)
    if cost_batch is None:
        return {}
    rng = np.random.default_rng(0)
    out = {}
    for k, signs in ((6, None), (8, W.K8_SIGNS)):
        problem = she.SheProblem(target_m=0.8, cells=2, angles_per_cell=k // 2,
                                 sign_pattern=signs)
        orders = len(problem.eliminate_orders)
        for p in PROBE_ROWS:
            pts = rng.random((p, k)) * (math.pi / 2)
            t0 = perf_counter()
            cost_batch(pts, problem)
            reps = min(200, max(5, int(PROBE_SECONDS / (perf_counter() - t0))))
            times = []
            for _ in range(reps):
                t0 = perf_counter()
                cost_batch(pts, problem)
                times.append(perf_counter() - t0)
            key = f"kernels.probe.k{k}_p{p}"
            out[f"{key}.us_per_row"] = 1e6 * statistics.median(times) / p
            out[f"{key}.cos_evals_computed"] = p * k * (1 + orders)
            out[f"{key}.bytes_computed"] = 8 * (p * k + p)
    return out


def _main(argv: list[str]) -> int:
    """shepwm.cli.main; a traceback or SystemExit becomes an exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def trace(args) -> dict:
    tracer = tr.Tracer({"she": she, "dclink": dclink, "cli": cli,
                        "harmonics": harmonics, "pattern": pattern})
    workdir = Path(args.workdir)
    cli_w = W.CLI_WORKLOADS.get(args.workload)
    if cli_w is None:
        patterns = W.route_patterns(args.seed)
        problem, base = W.route_base()

    def run_once(d: Path, traced: bool) -> tuple[float, dict]:
        """One workload run, timed without its answer checks."""
        d.mkdir(parents=True)
        root = "cli.main" if cli_w is not None else "bench.routes"
        t0 = perf_counter()
        with tracer.span(root) if traced else nullcontext():
            if cli_w is not None:
                rc = _main(cli_w.args(args.seed, d))
            else:
                res = W.route_batch(patterns, problem, base,
                                    span=tracer.span if traced else None)
        wall = perf_counter() - t0
        if cli_w is not None:
            return wall, {"dir": str(d), "rc": rc}
        chk = W.route_check(patterns, problem, base, res)
        return wall, {"digest": W.route_digest(res), "check": vars(chk)}

    untraced, traced, layer_runs, runs = [], [], [], []
    start = perf_counter()
    while True:
        rep = len(runs)
        wall_u, rec_u = run_once(workdir / f"untraced{rep}", False)
        tracer.reset()
        tracer.install()
        try:
            wall_t, rec_t = run_once(workdir / f"traced{rep}", True)
        finally:
            tracer.uninstall()
        layers = tr.layer_metrics(tracer)
        layers["trace.unattributed_s"] = wall_t - layers["trace.attributed_s"]
        layer_runs.append(layers)
        untraced.append(wall_u)
        traced.append(wall_t)
        runs.append({
            "untraced": rec_u,
            "traced": rec_t,
            "solves": {"calls": layers["she.solve_calls"],
                       "cost_sum": tracer.counts["she.cost_sum"]},
        })
        if _out_of_time(start, wall_u + wall_t, args.seconds, len(runs), 1):
            break
    tracer.write_spans(args.spans)
    metrics = tr.median_metrics(layer_runs)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    metrics.update(kernel_probe())
    return {"runs": runs, "metrics": metrics, "absent": tracer.absent_layers(),
            "spans_file": args.spans}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("routes", "trace"))
    p.add_argument("--workload", default="analyze-routes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", default=None)
    p.add_argument("--spans", default=None, help="where the last traced run's spans go")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    result = routes(args) if args.mode == "routes" else trace(args)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
