#!/usr/bin/env python3
"""Layered benchmark of shepwm: timed end-to-end runs, or one traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--workload all`` (the default) runs every workload in turn. With
``--trace 0`` each workload is timed from outside for about T seconds and the
end-to-end metrics are the medians over its runs. With ``--trace 1`` a child
process runs the workload in-process with spans around each shepwm layer and
reports per-layer metrics. Every answer a run produced is checked, and a
same-seed rerun must write byte-identical primary outputs; the last stdout
line is a JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when any check fails, 2 when there is no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
ROUTES = "analyze-routes"
WORKLOADS = ("compare-k6-paper", "table-k8-fine", ROUTES, "sweep-k6-jobs2")
MIN_REPEATS = 3  # timed runs per workload, at least, whatever --seconds says
SETUP_LAUNCHES = 7  # `python -m shepwm --version` launches per set-up figure
# Gated end-to-end metrics (BENCHMARK.json). wall_s and cpu_s are printed too,
# but their spread follows the shared host's drift; see workloads.host_reference.
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("cpu_ref", "ref"),
              ("peak_rss_mb", "MB"))
PRINTED = END_TO_END + (("wall_s", "s"), ("cpu_s", "s"), ("ref_wall_s", "s"))
QUALITY = (("final_cost", "cost"), ("feasible_frac", "ratio"),
           ("thd_proposed_pct", "%"), ("thd_conventional_pct", "%"),
           ("route_err_pu", "pu"))


# Single-process runs and the host reference chunks between them share one
# CPU, so that the reference sees the contention the run saw; runs that fan
# out to a process pool get every CPU.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
PINNED = frozenset({min(ALL_CPUS)})


@dataclass
class Launch:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stderr: str


class Launcher:
    """Runs children through launch.py, a helper started while this process
    is still small, so that wait4's peak RSS is the child's own. CPU time and
    peak RSS cover the child and every process it reaped (pool workers)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], cwd: Path, cpus=PINNED) -> Launch:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        req = {"argv": argv, "cwd": str(cwd), "env": env, "cpus": sorted(cpus)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: launch.py exited")
        r = json.loads(reply)
        return Launch(r["wall"], r["cpu"], r["rss_kb"] / 1024.0, r["rc"],
                      (cwd / "stderr.txt").read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def shepwm_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "shepwm", *args]


def measure_setup(spawn, work: Path, chk) -> float:
    """Median wall time of `python -m shepwm --version` after one warm-up."""
    import shepwm

    d = work / "setup"
    d.mkdir()
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        r = spawn(shepwm_argv(["--version"]), d)
        ok = r.rc == 0 and (d / "stdout.txt").read_text().strip() == shepwm.__version__
        chk.item(ok, f"setup: --version exit {r.rc}")
        if i:
            times.append(r.wall)
    return statistics.median(times)


def same_outputs(a: Path, b: Path, names) -> bool:
    try:
        return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    except FileNotFoundError:
        return False


def check_cli_run(w, d: Path, rc: int, stderr: str):
    """Answer checks on one CLI run; a crash or unreadable output fails every
    answer the run owed."""
    import workloads as W  # imported once main() has put src/ on the path

    why = f"exit {rc}: {stderr.strip()[-200:]}"
    if "Traceback" not in stderr and rc in (0, 1):
        try:
            return w.check(d, rc)
        except Exception as exc:  # malformed output is a failed answer
            why = f"unreadable output: {exc!r}"
    chk = W.Checked()
    for _ in range(w.answers + 1):
        chk.item(False, f"{w.name}: {why}")
    return chk


def jobs1_matches(spawn, w, seed: int, work: Path, reference: Path, chk) -> None:
    """sweep --jobs 2 must write what --jobs 1 writes (untimed extra run)."""
    d = work / "jobs1"
    d.mkdir()
    args = w.args(seed, d)
    args[args.index("--jobs") + 1] = "1"
    r = spawn(shepwm_argv(args), d)
    ok = r.rc == 0 and same_outputs(d, reference, w.outputs)
    chk.item(ok, "determinism: sweep --jobs 2 differs from --jobs 1")


def timed(spawn, name: str, seed: int, seconds: float, work: Path):
    import workloads as W

    chk = W.Checked()
    metrics = {"setup_s": measure_setup(spawn, work, chk)}
    if name == ROUTES:
        result = work / "routes.json"
        r = spawn([sys.executable, str(HERE / "inproc.py"), "routes",
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--out", str(result)], work)
        if r.rc != 0:
            raise SystemExit(f"perfbench: routes child failed:\n{r.stderr}")
        res = json.loads(result.read_text())
        chk.add(W.Checked(**res["check"]))
        chk.quality = res["check"]["quality"]
        metrics.update(_times(res["batches"], res["refs"]))
        metrics["peak_rss_mb"] = r.rss_mb
        return metrics, chk, {"runs": len(res["batches"])}

    w = W.CLI_WORKLOADS[name]
    runs, refs = [], [W.host_reference()]
    start = perf_counter()
    while True:
        d = work / f"run{len(runs)}"
        d.mkdir()
        r = spawn(shepwm_argv(w.args(seed, d)), d,
                  ALL_CPUS if w.parallel else PINNED)
        runs.append((d, r))
        refs.append(W.host_reference())
        if (len(runs) >= MIN_REPEATS
                and perf_counter() - start + r.wall + refs[-1][0] > seconds):
            break
    for d, r in runs:
        one = check_cli_run(w, d, r.rc, r.stderr)
        chk.add(one)
        chk.quality = chk.quality or one.quality
    first = runs[0][0]
    chk.item(all(r.rc == runs[0][1].rc for _, r in runs)
             and all(same_outputs(first, d, w.outputs) for d, _ in runs[1:]),
             "determinism: same-seed reruns differ")
    if w.parallel:
        jobs1_matches(spawn, w, seed, work, first, chk)
    metrics.update(_times([(r.wall, r.cpu) for _, r in runs], refs))
    metrics["peak_rss_mb"] = statistics.median(r.rss_mb for _, r in runs)
    return metrics, chk, {"runs": len(runs)}


def _times(runs, refs) -> dict:
    """Median wall and CPU seconds of the runs, and the same in units of the
    host reference chunks run between them."""
    wall = statistics.median(w for w, _ in runs)
    cpu = statistics.median(c for _, c in runs)
    ref_wall = statistics.median(w for w, _ in refs)
    ref_cpu = statistics.median(c for _, c in refs)
    return {"wall_s": wall, "cpu_s": cpu, "ref_wall_s": ref_wall,
            "wall_ref": wall / ref_wall, "cpu_ref": cpu / ref_cpu}


def traced(spawn, name: str, seed: int, seconds: float, work: Path):
    import workloads as W

    chk = W.Checked()
    result = work / "trace.json"
    parallel = name in W.CLI_WORKLOADS and W.CLI_WORKLOADS[name].parallel
    r = spawn([sys.executable, str(HERE / "inproc.py"), "trace",
               "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
               "--workdir", str(work / "trace"), "--out", str(result),
               "--spans", str(WORK / f"spans-{name}-seed{seed}.jsonl")], work,
              ALL_CPUS if parallel else PINNED)
    if r.rc != 0:
        raise SystemExit(f"perfbench: trace child failed:\n{r.stderr}")
    res = json.loads(result.read_text())
    metrics = res["metrics"]
    runs = res["runs"]
    if name == ROUTES:
        for run in runs:
            for mode in ("untraced", "traced"):
                chk.add(W.Checked(**run[mode]["check"]))
                chk.quality = run[mode]["check"]["quality"]
        digests = {run[m]["digest"] for run in runs for m in ("untraced", "traced")}
        chk.item(len(digests) == 1, "determinism: traced routes differ")
    else:
        w = W.CLI_WORKLOADS[name]
        dirs = []
        for run in runs:
            for mode in ("untraced", "traced"):
                d = Path(run[mode]["dir"])
                one = check_cli_run(w, d, run[mode]["rc"], "")
                chk.add(one)
                chk.quality = chk.quality or one.quality
                dirs.append(d)
        chk.item(all(same_outputs(dirs[0], d, w.outputs) for d in dirs[1:]),
                 "determinism: traced and untraced outputs differ")
        if w.parallel:
            jobs1_matches(spawn, w, seed, work, dirs[0], chk)
        last = Path(runs[-1]["traced"]["dir"])
        files = [p for p in last.iterdir() if p.name not in ("stdout.txt", "stderr.txt")]
        metrics["io.files"] = len(files)
        metrics["io.bytes_written"] = sum(p.stat().st_size for p in files)
        solves = runs[-1]["solves"]
        if "final_cost" not in chk.quality and solves["calls"]:
            chk.quality["final_cost"] = solves["cost_sum"] / solves["calls"]
    metrics.setdefault("io.files", 0)
    metrics.setdefault("io.bytes_written", 0)
    return metrics, chk, {"runs": len(runs), "absent_layers": res["absent"],
                          "spans_file": res["spans_file"]}


def environment() -> dict:
    import numpy
    import shepwm

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def git(*args):
        try:
            p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                               text=True, timeout=30,
                               env=dict(os.environ,
                                        GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    backend = getattr(shepwm, "backend", None)
    return {
        "nproc": len(ALL_CPUS),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "kernel_backend": backend() if callable(backend) else "absent",
        "pinned_cpus": sorted(PINNED),
    }


def run_workload(spawn, name: str, args) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else timed
        metrics, chk, info = run(spawn, name, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    quality = {k: chk.quality.get(k) for k, _ in QUALITY}
    quality["failed_frac"] = chk.failed / chk.attempted
    if args.trace:
        metrics.update({f"quality.{k}": v or 0.0 for k, v in quality.items()})
    return {"workload": name, "metrics": metrics, "quality": quality,
            "attempted": chk.attempted, "failed": chk.failed,
            "problems": chk.problems, **info}


# Self (exclusive) time of each layer in a traced run; they add up to the
# traced in-process wall time, which is the CLI's wall time minus set-up.
SELF_TIMES = ("kernels.busy_s", "optimizer.self_s", "she.self_s", "she.pool_wait_s",
              "harmonics.self_s", "pattern.self_s", "dclink.self_s", "cli.self_s",
              "manifest.self_s", "bench.self_s")


def report(res: dict, trace: bool) -> None:
    name = res["workload"]
    m = res["metrics"]
    if not trace:
        for k, unit in PRINTED:
            print(f"{name:18} {k:22} {m[k]:.6g} {unit}")
    else:
        wall = m["trace.wall_s"]
        for k in SELF_TIMES:
            print(f"{name:18} {k:22} {m[k]:.6g} s ({100 * m[k] / wall:.1f}% of traced)")
        print(f"{name:18} {'trace.wall_s':22} {wall:.6g} s (untraced "
              f"{m['trace.untraced_wall_s']:.6g} s, "
              f"overhead {m['trace.overhead_s']:.3g} s)")
        if res["absent_layers"]:
            print(f"{name:18} absent layers: {', '.join(res['absent_layers'])}")
    for k, unit in QUALITY:
        v = res["quality"][k]
        print(f"{name:18} {k:22} {'n/a' if v is None else format(v, '.6g')} {unit}")
    print(f"{name:18} {'failed_frac':22} {res['quality']['failed_frac']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"{name:18} FAILED {p}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be > 0 and --seed >= 0")
    if not (SRC / "shepwm" / "__init__.py").is_file():
        print(f"perfbench: no shepwm package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    launcher = Launcher()  # before numpy and shepwm grow this process
    os.sched_setaffinity(0, PINNED)  # where the host reference chunks run
    try:
        env = environment()
        print("# env " + json.dumps(env, sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            res = run_workload(launcher.run, name, args)
            report(res, args.trace)
            results.append(res)
    finally:
        launcher.close()
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"env": env, "seconds": args.seconds, "results": results}, fh,
                  indent=1)

    gated = {k for k, _ in END_TO_END}
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for k, v in res["metrics"].items():
            if args.trace or k in gated:
                metrics[prefix + k] = {"value": v, "unit": _unit(k)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _unit(key: str) -> str:
    """Unit of a metric, read off its name."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf == "peak_rss_mb":
        return "MB"
    if leaf.endswith("_ref"):
        return "ref"
    if leaf.endswith("_s"):
        return "s"
    if leaf.startswith("us_per"):
        return "us"
    if leaf.endswith("_pct"):
        return "%"
    if leaf.endswith("_pu"):
        return "pu"
    if leaf.startswith("bytes"):
        return "bytes"
    if leaf.endswith("_frac") or leaf == "rows_per_call":
        return "ratio"
    if leaf == "final_cost":
        return "cost"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
