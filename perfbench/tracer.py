"""Spans around shepwm's layer boundaries, installed from outside the package.

The tracer replaces module attributes that callers look up at call time
(``she.minimize``, ``dclink.solve``, ``cli.write_manifest`` ...) with wrappers
that record one span per call: name, start, end, parent span and request id.
Spans stay in memory; ``write_spans`` dumps them once at the end. A target
that no longer exists is skipped, and a layer whose targets are all missing
is reported as absent instead of failing the run.

Layer names are the modules of ``src/shepwm``; the span name's prefix before
the first dot is its layer. ``bench`` marks the benchmark's own code.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("kernels", "optimizer", "she", "harmonics", "pattern", "dclink", "cli",
          "manifest")


def _count_rows(counts, args, kwargs, result):
    counts["kernels.rows"] += len(args[0])


def _count_iterations(counts, args, kwargs, result):
    cfg = kwargs.get("config", args[2] if len(args) > 2 else None)
    counts["optimizer.iterations"] += cfg.iterations * cfg.restarts
    counts["optimizer.evaluations"] += result.evaluations
    counts["optimizer.useful_iter"] += result.converged_iteration / cfg.iterations


def _record_solution(counts, args, kwargs, result):
    counts["she.cost_sum"] += result.cost


def _count_lookup_rows(counts, args, kwargs, result):
    counts["dclink.lookup_rows"] += len(result.rows)


# (span name, module attributes that callers look up, post-call counter).
# One wrapper serves every attribute bound to the same function object.
TARGETS = (
    ("kernels.cost_batch", (("she", "cost_batch"),), _count_rows),
    ("optimizer.minimize", (("she", "minimize"),), _count_iterations),
    ("she.solve", (("she", "solve"), ("dclink", "solve"), ("cli", "solve")),
     _record_solution),
    ("she.sweep", (("cli", "sweep"),), None),
    ("harmonics.pattern_thd", (("dclink", "pattern_thd"), ("cli", "pattern_thd")),
     None),
    ("harmonics.analytic_spectrum", (("harmonics", "analytic_spectrum"),), None),
    ("harmonics.analytic_harmonic",
     (("she", "analytic_harmonic"), ("dclink", "analytic_harmonic")), None),
    ("harmonics.thd", (("harmonics", "thd"),), None),
    ("harmonics.segment", (("harmonics", "segment_integral_harmonic"),), None),
    ("harmonics.dft", (("harmonics", "dft_spectrum"),), None),
    ("pattern.validate", (("harmonics", "validate"), ("pattern", "validate")), None),
    ("pattern.synthesize", (("pattern", "synthesize"),), None),
    ("dclink.build_lookup", (("cli", "build_lookup"), ("dclink", "build_lookup")),
     _count_lookup_rows),
    ("dclink.compare_methods", (("cli", "compare_methods"),), None),
    ("cli.write", (("cli", "write_lookup_csv"), ("cli", "write_lookup_json"),
                   ("cli", "write_comparison_csv")), None),
    ("manifest.make", (("cli", "make_manifest"),), None),
    ("manifest.write", (("cli", "write_manifest"),), None),
)


class Tracer:
    """In-memory span recorder; install() swaps the wrappers in, uninstall() out."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.saved: list[tuple] = []
        self.present: set[str] = set()
        self._solve_ordinal = 0

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()
        self._solve_ordinal = 0

    def _open(self, name: str, rid) -> list:
        parent = self.stack[-1] if self.stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        rec = [name, perf_counter(), 0.0, parent, rid]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, rid=None):
        rec = self._open(name, rid)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, on_exit):
        tracer = self
        is_solve = name == "she.solve"

        def wrapper(*args, **kwargs):
            rid = None
            if is_solve:
                rid = f"target-{tracer._solve_ordinal}"
                tracer._solve_ordinal += 1
            rec = tracer._open(name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_exit is not None:
                on_exit(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_parser(self, fn):
        tracer = self

        def build_parser(*args, **kwargs):
            with tracer.span("cli.build_parser"):
                parser = fn(*args, **kwargs)
            parse = parser.parse_args

            def parse_args(*a, **k):
                with tracer.span("cli.parse_args"):
                    return parse(*a, **k)

            parser.parse_args = parse_args
            return parser

        return build_parser

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        plan = list(TARGETS) + [("cli.build_parser", (("cli", "build_parser"),), None)]
        for name, attrs, on_exit in plan:
            for mod_name, attr in attrs:
                module = self.modules.get(mod_name)
                fn = getattr(module, attr, None) if module is not None else None
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    if name == "cli.build_parser":
                        wrappers[id(fn)] = self._wrap_parser(fn)
                    else:
                        wrappers[id(fn)] = self._wrap(name, fn, on_exit)
                self.saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
                self.present.add(name.split(".")[0])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved = []

    def absent_layers(self) -> list[str]:
        return [layer for layer in LAYERS if layer not in self.present]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps([name, start, end, parent, rid]) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy and self times of one traced run.

    A span's self time is its duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap and the
    self times of all spans under a root add up to the root's duration.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]

    count: Counter = Counter()
    busy: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    harm_top = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        count[name] += 1
        busy[name] += dur[i]
        self_by_name[name] += self_t[i]
        layer = name.split(".")[0]
        self_by_layer[layer] += self_t[i]
        if layer == "harmonics" and not (
            parent >= 0 and spans[parent][0].startswith("harmonics.")
        ):
            harm_top += dur[i]

    c = tracer.counts
    rows = c["kernels.rows"]
    k_calls = count["kernels.cost_batch"]
    opt_calls = count["optimizer.minimize"]
    iters = c["optimizer.iterations"]
    spectra = count["harmonics.analytic_spectrum"]
    io_names = ("cli.write", "manifest.make", "manifest.write")
    return {
        "kernels.calls": k_calls,
        "kernels.rows": rows,
        "kernels.rows_per_call": rows / k_calls if k_calls else 0.0,
        "kernels.busy_s": busy["kernels.cost_batch"],
        "kernels.us_per_row": 1e6 * busy["kernels.cost_batch"] / rows if rows else 0.0,
        "optimizer.calls": opt_calls,
        "optimizer.iterations": iters,
        "optimizer.evaluations": c["optimizer.evaluations"],
        "optimizer.self_s": self_by_layer["optimizer"],
        "optimizer.us_per_iteration":
            1e6 * self_by_layer["optimizer"] / iters if iters else 0.0,
        "optimizer.useful_iter_frac":
            c["optimizer.useful_iter"] / opt_calls if opt_calls else 0.0,
        "she.solve_calls": count["she.solve"],
        "she.self_s": self_by_name["she.solve"],
        "she.pool_wait_s": self_by_name["she.sweep"],
        "harmonics.spectrum_calls": spectra,
        "harmonics.us_per_spectrum":
            1e6 * busy["harmonics.analytic_spectrum"] / spectra if spectra else 0.0,
        "harmonics.segment_busy_s": busy["harmonics.segment"],
        "harmonics.dft_busy_s": busy["harmonics.dft"],
        "harmonics.busy_s": harm_top,
        "harmonics.self_s": self_by_layer["harmonics"],
        "pattern.validate_calls": count["pattern.validate"],
        "pattern.synthesize_busy_s": busy["pattern.synthesize"],
        "pattern.self_s": self_by_layer["pattern"],
        "dclink.lookup_rows": c["dclink.lookup_rows"],
        "dclink.self_s": self_by_layer["dclink"],
        "cli.parse_s": busy["cli.build_parser"] + busy["cli.parse_args"],
        "cli.self_s": self_by_layer["cli"],
        "manifest.self_s": self_by_layer["manifest"],
        "io.busy_s": sum(busy[n] for n in io_names),
        "bench.self_s": self_by_layer["bench"],
        "trace.spans": len(spans),
        "trace.attributed_s": sum(self_t),
    }


def median_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-key median over repeated runs (counts repeat exactly)."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
