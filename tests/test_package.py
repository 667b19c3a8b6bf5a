import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import shepwm
from shepwm import dclink

from conftest import PACKAGE_ROOT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the names under which the benchmark reaches the package
BENCHMARK_MODULES = ("shepwm", "harmonics", "dclink", "she", "pattern", "cli")


def test_every_exported_name_resolves():
    missing = [name for name in shepwm.__all__ if not hasattr(shepwm, name)]
    assert missing == []


def test_import_leaves_the_process_pool_out():
    # the pool module pulls in multiprocessing; only a --jobs run needs it
    code = (
        "import sys, shepwm.cli; "
        "assert 'concurrent.futures.process' not in sys.modules, 'pool imported'"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert run.returncode == 0, run.stderr.decode()


def _file_writes(path: Path) -> list[str]:
    """Every call that may write or remove a file, as written: an `open`
    (bare or as a method) with a mode that is not a literal read mode,
    `os.remove` or `os.unlink`."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        writes = name == "open" and any(
            not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
            for m in modes)
        if writes or ast.unparse(func) in ("os.remove", "os.unlink"):
            calls.append(ast.unparse(node))
    return calls


def test_only_cli_writes_or_removes_files():
    # library modules render file text as generators; cli._write_outputs
    # alone writes the files and removes them when a run fails
    package = Path(shepwm.__file__).parent
    calls = {p.name: _file_writes(p) for p in sorted(package.glob("*.py"))}
    assert {name for name, found in calls.items() if found} == {"cli.py"}


def test_only_cli_opens_files_for_writing():
    package = Path(shepwm.__file__).parent
    opens = {p.name: [c for c in _file_writes(p) if not c.startswith("os.")]
             for p in sorted(package.glob("*.py"))}
    assert {name for name, found in opens.items() if found} == {"cli.py"}
    assert len(opens["cli.py"]) == 1


def _raised_names(path: Path) -> set[str]:
    """Names raised as `raise Name(...)` or `raise Name`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            names.add(exc.id)
    return names


def test_library_refuses_only_with_package_errors():
    package = Path(shepwm.__file__).parent
    raised = {p.name: _raised_names(p) for p in sorted(package.glob("*.py"))
              if p.name != "cli.py"}
    assert set().union(*raised.values()) == {"ShePwmError", "ZeroFundamental",
                                             "GridPositionError"}


def _calls(path: Path, name: str) -> list[str]:
    """Every call to a function named `name`, as written: `np.cos`,
    `math.cos`, a bare `cos`."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == name:
            calls.append(ast.unparse(func))
        elif isinstance(func, ast.Name) and func.id == name:
            calls.append(func.id)
    return calls


def test_only_harmonics_takes_cosines():
    # the closed form sum_i s_i*cos(n*theta_i) has one implementation, the
    # recurrence in harmonics; a cosine anywhere else, or a scalar math.cos
    # loop beside it, would be a second copy
    package = Path(shepwm.__file__).parent
    calls = {p.name: _calls(p, "cos") for p in sorted(package.glob("*.py"))}
    assert {name for name, found in calls.items() if found} == {"harmonics.py"}
    assert "math.cos" not in calls["harmonics.py"]


def test_only_she_maps_and_harmonics_sorts_nothing():
    # the swarm's map from the unit box to ascending angles has one home,
    # she._ordered_angles, with one np.log and one np.exp; the closed form
    # takes the ordered angles it is given and sorts nothing
    package = Path(shepwm.__file__).parent
    calls = {fn: {p.name: found for p in sorted(package.glob("*.py"))
                  if (found := _calls(p, fn))}
             for fn in ("power", "log", "exp")}
    assert calls == {"power": {}, "log": {"she.py": ["np.log"]}, "exp": {"she.py": ["np.exp"]}}
    assert _calls(package / "harmonics.py", "sort") == []


def _index_calls(path: Path) -> list[tuple[str, str]]:
    """(enclosing function or "<module>", call) for every call of
    operator.index, written `operator.index` or through a name imported
    from operator."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "operator"
                for alias in node.names}
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                    ast.unparse(child.func) == "operator.index"
                    or getattr(child.func, "id", None) in imported):
                calls.append((where, ast.unparse(child)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return calls


def test_only_the_count_and_seed_rules_take_an_index():
    # every count goes through errors.check_count and every seed through
    # optimizer.check_seed; an integer test anywhere else would be a copy
    package = Path(shepwm.__file__).parent
    found = {(p.name, function) for p in sorted(package.glob("*.py"))
             for function, _ in _index_calls(p)}
    assert found == {("errors.py", "check_count"), ("optimizer.py", "check_seed")}


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package, so a deletion that leaves an import
    # behind is caught here; __init__.py imports to re-export
    package = Path(shepwm.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_only_apply_rules_sets_a_frozen_field():
    # every type stores its fields through its rule table; a bare
    # object.__setattr__ anywhere else would be a rule applied by hand
    package = Path(shepwm.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Call)
                        and ast.unparse(child.func) == "object.__setattr__"):
                    found.add((path.name, where))
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, child.name if inner else where)

        visit(ast.parse(path.read_text()), "<module>")
    assert found == {("errors.py", "apply_rules")}
    assert sum(p.read_text().count("object.__setattr__") for p in package.glob("*.py")) == 1


def test_each_plan_constant_has_one_home():
    # each memory plan's constant is assigned once, beside the array it
    # measures; cli.py holds only analyze's, whose bytes are its own JSON text
    package = Path(shepwm.__file__).parent
    homes = {name: [] for name in ("COUNT_BUDGET_BYTES", "ROW_ANGLE_BYTES", "LAYER_BYTES",
                                   "SWARM_ROW_BYTES", "SWARM_DIM_BYTES", "HISTORY_BYTES",
                                   "DRAW_BUDGET_BYTES", "MAGNITUDE_BYTES", "SEGMENT_BYTES",
                                   "SAMPLE_BYTES", "SIGN_BYTES", "ORDER_BYTES")}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                homes.get(node.id, []).append(path.name)
    assert homes == {"COUNT_BUDGET_BYTES": ["errors.py"], "ROW_ANGLE_BYTES": ["she.py"],
                     "LAYER_BYTES": ["harmonics.py"], "SWARM_ROW_BYTES": ["optimizer.py"],
                     "SWARM_DIM_BYTES": ["optimizer.py"], "HISTORY_BYTES": ["optimizer.py"],
                     "DRAW_BUDGET_BYTES": ["optimizer.py"],
                     "MAGNITUDE_BYTES": ["harmonics.py"], "SEGMENT_BYTES": ["harmonics.py"],
                     "SAMPLE_BYTES": ["pattern.py"], "SIGN_BYTES": ["pattern.py"],
                     "ORDER_BYTES": ["cli.py"]}


def test_readme_lookup_schema_matches_the_header():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    schema = [line for line in readme.read_text().splitlines()
              if line.startswith("* lookup CSV: `")]
    assert len(schema) == 1
    assert schema[0].removeprefix("* lookup CSV: `").startswith(
        ",".join(dclink.LOOKUP_COLUMNS) + ",theta_1")


def test_readme_lookup_json_keys_match_the_writer():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    bullets = readme.read_text().split("\n* ")
    schema = [b for b in bullets if b.startswith("lookup JSON: ")]
    assert len(schema) == 1
    top, row = (spans.split(", ") for spans in re.findall(r"`([^`]*)`", schema[0])[:2])
    table = dclink.LookupTable((0.5, 1.0), (0.1, 0.2), 0.2, True, 300.0, 200.0, 1, 49)
    doc = json.loads("".join(dclink.lookup_json(table)))
    assert top == list(doc)
    assert [row] * 2 == [list(r) for r in doc["rows"]]


def _value_rules_section() -> str:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return readme.read_text().split("### Value rules\n", 1)[1].split("\n#", 1)[0]


def test_readme_value_rules_match_the_rule_functions():
    # every `module.function` the section cites resolves in the package,
    # and every rule function is cited there
    section = _value_rules_section()
    package = Path(shepwm.__file__).parent
    modules = {p.stem for p in package.glob("*.py")}
    cited = {(m, f) for m, f in re.findall(r"`(\w+)\.(\w+)", section) if m in modules}
    missing = [f"{m}.{f}" for m, f in sorted(cited)
               if not hasattr(importlib.import_module(f"shepwm.{m}"), f)]
    assert missing == []
    rules = {"errors.check_count", "errors.check_real", "errors.check_reals",
             "errors.check_nonnegative",
             "errors.check_sequence", "errors.apply_rules",
             "pattern.check_vdc", "pattern.check_angles", "pattern.check_signs",
             "she.check_target", "she.check_orders", "optimizer.check_seed",
             "optimizer.check_swarm_size",
             "dclink.check_flag", "dclink.check_lookup_grid",
             "harmonics.check_magnitudes"}
    assert rules - {f"{m}.{f}" for m, f in cited} == set()


def test_only_the_real_rule_tests_for_a_real():
    # every real goes through errors.check_real; a numbers.Real test
    # anywhere else would be a second copy of the rule
    package = Path(shepwm.__file__).parent
    found = {p.name for p in package.glob("*.py") if "numbers.Real" in p.read_text()}
    assert found == {"errors.py"}


def _benchmark_references() -> set[tuple[str, str, str]]:
    """(file, module, attribute) for each attribute the benchmark's code takes
    on one of BENCHMARK_MODULES, once per file."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in BENCHMARK_MODULES):
                refs.add((path.name, node.value.id, node.attr))
    return refs


def test_every_name_the_benchmark_takes_resolves():
    # the benchmark changes only on its own; a library change that drops a
    # name it calls fails here rather than in a benchmark run
    refs = _benchmark_references()
    assert {("workloads.py", "harmonics", "segment_integral_harmonic"),
            ("workloads.py", "dclink", "read_lookup_csv")} <= refs
    modules = {m: importlib.import_module("shepwm" if m == "shepwm" else f"shepwm.{m}")
               for m in BENCHMARK_MODULES}
    missing = [f"{f}: {m}.{a}" for f, m, a in sorted(refs) if not hasattr(modules[m], a)]
    assert missing == []


def test_benchmark_route_batch_passes_its_check(monkeypatch):
    # perfbench/workloads.py, read by path: its analyze-routes batch on five
    # of its patterns, judged by its own answer check
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    patterns = workloads.route_patterns(1)[:5]
    problem, base = workloads.route_base()
    res = workloads.route_batch(patterns, problem, base)
    chk = workloads.route_check(patterns, problem, base, res)
    assert chk.attempted > len(patterns)
    assert (chk.failed, chk.problems) == (0, [])
