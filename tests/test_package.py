import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import shepwm
from shepwm import dclink

from conftest import PACKAGE_ROOT


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


def _write_mode_opens(path: Path) -> list[int]:
    """Line numbers of `open(...)` calls whose mode (second positional or
    `mode=`) is a literal holding w, a, x or +."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
               for m in modes):
            lines.append(node.lineno)
    return lines


def test_only_cli_opens_files_for_writing():
    package = Path(shepwm.__file__).parent
    writers = {p.name: _write_mode_opens(p) for p in sorted(package.glob("*.py"))}
    assert {name for name, lines in writers.items() if lines} == {"cli.py"}
    assert len(writers["cli.py"]) == 1


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
    assert set().union(*raised.values()) == {"ShePwmError", "ZeroFundamental"}


def _cosine_calls(path: Path) -> list[str]:
    """Every call to a function named `cos`, as written: `np.cos`,
    `math.cos`, a bare `cos`."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "cos":
            calls.append(ast.unparse(func))
        elif isinstance(func, ast.Name) and func.id == "cos":
            calls.append(func.id)
    return calls


def test_only_harmonics_takes_cosines():
    # the closed form sum_i s_i*cos(n*theta_i) has one implementation, the
    # recurrence in harmonics; a cosine anywhere else, or a scalar math.cos
    # loop beside it, would be a second copy
    package = Path(shepwm.__file__).parent
    calls = {p.name: _cosine_calls(p) for p in sorted(package.glob("*.py"))}
    assert {name for name, found in calls.items() if found} == {"harmonics.py"}
    assert "math.cos" not in calls["harmonics.py"]


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
