import ast
from pathlib import Path

import shepwm


def test_every_exported_name_resolves():
    missing = [name for name in shepwm.__all__ if not hasattr(shepwm, name)]
    assert missing == []


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
