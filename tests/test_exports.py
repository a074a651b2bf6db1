"""Every public name of the package has a caller inside it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtraj"

# the library form of ``converge``: the command runs its parts
# (report_parts, assemble_report) in two lanes instead of calling it
NO_CALLER_NEEDED = {"run_full_report"}


def test_every_export_is_loaded_outside_init():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    loaded = {node.id for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert len(exported) > 20
    assert [name for name in exported
            if name not in loaded and name not in NO_CALLER_NEEDED] == []
