"""numpy is the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "banditmip"


def test_every_import_is_relative_numpy_or_stdlib():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import, or no import at all
            found += [(path.name, name) for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not found, f"imports beyond numpy and the standard library: {found}"
