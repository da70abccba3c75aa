import ast
from pathlib import Path

import ncdef


def test_package_has_no_assert_statements():
    # certifications raise typed errors: `python -O` strips every assert
    found = []
    for path in sorted(Path(ncdef.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the echelons that linalg keeps on its objects, and the reducer's private
# insertion and tag expansion: other modules read the echelons through the
# public pivots, rows and residual only
_ECHELON_ATTRIBUTES = {"_tails", "_tags", "_tag", "_add", "_echelon", "_column_echelon"}


def test_only_linalg_touches_the_private_linalg_names():
    # one exact linear-algebra core: other modules use its public API only
    found = []
    for path in sorted(Path(ncdef.__file__).parent.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id == "linalg"):
                found.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
            elif isinstance(node, ast.Attribute) and node.attr in _ECHELON_ATTRIBUTES:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []
