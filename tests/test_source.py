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
