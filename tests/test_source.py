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


def test_only_diagrams_reads_the_cochain_layout():
    # the resolving complex owns how a cochain splits into slots: other
    # modules cut and assemble cochains through its blocks and cochain
    found = []
    for path in sorted(Path(ncdef.__file__).parent.rglob("*.py")):
        if path.name == "diagrams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("offsets", "space_dims"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


def _ncdef_imports(path):
    """(line, module, imported names) of each import of an ncdef module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ncdef")):
            module = node.module or ""
            names = [a.name for a in node.names]
            if not module or module == "ncdef":
                # `from . import x` imports the modules x themselves
                out += [(node.lineno, name, []) for name in names]
            else:
                out.append((node.lineno, module.rpartition(".")[2], names))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, a.name.rpartition(".")[2], [])
                    for a in node.names if a.name.startswith("ncdef.")]
    return out


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its own module
    found = []
    for path in sorted(Path(ncdef.__file__).parent.rglob("*.py")):
        for line, module, names in _ncdef_imports(path):
            found += [f"{path.name}:{line} {module}.{n}" for n in names if n.startswith("_")]
    assert found == []


def test_the_tower_knows_only_the_base_algebras():
    # tower drives any deformation problem through its interface, so it
    # imports no module that knows a particular problem
    path = Path(ncdef.__file__).parent / "tower.py"
    modules = {module for _line, module, _names in _ncdef_imports(path)}
    assert modules == {"matric"}


def test_every_division_in_the_package_is_exact():
    # an entry is an int or a Fraction, and int / int is a float: each `/`
    # is linalg._quotient's own, or has a module's Fraction constant _ONE
    # on its left
    found = []
    for path in sorted(Path(ncdef.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        one_is_a_fraction = any(
            isinstance(node, ast.Assign) and ast.unparse(node) == "_ONE = Fraction(1)"
            for node in tree.body)
        exempt = set()
        if path.name == "linalg.py":
            (quotient,) = [node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "_quotient"]
            exempt = {id(node) for node in ast.walk(quotient)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and not (
                    one_is_a_fraction and isinstance(node.left, ast.Name)
                    and node.left.id == "_ONE"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
