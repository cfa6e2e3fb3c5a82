"""The package's modules import one way: no import inside a function, no name
imported and never used, and the imports outside ``if TYPE_CHECKING:`` blocks
form an acyclic graph."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cutplane"
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _is_type_checking(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _runtime_imports(tree) -> set[str]:
    """Package modules a module imports, outside ``if TYPE_CHECKING:`` blocks."""
    out = set()
    for stmt in tree.body:
        if _is_type_checking(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                out.update([node.module] if node.module else [a.name for a in node.names])
    return out & (MODULES.keys() - {"__init__"})


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found


def test_module_imports_are_acyclic():
    graph = {name: _runtime_imports(tree) for name, tree in MODULES.items()
             if name != "__init__"}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def _imported_names(tree) -> dict[str, int]:
    """Each name a module's imports bind, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update({(a.asname or a.name): node.lineno for a in node.names})
    return out


def _used_names(tree) -> set[str]:
    """Names a module reads, those inside string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_no_unused_import():
    found = []
    for name, tree in MODULES.items():
        if name == "__init__":  # its imports are the package's exports
            continue
        used = _used_names(tree)
        found += [f"{name}:{line} {imported}" for imported, line in _imported_names(tree).items()
                  if imported not in used]
    assert not found
