"""Package layout: every module has a caller and every import a use.

A module counts as used when it is reachable from the package ``__init__``
or from the console-script entry point by following imports between package
modules.  An imported name counts as used when the module reads it or lists
it in ``__all__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lcoupler"


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:  # from .x import ...
            names.add(node.module.split(".")[0])
        elif node.level == 1:  # from . import x
            names.update(alias.name for alias in node.names)
        elif node.module and node.module.startswith("lcoupler."):
            names.add(node.module.split(".")[1])
    return names


def test_every_module_is_reachable_from_init_or_an_entry_point():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    # cli is the `lcoupler` console script named in pyproject.toml
    reached, frontier = set(), {"__init__", "cli"}
    while frontier:
        reached |= frontier
        frontier = {
            name
            for module in frontier
            for name in _imported_modules(PACKAGE / f"{module}.py")
            if name in modules
        } - reached
    assert modules - reached == set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = {p.stem: _unused_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in unused.items() if names} == {}
