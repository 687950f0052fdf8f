"""Source hygiene: no module of the package imports a name it never
uses, none uses floating point (no float or complex literal and no use
of the names ``float`` and ``complex``), none imports ``random``, so no
verdict can depend on a random draw, none imports inside a function,
so the import graph is the module-level one and has no cycle to defer,
and every public function has a caller in the package or is exported."""

import ast
from pathlib import Path

import bernstein

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bernstein"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{path.name}:{line}: {name}"
              for path in modules for line, name in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _float_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            out.append((node.lineno, node.id))
    return sorted(out)


def test_modules_use_no_floats():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {what}"
             for path in modules for line, what in _float_uses(path)]
    assert not found, "floating point in the package:\n" + "\n".join(found)


def _imports_random(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random"
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "random":
            return True
    return False


def test_no_module_imports_random():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [path.name for path in modules if _imports_random(path)]
    assert not found, "random imported in: " + ", ".join(found)


def _function_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_module_imports_inside_a_function():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}"
             for path in modules for line in _function_imports(path)]
    assert not found, "imports inside a function:\n" + "\n".join(found)


# Documented entry points that the package itself never calls.
ENTRY_POINTS = {"catalog.quotient", "catalog.subalgebra",
                "fileformat.save_presentation"}


def test_public_functions_are_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and node.name not in referenced
              and node.name not in bernstein.__all__
              and f"{module}.{node.name}" not in ENTRY_POINTS]
    assert not unused, "public functions without a caller:\n" + \
        "\n".join(unused)
