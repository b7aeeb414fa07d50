"""The library is what runs: every top-level function and class of
`src/dipnet` is used by the package itself, by the benchmark (`perfbench`)
or by the acceptance tests. A helper that only unit tests call belongs in
`tests/conftest.py`, next to the other reference helpers. Every field of
a `src/dipnet` dataclass, and every attribute a `src/dipnet` class stores
on `self`, is read, as an attribute, by those same callers: a value kept
for inspection only goes. No module but `__init__.py`, whose imports are
the package's re-exports, imports a name it never reads. Every exception
class of `src/dipnet` is caught by name in `src/dipnet` or `perfbench`: a
refusal no caller tells apart is a plain ValueError."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dipnet").glob("*.py"))
CALLERS = (PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_library_name_has_a_caller_outside_the_unit_tests():
    used = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.stem}.{node.name}" for path in PACKAGE
              for node in _tree(path).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and node.name not in used]
    assert not unused, (f"only unit tests use {', '.join(unused)}; move "
                        f"them to tests/conftest.py")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _attributes_read() -> set:
    return {node.attr for path in CALLERS for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_outside_the_unit_tests():
    read = _attributes_read()
    unread = [f"{path.stem}.{cls.name}.{stmt.target.id}" for path in PACKAGE
              for cls in _tree(path).body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, (f"no caller outside the unit tests reads "
                        f"{', '.join(unread)}")


def test_every_attribute_stored_on_self_is_read_outside_the_unit_tests():
    read = _attributes_read()
    unread = sorted({f"{path.stem}.{cls.name}.{node.attr}" for path in PACKAGE
                     for cls in _tree(path).body
                     if isinstance(cls, ast.ClassDef)
                     for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "self"
                     and node.attr not in read})
    assert not unread, (f"no caller outside the unit tests reads "
                        f"{', '.join(unread)}")


def _caught_names(tree: ast.Module) -> set:
    """Names of the classes the `except` clauses of a module name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for t in (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type]):
                names.add(t.id if isinstance(t, ast.Name) else t.attr)
    return names


def test_every_library_exception_class_is_caught_by_name():
    caught = set()
    for path in PACKAGE + sorted((ROOT / "perfbench").glob("*.py")):
        caught |= _caught_names(_tree(path))
    uncaught = []
    for path in PACKAGE:
        module = importlib.import_module(f"dipnet.{path.stem}")
        uncaught += [f"{path.stem}.{name}" for name, cls
                     in inspect.getmembers(module, inspect.isclass)
                     if issubclass(cls, BaseException)
                     and cls.__module__ == module.__name__
                     and name not in caught]
    assert not uncaught, (f"no except clause names {', '.join(uncaught)}; "
                          f"raise ValueError instead")


def test_no_library_module_imports_a_name_it_never_reads():
    leftover = []
    for path in PACKAGE:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        leftover += [f"{path.stem}: {name}" for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     for alias in node.names
                     # `import a.b` binds a
                     for name in [alias.asname or alias.name.split(".")[0]]
                     if name not in read]
    assert not leftover, f"imported but never read: {', '.join(leftover)}"
