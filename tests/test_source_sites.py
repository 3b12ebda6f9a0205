"""The scanner the design guards read the package through (each hit's function, names that are code); the import guard."""

import ast
from pathlib import Path

from source_sites import PACKAGE, modules, names, sites

ROOT = PACKAGE.parents[1]


def _is_call(node) -> bool:
    return isinstance(node, ast.Call)


def test_sites_names_the_function_around_each_hit():
    source = """
x = f(1)
def outer():
    f(2)
    def inner():
        return f(3)
    return f(4)
async def fetch():
    await f(5)
class C:
    y = f(6)
    def method(self):
        return f(7)
z = [f(8) for _ in ()]
"""
    want = [(2, None), (4, "outer"), (6, "inner"), (7, "outer"), (9, "fetch"), (11, None), (13, "method"), (14, None)]
    assert sites(source, _is_call) == want
    # a parsed tree reads the same, and ``what`` adds its reading of each hit
    assert sites(ast.parse(source), _is_call, what=lambda node: node.args[0].value) == [
        (line, function, i) for i, (line, function) in enumerate(want, start=1)
    ]


def test_names_sees_code_only():
    source = '''"""freeze in a module docstring"""
def f(freeze_period):  # freeze in a comment
    """freeze in a docstring"""
    text = "freeze in a string"
    return freeze(freeze_period)
'''
    assert [(line, name) for line, name in names(source) if name.startswith("freeze")] == [
        (2, "freeze_period"),
        (5, "freeze"),
        (5, "freeze_period"),
    ]
    assert names("np.sort(x)\n") == [(1, "np"), (1, "sort"), (1, "x")]


def test_modules_reads_the_package_by_relative_path():
    found = dict(modules())
    assert found[Path("cli.py")] == (PACKAGE / "cli.py").read_text()
    assert list(found) == sorted(found) and Path("miners", "gem.py") in found
    assert [path for path, _ in modules("miners")] == [path for path in found if path.parts[0] == "miners"]


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import in ``source`` binds and no expression reads; ``__future__`` imports are
    exempt. ``import a.b`` binds ``a``, and a name inside a string is no read."""
    tree = ast.parse(source)
    loads = sites(tree, lambda node: isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load), what=lambda node: node.id)
    read = {name for _, _, name in loads}
    imports = sites(
        tree,
        lambda node: isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__",
        what=lambda node: [alias.asname or alias.name.partition(".")[0] for alias in node.names],
    )
    return [(line, name) for line, _, bound in imports for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # ``import gemmine`` loads every module but cli through this one import, for perfbench's tracer
    allowed = ["src/gemmine/__init__.py: harness"]
    paths = [*sorted(PACKAGE.rglob("*.py")), *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    found = [f"{path.relative_to(ROOT)}: {name}" for path in paths for _, name in _unused_imports(path.read_text())]
    assert found == allowed


def test_the_unused_import_guard_sees_each_spelling():
    source = """
from __future__ import annotations
import a.b
import os.path
from x import y as z
from m import annotated, quoted, read
def f(v: annotated) -> None:
    y = "quoted"
    return a.b, read(y)
"""
    assert _unused_imports(source) == [(4, "os"), (5, "z"), (6, "quoted")]
