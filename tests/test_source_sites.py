"""The scanner the design guards read the package through: each hit's function, and names that are code."""

import ast
from pathlib import Path

from source_sites import PACKAGE, modules, names, sites


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
