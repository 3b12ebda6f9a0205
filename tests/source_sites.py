"""The package's source as the design guards read it.

    from source_sites import PACKAGE, modules, names, sites

A design guard pins the one home of a rule ("only ``float_features`` scales
pixels") by listing where the package's code does the thing and comparing
that list with the allowed sites. ``modules`` reads the modules under
``src/gemmine``; ``sites`` finds the nodes of a module's syntax tree that a
guard's predicate matches, each with the function it sits in; ``names``
lists a module's NAME tokens, so that a mention in a docstring, a comment
or a string is not a use. A guard holds only its predicate and its allowed
sites.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gemmine"


def modules(under: str = "") -> list[tuple[Path, str]]:
    """(path relative to ``PACKAGE``, text) of each module under ``PACKAGE / under``, in path order."""
    return [(path.relative_to(PACKAGE), path.read_text()) for path in sorted((PACKAGE / under).rglob("*.py"))]


def sites(source: str | ast.AST, match, what=None) -> list[tuple]:
    """(line, enclosing function) of each node of ``source`` that ``match`` accepts, depth first; with ``what``,
    (line, enclosing function, ``what(node)``).

    ``source`` is a module's text or its parsed tree, so a guard that needs more of the tree than one node,
    such as which constants are docstrings, parses it once. The enclosing function is the innermost ``def`` or
    ``async def`` around the node, a method by its own name, and None at module level.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if match(node):
            found.append((node.lineno, function) if what is None else (node.lineno, function, what(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source) if isinstance(source, str) else source, None)
    return found


def names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each NAME token of ``source``, keywords included: a word inside a string or a comment is
    no token, and ``freeze_period`` is one name, not ``freeze``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(token.start[0], token.string) for token in tokens if token.type == tokenize.NAME]
