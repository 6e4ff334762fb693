"""Every top-level function and class of ``src/ginv`` is loaded, by name or
as an attribute, from package code outside its own definition. Code that only
the tests call lives beside them, in ``helpers.py`` or the one test module
that uses it. A mention in a docstring or comment does not count."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ginv"

# Unreached names that stay, with the reason each stays.
ALLOWED = {
    "hermitize": "bench/tracer.py binds it by name; the benchmark revision (ROADMAP item 1) frees it",
    "swap_j": "bench/tracer.py binds it by name; the benchmark revision (ROADMAP item 1) frees it",
}


def _loads(tree):
    """Names loaded in ``tree``: bare names read, and attribute names."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def unreached():
    """``module.name`` of each top-level def no other package code loads."""
    modules = {path.stem: ast.parse(path.read_text(), path.name) for path in SRC.glob("*.py")}
    loads = sum((_loads(tree) for tree in modules.values()), Counter())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and loads[node.name] == _loads(node)[node.name]
    )


def test_every_top_level_name_is_reached_from_package_code():
    assert [name for name in unreached() if name.split(".")[1] not in ALLOWED] == []


def test_every_allowed_name_is_still_unreached():
    # an allowance goes once its name is reached or moved
    assert sorted(name.split(".")[1] for name in unreached()) == sorted(ALLOWED)
