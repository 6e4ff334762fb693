"""Every top-level function and class of ``src/ginv`` is loaded, by name or
as an attribute, from package code outside its own definition. Code that only
the tests call lives beside them, in ``helpers.py`` or the one test module
that uses it. A mention in a docstring or comment does not count. And every
defaulted parameter of a ``src/ginv`` function is passed by some call in package
code: a default that no caller changes is a knob to remove."""

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


# Defaulted parameters that no package call passes, with the reason each stays.
KNOBS_ALLOWED = {
    "observables.hermitize.copies": "bench/tracer.py binds hermitize by name; "
                                    "the benchmark revision (ROADMAP item 1) frees it",
    "cli.main.argv": "main is the entry point, and the tests pass argv",
    "groups.UnitarySampler.sample.psi": "analysis._h1_values passes it through the "
                                        "alias draw = sampler.sample",
}


def _functions(modules):
    """(qualified name, node, call names, bound) of each top-level function and
    method: the names a call reaches it by (a class and the subclasses that
    inherit its ``__init__`` reach that), and 1 for a method, whose first
    parameter no positional argument fills, else 0."""
    classes = {c.name: c for tree in modules.values() for c in tree.body
               if isinstance(c, ast.ClassDef)}

    def heirs(name):
        """The class ``name`` and each subclass that inherits its ``__init__``."""
        return {name}.union(*(
            heirs(c.name) for c in classes.values()
            if name in {getattr(b, "id", None) for b in c.bases}
            and "__init__" not in {getattr(f, "name", None) for f in c.body}))

    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node, {node.name}, 0
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                        names = heirs(node.name) | {f.name} if f.name == "__init__" else {f.name}
                        yield f"{module}.{node.name}.{f.name}", f, names, 0 if static else 1


def unpassed():
    """``module.[Class.]function.parameter`` of each defaulted parameter that
    no call in package code passes, by keyword or by position. A call is
    matched to a definition by name, so one through an alias is not seen. Nor
    does the scan catch a parameter that every caller passes with one value,
    as ``target="qubits"`` once was for the qubit-permutation maps."""
    modules = {path.stem: ast.parse(path.read_text(), path.name) for path in SRC.glob("*.py")}
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for name, f, call_names, bound in _functions(modules):
        positional = [a.arg for a in f.args.posonlyargs + f.args.args][bound:]
        defaulted = positional[len(positional) - len(f.args.defaults):] + [
            a.arg for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
        passed = set()
        for call in calls:
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if callee not in call_names:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            passed.update(positional if starred else positional[: len(call.args)])
            keywords = {k.arg for k in call.keywords}
            passed.update(defaulted if None in keywords else keywords)
        found += [f"{name}.{p}" for p in defaulted if p not in passed]
    return sorted(found)


def test_every_defaulted_parameter_is_passed_by_package_code():
    assert [name for name in unpassed() if name not in KNOBS_ALLOWED] == []


def test_every_allowed_knob_is_still_unpassed():
    # an allowance goes once its parameter is passed or removed
    assert unpassed() == sorted(KNOBS_ALLOWED)
