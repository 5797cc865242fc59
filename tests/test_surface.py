"""Dead-surface guard: every top-level function or class in the package is
used somewhere in the package outside its own definition, or is a listed
public test oracle; every public method of a public class, and every private
method of any class, is read as an attribute somewhere in the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stabletrade"

# reference implementations that only tests and diagnostics call; backtest
# is the library Table 3 fold that the harness's backtest cells are checked
# against
ORACLES = (
    "backtest",
    "pdf",
    "cdf",
    "tail_prob",
    "mh_location_kernel",
    "replay_information",
    "gradient_check",
    "kink_distance",
    "tail_order_check",
)


def _uses(node):
    """Names a subtree reads, by bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_names(src=SRC):
    """(module, name) of each top-level def or class no other code uses."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = []
    used = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node))
                # uses inside a definition count for every name but its own
                used.update((n, node.name) for n in _uses(node))
            else:
                used.update((n, None) for n in _uses(node))
    return [(module, node.name) for module, node in defined
            if not any(n == node.name and owner != node.name for n, owner in used)]


def unread_methods(src=SRC):
    """(module, class, method) of each method whose name no package code reads
    as an attribute; special methods, which the language calls, are left out."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    attrs = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)}
    return [(module, cls.name, fn.name)
            for module, tree in trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
            and fn.name not in attrs]


def test_every_public_name_has_a_caller_or_is_an_oracle():
    dead = [f"{module}.{name}" for module, name in unreferenced_names()
            if not name.startswith("_") and name not in ORACLES]
    assert dead == []


def test_every_oracle_still_exists():
    names = {name for path in SRC.glob("*.py")
             for name in (node.name for node in ast.parse(path.read_text()).body
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef)))}
    assert set(ORACLES) <= names


def test_every_public_method_is_read_somewhere():
    dead = [f"{module}.{cls}.{name}" for module, cls, name in unread_methods()
            if not cls.startswith("_") and not name.startswith("_")]
    assert dead == []


def test_every_private_name_and_method_is_read_somewhere():
    dead = ([f"{module}.{name}" for module, name in unreferenced_names()
             if name.startswith("_")]
            + [f"{module}.{cls}.{name}" for module, cls, name in unread_methods()
               if name.startswith("_")])
    assert dead == []
