"""Every functools memo in src/ has a finite maxsize, or a stated reason not to.

A memo keyed by user input (a node subset, a weight, a bound) grows with
every distinct query unless it is bounded, so a new unbounded lru_cache
fails here until it is either bounded or added to UNBOUNDED with the reason
its key set is finite and small.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "levispherical"

# module.function -> why its key set is small without a bound.
UNBOUNDED = {
    "rootsys._build": "one entry per Cartan type",
    "weyl._layout": "one entry per type and field width",
}


def _memo_uses(path):
    """(name of the decorated function or None, line) per functools memo use.

    Covers lru_cache and cache, imported from functools by any alias or
    reached as functools.X.  A use that does not decorate a module-level
    function is reported with None.
    """
    tree = ast.parse(path.read_text())
    aliases, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            aliases |= {
                a.asname or a.name
                for a in node.names
                if a.name in ("lru_cache", "cache")
            }
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_memo(node):
        if isinstance(node, ast.Name):
            return node.id in aliases
        return (
            isinstance(node, ast.Attribute)
            and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    decorators = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                decorators[id(target)] = node.name
    for node in ast.walk(tree):
        if is_memo(node):
            yield decorators.get(id(node)), node.lineno


def test_every_memo_in_src_is_bounded():
    found, unbounded = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        uses = list(_memo_uses(path))
        if not uses:
            continue  # __main__ runs the CLI when imported
        module = importlib.import_module(f"levispherical.{path.stem}")
        for name, line in uses:
            where = f"{path.stem}.{name}"
            assert name is not None, (
                f"{path.name}:{line}: a functools memo that decorates no "
                "module-level function, so its bound cannot be checked"
            )
            found.append(where)
            if getattr(module, name).cache_parameters()["maxsize"] is None:
                unbounded.append(where)
    assert "weyl._w0" in found
    assert sorted(unbounded) == sorted(UNBOUNDED), (
        "every lru_cache in src/ needs a finite maxsize, or an UNBOUNDED entry "
        "stating why its key set is small"
    )
