import ast
import importlib
from pathlib import Path

import fastss

PUBLIC = {
    "Dictionary", "FastSSIndex", "IndexParams", "IndexFormatError",
    "Match", "Matches", "split_word", "split_positions",
    "full_neighborhood", "residual_keys",
    "NaiveScanner", "BKTree",
    "full_edit_distance",
    "CollisionModel", "expected_candidates", "markov_bound",
    "load_dictionary", "bundled_words_path",
}

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness.py"


def test_public_surface_is_pinned():
    assert set(fastss.__all__) == PUBLIC
    assert len(fastss.__all__) == len(PUBLIC)
    for name in fastss.__all__:
        assert getattr(fastss, name) is not None, name


def test_benchmark_imports_are_public():
    # The benchmark harness imports from the package root and from its
    # modules; a later cut of a public surface must not break it. Each name
    # must be in the ``__all__`` of the module it is imported from.
    imported = {(node.module, alias.name)
                for node in ast.walk(ast.parse(HARNESS.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "fastss"
                for alias in node.names}
    assert imported
    private = {(module, name) for module, name in imported
               if name not in importlib.import_module(module).__all__}
    assert not private, private


def test_every_definition_is_used_outside_the_tests():
    # A function, class or method that only a test calls is dead code. Each
    # one defined in the package must be named in the package, a demo or
    # the benchmark harness (its own tests excluded).
    package = sorted((ROOT / "src" / "fastss").glob("*.py"))
    defined = {node.name for path in package for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    users = package + sorted((ROOT / "demos").glob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")]
    used = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined <= used, sorted(defined - used)


def package_functions():
    """Each function of the package, with its file and the names it reads,
    reads in nested functions included."""
    for path in sorted((ROOT / "src" / "fastss").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, func, {node.id for node in ast.walk(func) if isinstance(node, ast.Name)
                                   and isinstance(node.ctx, ast.Load)}


def test_every_local_is_read():
    # A local name that a function assigns but never reads is dead code.
    # Reads in nested functions count, an augmented assignment reads its
    # target, and ``_``-prefixed names are exempt.
    unread = set()
    for path, func, read in package_functions():
        read |= {node.target.id for node in ast.walk(func)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        unread |= {f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(func)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                   and not node.id.startswith("_") and node.id not in read}
    assert not unread, sorted(unread)


def test_every_parameter_is_read():
    # A parameter that a function never reads is dead code in its signature.
    # Reads in nested functions count; ``self``, ``cls`` and ``_``-prefixed
    # names are exempt.
    unread = set()
    for path, func, read in package_functions():
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg]
        unread |= {f"{path.name}:{func.lineno} {func.name}({arg.arg})" for arg in params
                   if arg.arg not in ("self", "cls") and not arg.arg.startswith("_")
                   and arg.arg not in read}
    assert not unread, sorted(unread)
