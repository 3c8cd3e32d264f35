import ast
import importlib
from pathlib import Path

import fastss

PUBLIC = {
    "Dictionary", "FastSSIndex", "IndexParams", "IndexFormatError", "Match",
    "split_word", "split_positions",
    "full_neighborhood", "residual_keys",
    "NaiveScanner", "BKTree",
    "full_edit_distance",
    "CollisionModel", "expected_candidates", "markov_bound",
    "load_dictionary", "bundled_words_path",
}

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"


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
