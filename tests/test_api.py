import ast
from pathlib import Path

import fastss

PUBLIC = {
    "Dictionary", "FastSSIndex", "IndexParams", "IndexFormatError", "Match",
    "split_word", "split_positions",
    "full_neighborhood", "residual_keys",
    "NaiveScanner", "BKTree",
    "full_edit_distance", "edit_distance_verifier",
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
    # The benchmark harness imports from the package root; a later cut of
    # the public surface must not break it.
    imported = {alias.name
                for node in ast.walk(ast.parse(HARNESS.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "fastss"
                for alias in node.names}
    assert imported
    assert imported <= set(fastss.__all__), imported - set(fastss.__all__)
