import ast
import importlib
from pathlib import Path

import pytest

import analogykit
import analogykit.cli

EXPORTS = {
    "AnalogyQuery",
    "AnalogyRecord",
    "EmbeddingMatrix",
    "build_candidate_index",
    "compose_term",
    "evaluate_records",
    "format_summary_table",
    "load_embeddings",
    "normalize_term",
    "rank_candidates",
    "save_embeddings",
    "score_candidates",
}


def test_top_level_exports_the_twelve_entry_points():
    assert sorted(analogykit.__all__) == sorted(EXPORTS)
    assert len(analogykit.__all__) == len(EXPORTS)
    for name in EXPORTS:
        assert getattr(analogykit, name) is not None


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from analogykit import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == EXPORTS


def test_other_public_names_stay_in_their_modules():
    for module, name in [
        ("analogykit.datagen", "generate"),
        ("analogykit.datagen", "GenerationConfig"),
        ("analogykit.dataset", "load_dataset"),
        ("analogykit.embeddings", "CandidateIndex"),
        ("analogykit.metrics", "summarize"),
        ("analogykit.reports", "load_outcomes_csv"),
    ]:
        assert hasattr(importlib.import_module(module), name)
        assert not hasattr(analogykit, name)


def test_every_cli_binding_the_benchmark_job_uses_resolves():
    # bench/job.py reaches the program only through ``cli.<name>``; a missing
    # name fails every benchmark run.
    job = Path(__file__).resolve().parent.parent / "bench" / "job.py"
    names = {
        node.attr
        for node in ast.walk(ast.parse(job.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli"
    }
    assert "_read_candidate_terms" in names
    missing = sorted(name for name in names if not hasattr(analogykit.cli, name))
    assert missing == []


def test_every_traced_binding_outside_evaluate_resolves():
    # bench/layers.py wraps each TARGETS entry at its module binding, and an
    # absent name only reads 0 in its metrics: without datagen.combine_pairs,
    # dataset.combine_s would. The evaluate entries that the block kernel
    # replaced are still listed there, so that module is left out.
    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    layers = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        node.targets[0].id: node.value.value
        for node in layers.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    }
    (targets,) = [
        node.value for node in layers.body if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"
    ]
    entries = [(modules[entry.elts[0].id], entry.elts[1].value) for entry in targets.elts]
    assert ("analogykit.datagen", "combine_pairs") in entries
    missing = [
        (module, name)
        for module, name in entries
        if module != "analogykit.evaluate" and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; the parser rejects
    # newer syntax, such as except* groups, under feature_version=(3, 10).
    root = Path(__file__).resolve().parent.parent
    for folder in ("src", "tests", "demos"):
        paths = sorted((root / folder).rglob("*.py"))
        assert paths, folder
        for path in paths:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
