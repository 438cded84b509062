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


def test_no_source_module_imports_a_name_it_never_uses():
    # A name imported into a src/ module must be read there, or re-exported through __all__.
    root = Path(__file__).resolve().parent.parent / "src"
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_source_module_reads_a_whole_input_file():
    # Inputs are read a chunk (textio._CHUNK_BYTES) or a line at a time, so a
    # load holds what it keeps plus one chunk; a whole-file read holds the file.
    root = Path(__file__).resolve().parent.parent / "src"
    whole = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            if name in ("read_bytes", "read_text", "readlines") or (name == "read" and not node.args):
                whole.append(f"{path.name}:{node.lineno}: {name}")
    assert whole == []


def test_no_source_module_maps_an_input_file():
    # Mapped pages count in the process's resident peak but not in tracemalloc,
    # so the load memory tests would not see a loader that maps its input; and
    # a file cut while mapped raises SIGBUS, not a parse error naming the file.
    # So no module imports mmap, or maps through numpy's memmap or mmap_mode.
    root = Path(__file__).resolve().parent.parent / "src"
    mapped = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.keyword):
                names = [node.arg or ""]
            else:
                continue
            mapped += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] == "mmap" or name in ("memmap", "mmap_mode")
            ]
    assert mapped == []


def test_every_source_reader_is_closed_by_a_with_block():
    # A reader that stops partway must close its file at once: left to the
    # collector, the file can be finalized unclosed and warn.  So every
    # open_text or read_tsv call in src/ is the context expression of a with.
    root = Path(__file__).resolve().parent.parent / "src"
    unclosed = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        entered = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With) for item in node.items}
        unclosed += [
            f"{path.name}:{node.lineno}: {node.func.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("open_text", "read_tsv") and id(node) not in entered
        ]
    assert unclosed == []


def test_no_source_generator_yields_inside_a_with_block_unless_it_is_a_context_manager():
    # A generator that yields inside a with holds what the with opened until
    # it is exhausted, closed or collected; one that is dropped half read
    # leaves its file open.  A @contextmanager generator is closed by the
    # with that enters it, so only such a generator may yield there.
    root = Path(__file__).resolve().parent.parent / "src"
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

    def own_nodes(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, scopes):
                yield child
                yield from own_nodes(child)

    def is_contextmanager(decorator):
        return "contextmanager" in (getattr(decorator, "id", None), getattr(decorator, "attr", None))

    held = []
    for path in sorted(root.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(is_contextmanager(decorator) for decorator in func.decorator_list):
                continue
            held += [
                f"{path.name}:{node.lineno}: {func.name}"
                for block in own_nodes(func)
                if isinstance(block, (ast.With, ast.AsyncWith))
                for node in own_nodes(block)
                if isinstance(node, (ast.Yield, ast.YieldFrom))
            ]
    assert held == []


def test_only_datagen_generate_uses_the_collector():
    # Pausing cyclic GC was measured to pay only around the records generate
    # builds, so every use of the gc module in src/ stays in datagen.generate.
    root = Path(__file__).resolve().parent.parent / "src"
    users = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.Import)]
        names = {a.asname or a.name for n in imports for a in n.names if a.name == "gc"}
        scope = {}
        for func in ast.walk(tree):  # breadth first, so a nested function's name wins
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update({id(node): func.name for node in ast.walk(func)})
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "gc") or (
                isinstance(node, ast.Name) and node.id in names
            ):
                users.add(f"{path.stem}.{scope.get(id(node), '<module>')}")
    assert users == {"datagen.generate"}


def test_only_textio_opens_a_file_to_read_text():
    # The UTF-8 check, the byte-order mark and the line-break rule live in
    # textio.open_text, so no other src/ module opens a file for a text read:
    # an open with no mode, or a mode that reads ("r") without "b".
    root = Path(__file__).resolve().parent.parent / "src"
    readers = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "textio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = getattr(modes[0], "value", None) if modes else "r"  # a mode that is not a literal fails
            if not isinstance(mode, str) or ("r" in mode and "b" not in mode):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
