"""Every text loader on mutated files: a typed error naming file and text-mode line.

Random valid files for the dataset, triples, lexicon, frequencies,
allowlist, candidates and outcomes-CSV loaders get one mutation on one data
line: a ``0xff`` byte, a field too many or too few, or a ``\\r`` or ``\\x85``
inside a field.  ``\\r`` ends a line in text mode, so the line splits in two;
``\\x85`` does not, so it stays inside its field.  The expected outcome
follows from the mutation alone: the loader raises its typed error starting
``<file>:<line>:``, and ``analogykit`` exits 1 with ``error: <file>:<line>:``
and no traceback; or, for a ``\\x85`` in a text field or a ``\\r`` in a
one-entry line, the file loads with the mutated entry.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from analogykit.cli import _read_candidate_terms, main
from analogykit.datagen import GenerationError, load_allowlist, load_frequencies, load_lexicon, load_triples
from analogykit.dataset import AnalogyFormatError, load_dataset
from analogykit.embeddings import EmbeddingMatrix, save_embeddings
from analogykit.reports import load_outcomes_csv


def _dataset_values(records) -> set[str]:
    return {v for r in records for v in (r.relation_id, r.a, *r.b_list, r.c, *r.d_list)}


def _triples_values(triples) -> set[str]:
    return {v for t in triples for v in (t.subject, t.relation, t.object)}


def _lexicon_values(lexicon) -> set[str]:
    return {*lexicon, *(t for terms in lexicon.values() for t in terms)}


def _outcomes_values(loaded) -> set[str]:
    outcomes, skipped = loaded
    return {v for o in outcomes for v in (o.relation_id, o.a, o.c, o.top_guess)} | {
        v for s in skipped for v in (s.relation_id, s.a, s.c, s.reason)
    }


@dataclass(frozen=True)
class Format:
    load: Callable[[Path], object]
    error: type[ValueError]
    values: Callable[[object], set[str]]  # the text entries of a loaded file
    n_fields: int  # 1: one entry per line, no field count
    sep: str = "\t"
    parsed: tuple[int, ...] = ()  # fields read as numbers, flags or status words
    header: str | None = None


FORMATS = {
    "dataset": Format(load_dataset, AnalogyFormatError, _dataset_values, 5),
    "triples": Format(load_triples, GenerationError, _triples_values, 3),
    "lexicon": Format(load_lexicon, GenerationError, _lexicon_values, 2),
    "frequencies": Format(load_frequencies, GenerationError, set, 2, parsed=(1,)),
    "allowlist": Format(load_allowlist, GenerationError, set, 1),
    "candidates": Format(_read_candidate_terms, ValueError, set, 1),
    "outcomes": Format(
        load_outcomes_csv,
        ValueError,
        _outcomes_values,
        11,
        sep=",",
        parsed=(0, 5, 6, 7, 8, 9),
        header="status,relation_id,a,c,top_guess,relaxed_hit,average_precision,"
        "reciprocal_rank,n_answers_listed,n_answers_scored,reason",
    ),
}

WORDS = st.text("abcdefgh", min_size=1, max_size=3)


@st.composite
def rows(draw, name: str) -> list[list[str]]:
    """The fields of each data line of a valid file."""
    n = draw(st.integers(1, 5))
    words = [draw(WORDS) + str(j) for j in range(5 * n)]  # unique
    out = []
    for i in range(n):
        w = words[5 * i : 5 * i + 5]
        if name == "dataset":
            out.append(w)
        elif name == "triples":
            out.append(w[:3])
        elif name == "lexicon":
            out.append(w[:2])
        elif name == "frequencies":
            out.append([w[0], str(draw(st.integers(10, 999)))])
        elif name in ("allowlist", "candidates"):
            out.append(w[:1])
        elif draw(st.booleans()):
            ap, rr = (repr(draw(st.floats(0.01, 1.0))) for _ in range(2))
            listed = draw(st.integers(10, 20))
            hit = draw(st.sampled_from(["true", "false"]))
            out.append(["scored", *w[:4], hit, ap, rr, str(listed), str(listed - 1), ""])
        else:
            out.append(["skipped", *w[:3], "", "", "", "", "", "", w[3]])
    return out


def render(fmt: Format, lines: list[list[str] | str], newline: str) -> bytes:
    text = [line if isinstance(line, str) else fmt.sep.join(line) for line in lines]
    if fmt.header is not None:
        text.insert(0, fmt.header)
    return "".join(line + newline for line in text).encode()


@st.composite
def mutated_files(draw):
    """A mutated file and what loading it must give: ``(line, None)`` or ``(None, entry)``."""
    name = draw(st.sampled_from(sorted(FORMATS)))
    fmt = FORMATS[name]
    data = draw(rows(name))
    # Blank lines (and comments in the dataset) shift the line numbers; the
    # outcomes CSV has neither.
    lines: list[list[str] | str] = []
    fillers = ["", "   ", "# note"] if name == "dataset" else ["", "  "]
    for fields in data:
        if fmt.header is None and draw(st.booleans()):
            lines.append(draw(st.sampled_from(fillers)))
        lines.append(fields)
    k = draw(st.sampled_from([i for i, line in enumerate(lines) if not isinstance(line, str)]))
    lineno = k + 1 + (fmt.header is not None)
    fields = list(lines[k])
    kinds = ["utf8", "cr", "nel"] + (["count"] if fmt.n_fields > 1 else [])
    kind = draw(st.sampled_from(kinds))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # The fields with room for a character strictly inside them.
    inner = [f for f, value in enumerate(fields) if len(value) >= 2]
    expected: tuple[int | None, str | None]
    if kind == "count":
        if draw(st.booleans()):
            fields.append("x")
        else:
            fields.pop()
        lines[k] = fields
        expected = (lineno, None)
    elif kind in ("cr", "nel"):
        f = draw(st.sampled_from(inner))
        at = draw(st.integers(1, len(fields[f]) - 1))
        fields[f] = fields[f][:at] + ("\r" if kind == "cr" else "\x85") + fields[f][at:]
        lines[k] = fields
        if kind == "nel":
            expected = (lineno, None) if f in fmt.parsed else (None, fields[f])
        elif fmt.n_fields == 1:
            expected = (None, fields[f].split("\r")[1])
        else:
            # The first half is short of fields unless the break is in the last one.
            expected = (lineno + (f == fmt.n_fields - 1), None)
    blob = render(fmt, lines, newline)
    if kind == "utf8":
        at = len(render(fmt, lines[:k], newline)) + draw(st.integers(1, len(fmt.sep.join(fields)) - 1))
        blob = blob[:at] + b"\xff" + blob[at:]
        expected = (lineno, None)
    return name, blob, expected


def write_cli_inputs(root: Path, name: str, path: Path) -> list[str]:
    """The ``analogykit`` arguments that read ``path`` as input ``name``."""
    if name == "outcomes":
        return ["report", "--outcomes", str(path)]
    if name in ("dataset", "candidates"):
        emb = EmbeddingMatrix(["aa", "bb"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        save_embeddings(emb, root / "vectors.txt", "text")
        inputs = {"candidates": root / "candidates.txt", "dataset": root / "dataset.tsv"}
        inputs["candidates"].write_text("aa\nbb\n", encoding="utf-8")
        inputs["dataset"].write_text("r\taa\tbb\tbb\taa\n", encoding="utf-8")
        inputs[name] = path
        return ["evaluate", "--embeddings", str(root / "vectors.txt"),
                "--candidates", str(inputs["candidates"]), "--dataset", str(inputs["dataset"])]
    inputs = {n: root / f"{n}.tsv" for n in ("triples", "lexicon", "frequencies", "allowlist")}
    inputs["triples"].write_text("s\tr\to\n", encoding="utf-8")
    inputs["lexicon"].write_text("s\tsubj\no\tobj\n", encoding="utf-8")
    inputs["frequencies"].write_text("subj\t30\nobj\t30\n", encoding="utf-8")
    inputs["allowlist"].write_text("r\n", encoding="utf-8")
    inputs[name] = path
    return ["generate", *(a for n, p in inputs.items() for a in (f"--{n}", str(p))),
            "--out-dir", str(root / "out")]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_files())
def test_mutated_inputs_raise_located_errors_or_keep_the_entry(capsys, case):
    name, blob, (line, entry) = case
    fmt = FORMATS[name]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / f"mutated.{name}"
        path.write_bytes(blob)
        if line is None:
            assert entry in fmt.values(fmt.load(path))
            return
        with pytest.raises(fmt.error) as caught:
            fmt.load(path)
        assert str(caught.value).startswith(f"{path}:{line}: ")
        capsys.readouterr()
        rc = main(write_cli_inputs(root, name, path))
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: {path}:{line}: " in err
        assert "Traceback" not in err

