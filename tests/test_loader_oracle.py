"""The bulk loaders and index build against per-line and per-term oracles.

The oracles are the straightforward implementations: a text reader that
splits and converts one line at a time, a binary reader that decodes one
row at a time, and an index built by calling :func:`compose_term` and
``np.linalg.norm`` for each term.  On random valid inputs the fast code must
give bit-identical results; on mutated files it must raise
:class:`EmbeddingParseError` with the oracle's message, which names the
same file and line or byte offset.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from analogykit.embeddings import (
    EmbeddingMatrix,
    EmbeddingParseError,
    build_candidate_index,
    compose_term,
    load_embeddings,
    term_key,
)

# ------------------------------------------------------------------ oracles


def _oracle_header(fields: list[str]) -> tuple[int, int] | None:
    if len(fields) != 2:
        return None
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        return None
    if count < 1 or dim < 1:
        return None
    return count, dim


def _oracle_float(field: str) -> float:
    # The value grammar: float(), but ASCII only and without digit-group underscores.
    if not field.isascii() or "_" in field:
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def oracle_load_text(path: Path, force_headerless: bool) -> EmbeddingMatrix:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise EmbeddingParseError(f"{path}: empty file")
    header = None if force_headerless else _oracle_header(lines[0].split())
    start = 0 if header is None else 1
    data = lines[start:]
    if not data:
        raise EmbeddingParseError(f"{path}: no vector rows")
    if header is not None and len(data) != header[0]:
        raise EmbeddingParseError(f"{path}: header declares {header[0]} vectors, found {len(data)}")
    dim = header[1] if header is not None else len(data[0].split()) - 1
    if dim < 1:
        raise EmbeddingParseError(f"{path}:{start + 1}: no vector values on first data line")

    tokens: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((len(data), dim), dtype=np.float64)
    for i, line in enumerate(data):
        lineno = start + i + 1
        fields = line.split()
        if len(fields) != dim + 1:
            raise EmbeddingParseError(f"{path}:{lineno}: expected {dim} values, found {len(fields) - 1}")
        token = fields[0]
        if token in seen:
            raise EmbeddingParseError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        try:
            row = np.array([_oracle_float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingParseError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(row).all():
            raise EmbeddingParseError(f"{path}:{lineno}: non-finite value for token {token!r}")
        if np.linalg.norm(row) == 0.0:
            raise EmbeddingParseError(f"{path}:{lineno}: zero vector for token {token!r}")
        tokens.append(token)
        vectors[i] = row
    return EmbeddingMatrix(tokens, vectors)


def oracle_load_binary(path: Path) -> EmbeddingMatrix:
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise EmbeddingParseError(f"{path}: missing header line")
    header = _oracle_header(blob[:nl].decode("utf-8", errors="replace").split())
    if header is None:
        raise EmbeddingParseError(f"{path}: malformed header {blob[:nl]!r}")
    count, dim = header
    row_bytes = 4 * dim
    pos = nl + 1
    tokens: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((count, dim), dtype=np.float64)
    for i in range(count):
        while pos < len(blob) and blob[pos] == 0x0A:
            pos += 1
        sp = blob.find(b" ", pos)
        if sp < 0:
            raise EmbeddingParseError(f"{path}: offset {pos}: unterminated token for vector {i}")
        try:
            token = blob[pos:sp].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingParseError(f"{path}: offset {pos}: undecodable token bytes") from exc
        if not token or token.split() != [token]:
            raise EmbeddingParseError(
                f"{path}: offset {pos}: invalid token {token!r}: "
                "tokens must be non-empty and contain no whitespace"
            )
        if token in seen:
            raise EmbeddingParseError(f"{path}: offset {pos}: duplicate token {token!r}")
        seen.add(token)
        pos = sp + 1
        if pos + row_bytes > len(blob):
            raise EmbeddingParseError(f"{path}: offset {pos}: truncated vector for token {token!r}")
        row = np.frombuffer(blob, dtype="<f4", count=dim, offset=pos).astype(np.float64)
        pos += row_bytes
        if not np.isfinite(row).all():
            raise EmbeddingParseError(f"{path}: offset {pos - row_bytes}: non-finite value for token {token!r}")
        if np.linalg.norm(row) == 0.0:
            raise EmbeddingParseError(f"{path}: offset {pos - row_bytes}: zero vector for token {token!r}")
        tokens.append(token)
        vectors[i] = row
    while pos < len(blob) and blob[pos] == 0x0A:
        pos += 1
    if pos != len(blob):
        raise EmbeddingParseError(f"{path}: offset {pos}: trailing data after {count} vectors")
    return EmbeddingMatrix(tokens, vectors)


def oracle_load(path: Path, format: str) -> EmbeddingMatrix:
    if format == "binary":
        return oracle_load_binary(path)
    return oracle_load_text(path, force_headerless=(format == "text-noheader"))


def assert_loaders_agree(path: Path, format: str) -> bool:
    """Compare ``load_embeddings`` with the oracle; return whether the file loaded."""
    try:
        expected = oracle_load(path, format)
    except EmbeddingParseError as exc:
        with pytest.raises(EmbeddingParseError) as caught:
            load_embeddings(path, format)
        assert str(caught.value).startswith(str(path))
        assert str(caught.value) == str(exc)
        return False
    loaded = load_embeddings(path, format)
    assert loaded.tokens == expected.tokens
    assert loaded.vectors.shape == expected.vectors.shape
    assert np.array_equal(loaded.vectors.view(np.uint64), expected.vectors.view(np.uint64))
    return True


# --------------------------------------------------------- file strategies

# No whitespace or line breaks (categories Cc, Zs, Zl, Zp) and no surrogates.
TOKENS = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
    min_size=1,
    max_size=5,
)
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
NONZERO_FLOAT = st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100)
ANY_FLOAT32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
NONZERO_FLOAT32 = st.floats(2.0**-100, 2.0**100, width=32) | st.floats(-(2.0**100), -(2.0**-100), width=32)
FORMATS = [repr, "{:+}".format, "{:.17g}".format, "{:.6g}".format, "{:E}".format]
GAPS = st.text(" \t", min_size=1, max_size=3)
GARBAGE = ["abc", "1e", "0x10", "--1", "1.2.3", "nan(1)", "1,5", "−1"]
# float() reads these; the value grammar does not.
NUMERALS = ["1_0", "１", "٣", "٣.٣", "-1_000.5"]
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e999"]
ZEROS = ["0", "-0", "0.0", "-0.0", "0e5", "+0", "1e-400"]


@st.composite
def text_tables(draw):
    """Tokens and value strings for a valid file, plus how to lay it out."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 5))
    tokens = draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True))
    rows = []
    for _ in range(n):
        values = [draw(NONZERO_FLOAT)] + draw(st.lists(ANY_FLOAT, min_size=dim - 1, max_size=dim - 1))
        rows.append([draw(st.sampled_from(FORMATS))(v) for v in values])
    return {
        "tokens": tokens,
        "rows": rows,
        "dim": dim,
        "format": draw(st.sampled_from(["text", "text", "text-noheader"])),
        "gaps": draw(st.lists(GAPS, min_size=n + 1, max_size=n + 1)),
        "pad": draw(st.sampled_from(["", " ", "\t "])),
        "newline": draw(st.sampled_from(["\n", "\r\n"])),
    }


def render_text(table: dict, count: int | None = None) -> str:
    lines = []
    if table["format"] == "text":
        lines.append(f"{len(table['tokens']) if count is None else count}{table['gaps'][-1]}{table['dim']}")
    for token, values, gap in zip(table["tokens"], table["rows"], table["gaps"]):
        lines.append(table["pad"] + gap.join([token, *values]) + table["pad"])
    return table["newline"].join(lines) + table["newline"]


@st.composite
def binary_tables(draw):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 5))
    tokens = draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True))
    rows = [
        [draw(NONZERO_FLOAT32)] + draw(st.lists(ANY_FLOAT32, min_size=dim - 1, max_size=dim - 1))
        for _ in range(n)
    ]
    newlines = draw(st.lists(st.sampled_from([b"", b"\n", b"\n\n"]), min_size=n, max_size=n))
    return {"tokens": tokens, "rows": np.array(rows, dtype="<f4"), "dim": dim, "newlines": newlines}


def render_binary(table: dict, count: int | None = None) -> tuple[bytes, list[int]]:
    """The file bytes and the offset of each row's values."""
    n = len(table["tokens"]) if count is None else count
    out = bytearray(f"{n} {table['dim']}\n".encode())
    offsets = []
    for token, row, newline in zip(table["tokens"], table["rows"], table["newlines"]):
        out += token.encode() + b" "
        offsets.append(len(out))
        out += row.tobytes() + newline
    return bytes(out), offsets


# ------------------------------------------------------------------- tests

# The oracle's np.linalg.norm warns when a row's sum of squares overflows.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=text_tables())
def test_text_loader_matches_oracle_on_valid_files(tmp_path, table):
    path = tmp_path / "valid.txt"
    path.write_bytes(render_text(table).encode())
    assert assert_loaders_agree(path, table["format"])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=binary_tables())
def test_binary_loader_matches_oracle_on_valid_files(tmp_path, table):
    path = tmp_path / "valid.bin"
    path.write_bytes(render_binary(table)[0])
    assert assert_loaders_agree(path, "binary")


TEXT_MUTATIONS = ["drop", "extra", "garbage", "numeral", "duplicate", "non-finite", "zero", "header"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=text_tables(), data=st.data())
def test_text_loader_errors_match_oracle_on_mutated_files(tmp_path, table, data):
    tokens, rows = table["tokens"], table["rows"]
    n = len(tokens)
    count = None
    for kind in data.draw(st.lists(st.sampled_from(TEXT_MUTATIONS), min_size=1, max_size=3)):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, table["dim"] - 1))
        if kind == "drop" and rows[i]:
            del rows[i][data.draw(st.integers(0, len(rows[i]) - 1))]
        elif kind == "extra":
            rows[i].append(data.draw(st.sampled_from(["1.5", "-2", "nan"])))
        elif kind in ("garbage", "numeral") and j < len(rows[i]):
            rows[i][j] = data.draw(st.sampled_from(GARBAGE if kind == "garbage" else NUMERALS))
        elif kind == "duplicate" and n > 1:
            tokens[i] = tokens[(i + data.draw(st.integers(1, n - 1))) % n]
        elif kind == "non-finite" and j < len(rows[i]):
            rows[i][j] = data.draw(st.sampled_from(NON_FINITE))
        elif kind == "zero":
            rows[i] = [data.draw(st.sampled_from(ZEROS)) for _ in rows[i]]
        elif kind == "header":
            table["format"] = "text"
            count = n + data.draw(st.sampled_from([-1, 1]))
    path = tmp_path / "mutated.txt"
    path.write_bytes(render_text(table, count).encode())
    assert_loaders_agree(path, table["format"])


BINARY_MUTATIONS = ["drop", "extra", "truncate", "trailing", "duplicate", "non-finite", "zero", "header"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=binary_tables(), data=st.data())
def test_binary_loader_errors_match_oracle_on_mutated_files(tmp_path, table, data):
    tokens, rows = table["tokens"], table["rows"]
    n, dim = rows.shape
    kinds = data.draw(st.lists(st.sampled_from(BINARY_MUTATIONS), min_size=1, max_size=3))
    count = None
    for kind in kinds:
        i = data.draw(st.integers(0, n - 1))
        if kind == "duplicate" and n > 1:
            tokens[i] = tokens[(i + data.draw(st.integers(1, n - 1))) % n]
        elif kind == "non-finite":
            rows[i, data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif kind == "zero":
            rows[i] = data.draw(st.sampled_from([0.0, -0.0, 1e-45]))
        elif kind == "header":
            count = n + data.draw(st.sampled_from([-1, 1]))
    blob, offsets = render_binary(table, count)
    for kind in kinds:
        at = offsets[data.draw(st.integers(0, n - 1))]
        if kind == "drop":
            blob = blob[:at] + blob[at + 4 :]
        elif kind == "extra":
            blob = blob[:at] + b"\x00\x00\x80?" + blob[at:]
        elif kind == "truncate" and len(blob) > blob.index(b"\n") + 1:
            blob = blob[: data.draw(st.integers(blob.index(b"\n") + 1, len(blob) - 1))]
        elif kind == "trailing":
            blob += data.draw(st.sampled_from([b"junk", b"\n \n", b"x 1234", b"\x00"]))
    path = tmp_path / "mutated.bin"
    path.write_bytes(blob)
    assert_loaders_agree(path, "binary")


# ------------------------------------------------------------ index oracle


def reference_index(terms: list[str], emb: EmbeddingMatrix):
    """Surfaces, rows, discard count and zero-vector terms, one term at a time."""
    surfaces, rows, zero_terms = [], [], []
    seen: set[str] = set()
    n_discarded = 0
    for term in terms:
        key = term_key(term)
        if key in seen:
            continue
        seen.add(key)
        composed = compose_term(term, emb)
        if composed.vector is None:
            n_discarded += 1
            continue
        norm = np.linalg.norm(composed.vector)
        if norm == 0.0:
            n_discarded += 1
            zero_terms.append(term)
            continue
        surfaces.append(term)
        rows.append(composed.vector / norm)
    return surfaces, rows, n_discarded, zero_terms


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


WORDS = ["w0", "w1", "w2", "w3", "w4", "up", "down", "zz", "qq"]  # zz and qq are out of vocabulary
DECORATIONS = st.sampled_from(["", "", "!", "(", ")", "-", "'s"])


@st.composite
def candidate_terms(draw):
    def one_term():
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))
        cased = [w.upper() if draw(st.booleans()) else w for w in words]
        return draw(st.sampled_from([" ", "  ", " - "])).join(cased) + draw(DECORATIONS)

    return [one_term() for _ in range(draw(st.integers(1, 25)))]


@settings(max_examples=200, deadline=None)
@given(
    terms=candidate_terms(),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    zero_frac=st.sampled_from([0.0, 0.3]),
)
@example(terms=["up down", "w1", "W1!", "zz", "up - DOWN", "w2 zz w3"], seed=0, dim=3, zero_frac=0.3)
@example(terms=["up down", "zz qq"], seed=1, dim=2, zero_frac=0.0)
def test_build_candidate_index_matches_per_term_reference(terms, seed, dim, zero_frac):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(7, dim))
    # Exact zeros of both signs, but no all-zero row.
    holes = rng.random(size=vectors.shape) < zero_frac
    vectors[holes] = np.where(rng.random(size=vectors.shape) < 0.5, 0.0, -0.0)[holes]
    vectors[:, 0] = np.where(vectors[:, 0] == 0.0, 1.0, vectors[:, 0])
    vectors[6] = -vectors[5]  # "up down" composes to the zero vector
    emb = EmbeddingMatrix(WORDS[:7], vectors)

    surfaces, rows, n_discarded, zero_terms = reference_index(terms, emb)
    handler = _Collect()
    logger = logging.getLogger("analogykit.embeddings")
    logger.addHandler(handler)
    try:
        if not surfaces:
            with pytest.raises(ValueError, match="candidate index is empty"):
                build_candidate_index(terms, emb)
            return
        index = build_candidate_index(terms, emb)
    finally:
        logger.removeHandler(handler)

    assert index.surfaces == surfaces
    assert index.n_discarded == n_discarded
    expected = np.vstack(rows)
    assert index.matrix.shape == expected.shape
    assert np.array_equal(index.matrix.view(np.uint64), expected.view(np.uint64))
    assert handler.messages == [f"discarding {t!r}: composed vector is zero" for t in zero_terms]
    positions: dict[str, int] = {}
    for i, surface in enumerate(surfaces):
        positions.setdefault(term_key(surface), i)
    for probe in [*terms, *WORDS, "up down", "nothing here"]:
        assert index.index_of(probe) == positions.get(term_key(probe))
