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
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from analogykit import embeddings
from analogykit.embeddings import (
    CandidateIndex,
    EmbeddingMatrix,
    EmbeddingParseError,
    build_candidate_index,
    compose_term,
    load_embeddings,
    term_key,
)

# ------------------------------------------------------------------ oracles

# The norm rule: a row's sum of squares lies in [TINY, inf).
TINY = np.finfo(np.float64).tiny


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
    # Text mode: lines end at \n, \r\n or \r, and at no other Unicode line boundary.
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
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
        if not fields:
            raise EmbeddingParseError(f"{path}:{lineno}: blank line")
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
        norm = np.linalg.norm(row)
        if norm == 0.0:
            raise EmbeddingParseError(f"{path}:{lineno}: zero vector for token {token!r}")
        if row.dot(row) < TINY:
            raise EmbeddingParseError(f"{path}:{lineno}: norm underflows float64 for token {token!r}")
        if norm == np.inf:
            raise EmbeddingParseError(f"{path}:{lineno}: norm overflows float64 for token {token!r}")
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
        # Widening a signaling NaN warns "invalid value"; the row is then non-finite, as below.
        with np.errstate(invalid="ignore"):
            row = np.frombuffer(blob, dtype="<f4", count=dim, offset=pos).astype(np.float64)
        pos += row_bytes
        if not np.isfinite(row).all():
            raise EmbeddingParseError(f"{path}: offset {pos - row_bytes}: non-finite value for token {token!r}")
        norm = np.linalg.norm(row)
        if norm == 0.0:
            raise EmbeddingParseError(f"{path}: offset {pos - row_bytes}: zero vector for token {token!r}")
        if row.dot(row) < TINY:
            raise EmbeddingParseError(f"{path}: offset {pos - row_bytes}: norm underflows float64 for token {token!r}")
        if norm == np.inf:
            raise EmbeddingParseError(f"{path}: offset {pos - row_bytes}: norm overflows float64 for token {token!r}")
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
    assert np.array_equal(loaded.vectors.astype(np.float64).view(np.uint64), expected.vectors.view(np.uint64))
    return True


# --------------------------------------------------------- file strategies

# No whitespace or line breaks (categories Cc, Zs, Zl, Zp) and no surrogates.
TOKENS = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
    min_size=1,
    max_size=5,
)
# Up to 5 values of at most 1e150 cannot overflow a sum of squares.
ANY_FLOAT = st.floats(-1e150, 1e150)
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
# The Unicode line boundaries that do not end a line in text mode.
BOUNDARIES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Finite values whose square overflows float64.
HUGE = ["1e200", "-1.5E+160", "1.7976931348623157e308", "+2e154"]
# Up to 5 values of at most 2e-160 have squares that sum below TINY; values
# of at most 2e-154 have squares that sum to either side of it.
TINY_FLOAT = st.builds(lambda v, scale: v * scale, st.floats(-2.0, 2.0), st.sampled_from([1e-160, 1e-154]))


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


TEXT_MUTATIONS = [
    "drop", "extra", "garbage", "numeral", "duplicate", "non-finite", "zero", "tiny", "huge", "header",
    "boundary", "blank",
]


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
        elif kind == "tiny":
            rows[i] = [data.draw(st.sampled_from(FORMATS))(data.draw(TINY_FLOAT)) for _ in rows[i]]
        elif kind == "huge" and j < len(rows[i]):
            rows[i][j] = data.draw(st.sampled_from(HUGE))
        elif kind == "boundary" and j < len(rows[i]):
            # A separator, not a line break: the row gains a value.
            rows[i][j] += data.draw(st.sampled_from(BOUNDARIES)) + "1.5"
        elif kind == "blank":
            tokens[i], rows[i] = "", []
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


def test_binary_loaders_agree_on_a_signaling_nan(tmp_path):
    # Shifted bytes can read as a signaling NaN, whose widening warns; both loaders call it non-finite.
    values = np.array([0x3F800000, 0x7FA00000], dtype="<u4").tobytes()
    path = tmp_path / "snan.bin"
    path.write_bytes(b"1 2\nw " + values + b"\n")
    assert not assert_loaders_agree(path, "binary")
    with pytest.raises(EmbeddingParseError, match=r"offset 6: non-finite value for token 'w'"):
        load_embeddings(path, "binary")


# Value text at the edge of the grammar: digit groups, non-ASCII digits,
# signs, points, exponents and the nan/inf spellings, alone or run together.
VALUE_PIECES = ["0", "7", ".", "e", "E", "+", "-", "_", "inf", "nan", "Infinity", "x", "(", "１", "٣"]
VALUE_TEXT = (
    st.builds(lambda spell, v: spell(v), st.sampled_from(FORMATS), ANY_FLOAT)
    | st.lists(st.sampled_from(VALUE_PIECES), min_size=1, max_size=4).map("".join)
)
_scan_text = embeddings._scan_text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=text_tables(), data=st.data())
def test_line_scan_finds_a_bad_line_whenever_the_bulk_parse_fails(tmp_path, table, data):
    # The scan runs only after np.loadtxt has failed; it returns rows only if
    # every line passes _parse_value, which would mean the two value parsers disagree.
    for values in table["rows"]:
        for j in range(len(values)):
            if data.draw(st.booleans()):
                values[j] = data.draw(VALUE_TEXT)
    path = tmp_path / "values.txt"
    path.write_bytes(render_text(table).encode())
    returned = []

    def scan(*args):
        returned.append(_scan_text(*args))
        return returned[-1]

    with mock.patch.object(embeddings, "_scan_text", scan):
        assert_loaders_agree(path, table["format"])
    assert returned == []


# ------------------------------------------------------------ index oracle


def reference_index(terms: list[str], emb: EmbeddingMatrix):
    """Surfaces, rows, discard and duplicate counts and the discard warnings, one term at a time."""
    surfaces, rows, warnings = [], [], []
    seen: set[str] = set()
    n_discarded = n_duplicates = 0
    for term in terms:
        key = term_key(term)
        if key in seen:
            n_duplicates += 1
            continue
        seen.add(key)
        composed = compose_term(term, emb)
        if composed.vector is None:
            n_discarded += 1
            continue
        norm = np.linalg.norm(composed.vector)
        square = composed.vector.dot(composed.vector)
        if norm == 0.0:
            problem = "vector is zero"
        elif square < TINY:
            problem = "norm underflows float64"
        elif norm == np.inf:
            problem = "norm overflows float64"
        else:
            surfaces.append(term)
            rows.append(composed.vector / norm)
            continue
        n_discarded += 1
        warnings.append(f"discarding {term!r}: composed {problem}")
    return surfaces, rows, n_discarded, n_duplicates, warnings


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


WORDS = ["w0", "w1", "w2", "w3", "w4", "up", "down", "zz", "qq"]  # zz and qq are out of vocabulary
DECORATIONS = st.sampled_from(["", "", "!", "(", ")", "-", "'s"])
# Out-of-vocabulary words whose keys the bulk lowering must get right: a
# sigma after or before a letter, or after a case-ignorable (soft hyphen,
# combining acute), and letters whose lowercase or uppercase is longer.
CASED = ["Σ", "AΣ", "ΣA", "A\u00adΣ", "AΣ\u0301", "aς", "aσ", "İ", "ß", "SS"]
# Whitespace to str.split, none of it a line break to CandidateIndex.
SPACES = [" ", "  ", " - ", "\x85", "\x1c", "\u3000"]
LINE_BREAKS = ["\n", "\r", "\r\n"]


@st.composite
def candidate_terms(draw):
    def one_term():
        if draw(st.integers(0, 9)) == 0:
            # A line break inside a term of out-of-vocabulary words, so never kept: its slice is keyed per term.
            words = draw(st.lists(st.sampled_from(["zz", "qq", *CASED]), min_size=1, max_size=3))
            return draw(st.sampled_from(LINE_BREAKS)).join(words) + draw(st.sampled_from(["", *LINE_BREAKS]))
        words = draw(st.lists(st.sampled_from(WORDS + CASED), min_size=1, max_size=4))
        cased = [w.upper() if draw(st.booleans()) else w for w in words]
        pad = draw(st.sampled_from(["", "", " ", "\x85", "\u3000"]))
        return pad + draw(st.sampled_from(SPACES)).join(cased) + draw(DECORATIONS) + pad

    return [one_term() for _ in range(draw(st.integers(1, 25)))]


def candidate_vectors(seed: int, dim: int, zero_frac: float, gap: float) -> EmbeddingMatrix:
    """Seven random rows for ``WORDS[:7]``; "up down" composes to ``gap`` on the last axis, or to 0 in 1-d."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(7, dim))
    # Exact zeros of both signs, but no all-zero row.
    holes = rng.random(size=vectors.shape) < zero_frac
    vectors[holes] = np.where(rng.random(size=vectors.shape) < 0.5, 0.0, -0.0)[holes]
    vectors[:, 0] = np.where(vectors[:, 0] == 0.0, 1.0, vectors[:, 0])
    vectors[6] = -vectors[5]
    if dim > 1:
        vectors[5:, -1] = gap
    return EmbeddingMatrix(WORDS[:7], vectors)


# With a gap of 1e-160 "up down" nearly cancels: its squares sum to 1e-320, a subnormal.
GAPS_UP_DOWN = st.sampled_from([0.0, 1e-160, 1e-100])


@settings(max_examples=200, deadline=None)
@given(
    terms=candidate_terms(),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    zero_frac=st.sampled_from([0.0, 0.3]),
    gap=GAPS_UP_DOWN,
)
@example(terms=["up down", "w1", "W1!", "zz", "up - DOWN", "w2 zz w3"], seed=0, dim=3, zero_frac=0.3, gap=0.0)
@example(terms=["up down", "zz qq"], seed=1, dim=2, zero_frac=0.0, gap=0.0)
@example(terms=["w1", "up down", "up"], seed=2, dim=2, zero_frac=0.0, gap=1e-160)
# A duplicate key through a final sigma, and a final sigma before the next term.
@example(terms=["AΣ w1", "aς W1", "w1 aσ", "w2 AΣ", "ΣA w3"], seed=3, dim=3, zero_frac=0.0, gap=0.0)
@example(terms=["w2", "zz\nqq", "ZZ\r", "w3 zz"], seed=4, dim=2, zero_frac=0.0, gap=0.0)  # discarded, with \n
@example(
    terms=["W1"] * 4095 + ["zz\nqq", "AΣ w1", "aς w1", "up down", "w1"],
    seed=5, dim=3, zero_frac=0.0, gap=0.0,
)
def test_build_candidate_index_matches_per_term_reference(terms, seed, dim, zero_frac, gap):
    emb = candidate_vectors(seed, dim, zero_frac, gap)
    surfaces, rows, n_discarded, n_duplicates, warnings = reference_index(terms, emb)
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
    assert index.n_duplicates == n_duplicates
    assert len(index) + n_discarded + n_duplicates == len(terms)
    expected = np.vstack(rows)
    assert index.matrix.shape == expected.shape
    assert np.array_equal(index.matrix.view(np.uint64), expected.view(np.uint64))
    assert handler.messages == warnings
    positions: dict[str, int] = {}
    for i, surface in enumerate(surfaces):
        positions.setdefault(term_key(surface), i)
    for probe in [*terms, *WORDS, "up down", "nothing here"]:
        assert index.index_of(probe) == positions.get(term_key(probe))


@settings(max_examples=200, deadline=None)
@given(
    terms=candidate_terms(),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    gap=GAPS_UP_DOWN,
    scale=st.sampled_from([1e-140, 1.0, 1e140]),
)
@example(terms=["up down", "w1"], seed=0, dim=2, gap=1e-160, scale=1.0)
def test_every_built_index_passes_the_public_constructor(terms, seed, dim, gap, scale):
    # build_candidate_index stores its rows unchecked; the public constructor
    # must accept every index it returns, unchanged.
    emb = candidate_vectors(seed, dim, 0.0, gap)
    emb = EmbeddingMatrix(emb.tokens, emb.vectors * scale)
    try:
        index = build_candidate_index(terms, emb)
    except ValueError as exc:
        assert str(exc) == "candidate index is empty: no term had an in-vocabulary word"
        return
    rebuilt = CandidateIndex(index.surfaces, index.matrix)
    assert rebuilt.surfaces == index.surfaces
    assert np.array_equal(rebuilt.matrix.view(np.uint64), index.matrix.view(np.uint64))
    for probe in [*terms, *WORDS, "up down", "nothing here"]:
        assert rebuilt.index_of(probe) == index.index_of(probe)
