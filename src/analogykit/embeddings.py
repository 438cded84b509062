"""Embedding storage, multi-word term composition, and the candidate answer index.

Vector file formats:

* ``text``: header line ``<count> <dim>``, then one ``<token> <v1> ... <vdim>``
  line per token.  If line 1 does not parse as a two-integer header the file
  is read as headerless (GloVe emits no header).
* ``text-noheader``: as above, but line 1 is always data.  Use this when a
  headerless file's first line could be mistaken for a header.
* ``binary``: word2vec-compatible binary.  Header line, then per token: the
  token bytes terminated by a single space, followed by ``dim`` little-endian
  float32 values.  A trailing newline per row is written on save and
  tolerated on load.  The file is read in chunks, and each row's values are
  copied into one float32 array; they stay float32, as the file stores them;
  text files and the :class:`EmbeddingMatrix` constructor give float64.
  Every computation upcasts to float64 first, which is exact, so scores do
  not depend on the stored dtype.

The token rule: a token is non-empty, holds no whitespace as ``str.split``
finds it, and repeats no earlier token.  Multi-word terms are handled by
composition (:func:`compose_term`), not by the token vocabulary.

Text tokens and values are separated by whitespace as ``str.split`` and
``np.loadtxt`` find it, including the line boundaries, such as ``\\x85``,
that :mod:`.textio` keeps inside a line.  Values follow Python's ``float``
grammar restricted to ASCII characters without ``_``: signs, decimal points,
exponents and the ``nan``/``inf``/``infinity`` spellings in any case are
accepted; digit-group underscores (``1_0``), full-width digits (``１``) and
other non-ASCII digits (``٣``) are parse errors.  The norm rule: every vector
must be finite, with a sum of squares in ``[tiny, inf)``, ``tiny`` being
``np.finfo(np.float64).tiny`` (about 2.2e-308).  Below it the norm is zero or
inexact (subnormal); at ``inf`` it overflows float64 (past about 1.8e308).
"""

from __future__ import annotations

import logging
import os
import unicodedata
from collections.abc import Container, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .textio import _CHUNK_BYTES, open_text

logger = logging.getLogger(__name__)

EMBEDDING_FORMATS = ("text", "text-noheader", "binary")
_TINY = np.finfo(np.float64).tiny
# Text lines parsed per np.loadtxt call, at most; a chunk also ends at _CHUNK_BYTES characters.
_TEXT_LINES = 4096


class EmbeddingParseError(ValueError):
    """A vector file violates its declared format."""


def _token_fault(tokens: list[str]) -> tuple[int, str] | None:
    """The index and message of the first token that breaks the token rule, or ``None``.

    One bulk test covers every token; only when it fails are the tokens walked.
    """
    if " ".join(tokens).split() == tokens and len(set(tokens)) == len(tokens):
        return None
    seen: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.split() != [tok]:
            return i, f"invalid token {tok!r}: tokens must be non-empty and contain no whitespace"
        if tok in seen:
            return i, f"duplicate token {tok!r}"
        seen.add(tok)


def _adopt(cls, *args):
    """Build ``cls`` around arrays made and checked in this module, skipping ``__init__``'s copy and checks."""
    obj = cls.__new__(cls)
    obj._init(*args)
    return obj


class EmbeddingMatrix:
    """Dense token vectors plus a token -> row mapping.

    Immutable after construction: the vector array is marked read-only.
    """

    def __init__(self, tokens: list[str], vectors: np.ndarray):
        tokens = list(tokens)
        vectors = np.array(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise ValueError("vectors must be a 2-d array with at least one column")
        if len(tokens) != vectors.shape[0]:
            raise ValueError(f"{len(tokens)} tokens but {vectors.shape[0]} vectors")
        if vectors.shape[0] == 0:
            raise ValueError("embedding matrix must contain at least one token")
        if fault := _token_fault(tokens):
            raise ValueError("row %d: %s" % fault)
        _check_values(tokens, vectors, lambda i: f"row {i}", ValueError)
        self._init(tokens, vectors)

    def _init(self, tokens: list[str], vectors: np.ndarray, row: dict[str, int] | None = None) -> None:
        """Store arrays that the constructor or a loader has already checked; ``row`` maps each token to its row."""
        vectors.flags.writeable = False
        self.tokens: list[str] = tokens
        self.vectors: np.ndarray = vectors
        self._row: dict[str, int] = {tok: i for i, tok in enumerate(tokens)} if row is None else row

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._row

    def row(self, token: str) -> int:
        return self._row[token]

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self._row[token]]


class _StripTable(dict):
    """A ``str.translate`` table deleting punctuation and symbols, filled as code points are met."""

    def __missing__(self, code: int) -> int | None:
        kept = None if unicodedata.category(chr(code))[0] in "PS" else code
        self[code] = kept
        return kept


_STRIP = _StripTable()


def normalize_term(term: str) -> list[str]:
    """Lowercase, delete punctuation/symbol characters, split on whitespace.

    Punctuation and symbols are the Unicode categories P* and S*.  Empty
    tokens are dropped; an empty or all-punctuation input yields ``[]``.
    """
    return term.lower().translate(_STRIP).split()


def term_key(term: str) -> str:
    """Canonical form under which candidate surfaces are deduplicated."""
    return " ".join(normalize_term(term))


@dataclass(frozen=True)
class ComposedTerm:
    """A term's vector built by averaging its in-vocabulary component words.

    ``vector`` is ``None`` exactly when no component word is in vocabulary;
    otherwise it is the arithmetic mean of the raw (unnormalized) component
    vectors.
    """

    surface: str
    tokens: list[str]
    in_vocab: list[str]
    vector: np.ndarray | None


def compose_term(term: str, emb: EmbeddingMatrix) -> ComposedTerm:
    """Compose ``term`` by averaging the vectors of its in-vocabulary words."""
    tokens = normalize_term(term)
    in_vocab = [t for t in tokens if t in emb]
    if not in_vocab:
        return ComposedTerm(term, tokens, in_vocab, None)
    rows = emb.vectors[[emb.row(t) for t in in_vocab]].astype(np.float64, copy=False)
    return ComposedTerm(term, tokens, in_vocab, rows.mean(axis=0))


class CandidateIndex:
    """Composed, unit-normalized vectors for the candidate answer vocabulary.

    Lookup goes through :func:`term_key`, so surfaces that normalize to the
    same form resolve to the same entry (first occurrence wins).  Immutable
    after construction.  ``n_discarded`` and ``n_duplicates`` count the terms
    :func:`build_candidate_index` dropped; the constructor sets both to 0.
    """

    def __init__(self, surfaces: list[str], matrix: np.ndarray):
        surfaces = list(surfaces)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(surfaces):
            raise ValueError("matrix must have one row per surface")
        if len(surfaces) == 0:
            raise ValueError("candidate index is empty: evaluation is impossible")
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        if not (np.abs(norms - 1.0) <= 1e-6).all():  # a NaN norm fails too
            raise ValueError("candidate vectors must be unit-normalized")
        self._init(surfaces, matrix, 0, 0, [term_key(surface) for surface in surfaces])

    def _init(
        self, surfaces: list[str], matrix: np.ndarray, n_discarded: int, n_duplicates: int, keys: list[str]
    ) -> None:
        """Store unit rows, one per surface, that the constructor or the build has checked."""
        # A line break would not survive the outcomes CSV as a top guess.
        joined = "".join(surfaces)
        if "\n" in joined or "\r" in joined:
            surface = next(s for s in surfaces if "\n" in s or "\r" in s)
            raise ValueError(f"candidate surface {surface!r} contains a line break")
        matrix.flags.writeable = False
        self.surfaces: list[str] = surfaces
        self.matrix: np.ndarray = matrix
        self.n_discarded: int = n_discarded
        self.n_duplicates: int = n_duplicates
        # Filled last index first, so the first of equal keys wins.
        self._key_to_index: dict[str, int] = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.surfaces)

    def index_of(self, term: str) -> int | None:
        return self._key_to_index.get(term_key(term))

    def vector(self, i: int) -> np.ndarray:
        return self.matrix[i]


def build_candidate_index(terms: list[str], emb: EmbeddingMatrix) -> CandidateIndex:
    """Compose every candidate term and build the answer index.

    Terms whose component words are all out of vocabulary are discarded and
    counted in ``n_discarded``; so are terms whose composed vector breaks the
    module docstring's norm rule (it is zero, or its squares underflow or
    overflow), with a logged warning.  A term whose normalized key an earlier
    term already had is dropped and counted in ``n_duplicates``, so kept
    entries, discards and duplicates add up to ``len(terms)``.  Kept entries
    preserve input order and are L2-normalized.  Each row equals
    :func:`compose_term`'s vector divided by its ``np.linalg.norm``, bit for
    bit; only terms with several in-vocabulary words are averaged.
    """
    first: dict[str, str] = {}
    for term in terms:
        first.setdefault(term_key(term), term)
    row_of = emb._row
    word_rows = {key: rows for key in first if (rows := [row_of[w] for w in key.split() if w in row_of])}
    keys = list(word_rows)
    surfaces = [first[key] for key in keys]
    n_duplicates = len(terms) - len(first)
    n_discarded = len(first) - len(keys)

    # One float64 matrix, gathered a chunk at a time: float32 rows widen exactly as they land.
    heads = [rows[0] for rows in word_rows.values()]
    matrix = np.empty((len(heads), emb.dim))
    step = max(1, _CHUNK_BYTES // (8 * emb.dim))
    for i in range(0, len(heads), step):
        matrix[i : i + step] = emb.vectors[heads[i : i + step]]
    # The mean of one row is 0.0 + row: -0.0 becomes 0.0, nothing else changes.
    matrix += 0.0
    for i, rows in enumerate(word_rows.values()):
        if len(rows) > 1:
            matrix[i] = emb.vectors[rows].astype(np.float64, copy=False).mean(axis=0)
    # sqrt(v.dot(v)) is how np.linalg.norm computes a vector's norm; the
    # stacked product gives each row's v.dot(v), bit for bit.
    squares = (matrix[:, None, :] @ matrix[:, :, None]).ravel()
    bad = _breaks_norm_rule(squares)
    if bad.any():
        # Such a vector has no exact unit direction, so the term cannot be ranked.
        for i in np.flatnonzero(bad):
            problem = "vector is zero" if squares[i] == 0.0 else _norm_problem(squares[i])
            logger.warning("discarding %r: composed %s", surfaces[i], problem)
        n_discarded += int(bad.sum())
        surfaces = [s for s, b in zip(surfaces, bad) if not b]
        keys = [k for k, b in zip(keys, bad) if not b]
        matrix, squares = matrix[~bad], squares[~bad]
    if not surfaces:
        raise ValueError("candidate index is empty: no term had an in-vocabulary word")
    matrix /= np.sqrt(squares)[:, None]
    return _adopt(CandidateIndex, surfaces, matrix, n_discarded, n_duplicates, keys)


def load_embeddings(path: str | Path, format: str = "text") -> EmbeddingMatrix:
    """Load token vectors from ``path`` in one of :data:`EMBEDDING_FORMATS`.

    ``format="text"`` auto-detects a missing header by attempting to parse
    line 1 as ``<count> <dim>``.  Errors are :class:`EmbeddingParseError`
    naming the file and the first bad line (text) or byte offset (binary).
    """
    if format not in EMBEDDING_FORMATS:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {EMBEDDING_FORMATS}")
    if format == "binary":
        return _load_binary(Path(path))
    return _load_text(Path(path), force_headerless=(format == "text-noheader"))


def _parse_header(fields: list[str]) -> tuple[int, int] | None:
    if len(fields) != 2:
        return None
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        return None
    if count < 1 or dim < 1:
        return None
    return count, dim


def _parse_value(field: str) -> float:
    """``float(field)`` limited to the value grammar in the module docstring."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _breaks_norm_rule(squares: np.ndarray) -> np.ndarray:
    """Where a sum of squares lies outside ``[tiny, inf)``, as NaN does: the norm rule."""
    return ~((squares >= _TINY) & (squares < np.inf))


def _norm_problem(square: float) -> str:
    """How a sum of squares breaks the norm rule."""
    if square == 0.0:
        return "zero vector"
    return "norm underflows float64" if square < _TINY else "norm overflows float64"


def _check_values(tokens: list[str], vectors: np.ndarray, where, error: type[ValueError]) -> None:
    """Raise ``error`` for the first row with a non-finite value or that breaks the norm rule.

    ``where(i)`` is the location of row ``i``: its place in the file, or its row number.
    """
    # np.linalg.norm's sum of squares breaks the rule on the same rows, up to rounding at tiny and inf.
    # A NaN or infinite value makes it NaN or inf, so the rows it flags include the non-finite ones.
    squares = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
    bad = _breaks_norm_rule(squares)
    if bad.any():
        i = int(bad.argmax())
        problem = "non-finite value" if not np.isfinite(vectors[i]).all() else _norm_problem(squares[i])
        raise error(f"{where(i)}: {problem} for token {tokens[i]!r}")


def _load_text(path: Path, force_headerless: bool) -> EmbeddingMatrix:
    """Stream the rows into one float64 matrix, one chunk of lines (:func:`_take_lines`) per ``np.loadtxt`` call.

    The matrix is sized from the header when the file can hold that many
    rows, and grown a chunk at a time otherwise, so the load holds one chunk
    of lines, never the file's bytes or all of its lines, also on a fault.
    Each chunk is checked as it lands: its tokens against all before them,
    its rows by :func:`_check_values`.  A chunk that does not parse or
    repeats a token goes to :func:`_scan_text`, which names its first bad
    line.  The rest of the file is then counted, so that a header count the
    rows do not match is named first.
    """
    lines = open_text(path, EmbeddingParseError)
    try:
        head = next(lines, None)
        if head is None:
            raise EmbeddingParseError(f"{path}: empty file")
        header = None if force_headerless else _parse_header(head.split())
        if header is None:
            start, dim, data = 0, len(head.split()) - 1, chain([head], lines)
            if dim < 1:
                raise EmbeddingParseError(f"{path}:1: no vector values on first data line")
        else:
            start, dim, data = 1, header[1], lines
        # A row takes at least 2 * dim + 1 bytes: a header the file cannot hold sizes nothing.
        fits = header is not None and header[0] * (2 * dim + 1) <= path.stat().st_size
        vectors = np.empty((header[0] if fits else 0, dim))
        row: dict[str, int] = {}  # the rows' tokens, in file order
        n = 0
        fault = None

        def where(i: int) -> str:
            return f"{path}:{start + n + i + 1}"

        def values(chunk: list[str], names: list[str]):
            for line in chunk:
                token, text = line.split(None, 1)  # a ValueError on a line without values
                names.append(token)
                yield text

        while chunk := _take_lines(data):
            names: list[str] = []
            try:
                rows = np.loadtxt(values(chunk, names), dtype=np.float64, comments=None, ndmin=2)
            except ValueError:
                rows = None
            parsed = rows is not None and rows.shape == (len(chunk), dim)
            try:
                if not (parsed and len(set(names)) == len(chunk) and row.keys().isdisjoint(names)):
                    names, rows = _scan_text(chunk, dim, where, row)
                _check_values(names, rows, where, EmbeddingParseError)
            except EmbeddingParseError as exc:
                fault = exc
                n += len(chunk) + sum(1 for _ in data)
                break
            row.update(zip(names, range(n, n + len(chunk))))
            if n + len(chunk) > len(vectors):
                vectors.resize((n + len(chunk), dim), refcheck=False)
            vectors[n : n + len(chunk)] = rows
            n += len(chunk)
            del chunk, rows, names  # before the next chunk is read
    finally:
        lines.close()
    if n == 0:
        raise EmbeddingParseError(f"{path}: no vector rows")
    if header is not None and n != header[0]:
        raise EmbeddingParseError(f"{path}: header declares {header[0]} vectors, found {n}")
    if fault is not None:
        raise fault
    return _adopt(EmbeddingMatrix, list(row), vectors, row)


def _take_lines(lines: Iterator[str]) -> list[str]:
    """The next ``_TEXT_LINES`` lines, or fewer if they reach ``_CHUNK_BYTES`` characters first."""
    chunk: list[str] = []
    size = 0
    for line in lines:
        chunk.append(line)
        size += len(line)
        if len(chunk) == _TEXT_LINES or size >= _CHUNK_BYTES:
            break
    return chunk


def _scan_text(data: list[str], dim: int, where, seen: Container[str]) -> tuple[list[str], np.ndarray]:
    """Raise for the first bad line of a chunk, in the order a line-by-line read meets the faults.

    Runs only when the chunk's parse has failed or a token in it repeats one
    of its own or of ``seen``, the tokens of the chunks before it.
    ``str.split`` and ``np.loadtxt`` find the same fields, and
    ``_parse_value`` accepts the values ``np.loadtxt`` does, so some line is
    bad; should none be, the rows read here are the chunk's rows.  It checks
    duplicates itself, to order them before a line's value faults.
    """
    tokens: dict[str, None] = {}
    rows = np.empty((0, dim))
    for i, line in enumerate(data):
        fields = line.split()
        if len(fields) != dim + 1:
            error = f"expected {dim} values, found {len(fields) - 1}" if fields else "blank line"
        elif fields[0] in seen or fields[0] in tokens:
            error = f"duplicate token {fields[0]!r}"
        else:
            try:
                values = [_parse_value(v) for v in fields[1:]]
            except ValueError as exc:
                error = str(exc)
            else:
                if not tokens:  # a line holds the dim values, so the chunk's rows fit in memory
                    rows = np.empty((len(data), dim))
                rows[len(tokens)] = values
                tokens[fields[0]] = None
                continue
        _check_values(list(tokens), rows[: len(tokens)], where, EmbeddingParseError)
        raise EmbeddingParseError(f"{where(i)}: {error}")
    return list(tokens), rows


def _load_binary(path: Path) -> EmbeddingMatrix:
    """Read the file a chunk at a time, copying each row's values into one float32 matrix.

    The matrix is sized from the header only as far as the file can hold
    rows, so the load holds the matrix, one chunk, and the tokens' bytes and
    offsets.  Once the rows are read, the tokens are decoded in one call and
    checked by :func:`_token_fault`.  A fault stops the read, but the rows
    before it are checked first, so the error names the first fault in file
    order, as a row-by-row read would.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n"):
            raise EmbeddingParseError(f"{path}: missing header line")
        header = _parse_header(head.decode("utf-8", errors="replace").split())
        if header is None:
            raise EmbeddingParseError(f"{path}: malformed header {head[:-1]!r}")
        count, dim = header
        row_bytes = 4 * dim
        size = os.fstat(fh.fileno()).st_size
        # A row takes at least a space and its values: size nothing the file cannot hold.
        vectors = np.empty((min(count, (size - len(head)) // (row_bytes + 1)), dim), dtype="<f4")
        names = bytearray()  # each token with the space that ends it
        starts: list[int] = []  # each token's offset
        n = 0  # rows whose values are in ``vectors``
        error = None
        buf, at, base = b"", 0, len(head)  # buf[at:] is the unread part of the chunk at offset base

        def more() -> bool:
            """Keep ``buf[at:]`` and append the next chunk; false at the end of the file."""
            nonlocal buf, at, base
            rest, base, buf = buf[at:], base + at, b""
            chunk = fh.read(_CHUNK_BYTES)
            buf, at = rest + chunk, 0
            return bool(chunk)

        def skip_newlines() -> None:
            nonlocal at
            while True:
                while at < len(buf) and buf[at] == 0x0A:
                    at += 1
                if at < len(buf) or not more():
                    return

        with memoryview(vectors.view(np.uint8).reshape(-1)) as out:
            for i in range(count):
                skip_newlines()
                start, scanned = base + at, 0
                while (sp := buf.find(b" ", at + scanned)) < 0:
                    scanned = len(buf) - at
                    if not more():
                        break
                if sp < 0:
                    error = f"offset {start}: unterminated token for vector {i}"
                    break
                starts.append(start)
                names += buf[at : sp + 1]
                at = sp + 1
                if base + at + row_bytes > size:
                    break  # a truncated row, named once its token is known
                dst, end = n * row_bytes, (n + 1) * row_bytes
                while dst < end and (at < len(buf) or more()):
                    take = min(end - dst, len(buf) - at)
                    out[dst : dst + take] = buf[at : at + take]
                    dst, at = dst + take, at + take
                if dst < end:
                    break  # the file shrank while being read
                n += 1
            else:
                skip_newlines()
                if at < len(buf):
                    error = f"offset {base + at}: trailing data after {count} vectors"

    try:
        tokens = names.decode("utf-8").split(" ")
    except UnicodeDecodeError as exc:
        i = names.count(b" ", 0, exc.start)
        tokens = names[: exc.start].decode("utf-8").split(" ")[:i]
        fault = _token_fault(tokens) or (i, "undecodable token bytes")
    else:
        del tokens[-1]  # the empty string after the last space
        fault = _token_fault(tokens)
    if fault is not None:
        i, message = fault
        error = f"offset {starts[i]}: {message}"
        del tokens[i:]
        n = min(n, i)

    def values_at(i: int) -> int:
        return starts[i] + len(tokens[i].encode("utf-8")) + 1

    if n < len(tokens):
        error = f"offset {values_at(n)}: truncated vector for token {tokens[n]!r}"
    _check_values(tokens, vectors[:n], lambda i: f"{path}: offset {values_at(i)}", EmbeddingParseError)
    if error is not None:
        raise EmbeddingParseError(f"{path}: {error}")
    return _adopt(EmbeddingMatrix, tokens, vectors)


def save_embeddings(emb: EmbeddingMatrix, path: str | Path, format: str = "text") -> None:
    """Write ``emb`` to ``path``; text values use shortest round-trip repr."""
    if format not in EMBEDDING_FORMATS:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {EMBEDDING_FORMATS}")
    path = Path(path)
    if format == "binary":
        # Check the rows the binary loader will read back: float32 can overflow to inf or flush to 0.
        with np.errstate(over="ignore"):
            as_f32 = emb.vectors.astype("<f4")
        _check_values(emb.tokens, as_f32, lambda i: f"{path}: row {i} as float32", ValueError)
        with open(path, "wb") as fh:
            fh.write(f"{len(emb)} {emb.dim}\n".encode("utf-8"))
            for token, row in zip(emb.tokens, as_f32):
                fh.write(token.encode("utf-8") + b" " + row.tobytes() + b"\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if format == "text":
            fh.write(f"{len(emb)} {emb.dim}\n")
        for token, row in zip(emb.tokens, emb.vectors):
            fh.write(token + " " + " ".join(repr(float(v)) for v in row) + "\n")
