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
  tolerated on load.

Tokens may not contain whitespace; multi-word terms are handled by
composition (:func:`compose_term`), not by the token vocabulary.

Text tokens and values are separated by whitespace as ``str.split`` and
``np.loadtxt`` find it, including the line boundaries, such as ``\\x85``,
that :mod:`.textio` keeps inside a line.  Values follow Python's ``float``
grammar restricted to ASCII characters without ``_``: signs, decimal points,
exponents and the ``nan``/``inf``/``infinity`` spellings in any case are
accepted; digit-group underscores (``1_0``), full-width digits (``１``) and
other non-ASCII digits (``٣``) are parse errors.  Every vector must be finite
and have a non-zero norm, and its sum of squares must not overflow float64
(about 1.8e308).
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NoReturn

import numpy as np

from .textio import open_text

logger = logging.getLogger(__name__)

EMBEDDING_FORMATS = ("text", "text-noheader", "binary")


class EmbeddingParseError(ValueError):
    """A vector file violates its declared format."""


def _check_token(tok: str) -> None:
    if not tok or tok.split() != [tok]:
        raise ValueError(f"invalid token {tok!r}: tokens must be non-empty and contain no whitespace")


def _validate_tokens(tokens: list[str]) -> None:
    seen: set[str] = set()
    for tok in tokens:
        _check_token(tok)
        if tok in seen:
            raise ValueError(f"duplicate token {tok!r}")
        seen.add(tok)


def _adopt(cls, *args):
    """Build ``cls`` around arrays made in this module, without the copy ``__init__`` takes."""
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
        _validate_tokens(tokens)
        _check_values(tokens, vectors, lambda i: f"row {i}", ValueError)
        self._init(tokens, vectors)

    def _init(self, tokens: list[str], vectors: np.ndarray) -> None:
        """Store arrays that the constructor or a loader has already checked."""
        vectors.flags.writeable = False
        self.tokens: list[str] = tokens
        self.vectors: np.ndarray = vectors
        self._row: dict[str, int] = {tok: i for i, tok in enumerate(tokens)}

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


@lru_cache(maxsize=8192)
def _is_stripped(ch: str) -> bool:
    # Unicode categories P* (punctuation) and S* (symbols).
    return unicodedata.category(ch)[0] in ("P", "S")


def normalize_term(term: str) -> list[str]:
    """Lowercase, delete punctuation/symbol characters, split on whitespace.

    Empty tokens are dropped; an empty or all-punctuation input yields ``[]``.
    """
    cleaned = "".join(ch for ch in term.lower() if not _is_stripped(ch))
    return cleaned.split()


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
    rows = emb.vectors[[emb.row(t) for t in in_vocab]]
    return ComposedTerm(term, tokens, in_vocab, rows.mean(axis=0))


class CandidateIndex:
    """Composed, unit-normalized vectors for the candidate answer vocabulary.

    Lookup goes through :func:`term_key`, so surfaces that normalize to the
    same form resolve to the same entry (first occurrence wins).  Immutable
    after construction.
    """

    def __init__(self, surfaces: list[str], matrix: np.ndarray, n_discarded: int = 0):
        surfaces = list(surfaces)
        keys = [term_key(surface) for surface in surfaces]
        self._init(surfaces, np.array(matrix, dtype=np.float64), n_discarded, keys)

    def _init(self, surfaces: list[str], matrix: np.ndarray, n_discarded: int, keys: list[str]) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != len(surfaces):
            raise ValueError("matrix must have one row per surface")
        if len(surfaces) == 0:
            raise ValueError("candidate index is empty: evaluation is impossible")
        # A line break would not survive the outcomes CSV as a top guess.
        for surface in surfaces:
            if "\n" in surface or "\r" in surface:
                raise ValueError(f"candidate surface {surface!r} contains a line break")
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError("candidate vectors must be unit-normalized")
        matrix.flags.writeable = False
        self.surfaces: list[str] = surfaces
        self.matrix: np.ndarray = matrix
        self.n_discarded: int = n_discarded
        self._key_to_index: dict[str, int] = {}
        for i, key in enumerate(keys):
            self._key_to_index.setdefault(key, i)

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
    counted in ``n_discarded``.  Duplicate surfaces (after term
    normalization) collapse to their first occurrence.  Kept entries
    preserve input order and are L2-normalized.  Each row equals
    :func:`compose_term`'s vector divided by its ``np.linalg.norm``, bit for
    bit; only terms with several in-vocabulary words are averaged.
    """
    surfaces: list[str] = []
    keys: list[str] = []
    word_rows: list[list[int]] = []
    seen: set[str] = set()
    n_discarded = 0
    for term in terms:
        words = normalize_term(term)
        key = " ".join(words)
        if key in seen:
            continue
        seen.add(key)
        rows = [emb._row[w] for w in words if w in emb._row]
        if not rows:
            n_discarded += 1
            continue
        surfaces.append(term)
        keys.append(key)
        word_rows.append(rows)

    matrix = emb.vectors[[rows[0] for rows in word_rows]]
    # The mean of one row is 0.0 + row: -0.0 becomes 0.0, nothing else changes.
    matrix += 0.0
    for i, rows in enumerate(word_rows):
        if len(rows) > 1:
            matrix[i] = emb.vectors[rows].mean(axis=0)
    # sqrt(v.dot(v)) is how np.linalg.norm computes a vector's norm.
    norms = np.sqrt([row.dot(row) for row in matrix])
    zero = norms == 0.0
    if zero.any():
        # Component vectors cancelled exactly; the term cannot be ranked.
        for i in np.flatnonzero(zero):
            logger.warning("discarding %r: composed vector is zero", surfaces[i])
        n_discarded += int(zero.sum())
        surfaces = [s for s, z in zip(surfaces, zero) if not z]
        keys = [k for k, z in zip(keys, zero) if not z]
        matrix, norms = matrix[~zero], norms[~zero]
    if not surfaces:
        raise ValueError("candidate index is empty: no term had an in-vocabulary word")
    matrix /= norms[:, None]
    return _adopt(CandidateIndex, surfaces, matrix, n_discarded, keys)


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


def _check_values(tokens: list[str], vectors: np.ndarray, where, error: type[ValueError]) -> None:
    """Raise ``error`` for the first row with a non-finite value or a zero or overflowing norm.

    ``where(i)`` is the location of row ``i``: its place in the file, or its row number.
    """
    non_finite = ~np.isfinite(vectors).all(axis=1)
    squares = np.einsum("ij,ij->i", vectors, vectors)
    # A sum of squares is zero or inf exactly when np.linalg.norm of the row
    # is, up to the summation order at the edge of overflow.
    zero = squares == 0.0
    bad = non_finite | zero | (squares == np.inf)
    if bad.any():
        i = int(bad.argmax())
        if non_finite[i]:
            problem = "non-finite value"
        elif zero[i]:
            problem = "zero vector"
        else:
            problem = "norm overflows float64"
        raise error(f"{where(i)}: {problem} for token {tokens[i]!r}")


def _load_text(path: Path, force_headerless: bool) -> EmbeddingMatrix:
    """Parse all values in one ``np.loadtxt`` call; scan line by line only on a fault."""
    lines = list(open_text(path, EmbeddingParseError))
    if not lines:
        raise EmbeddingParseError(f"{path}: empty file")
    header = None if force_headerless else _parse_header(lines[0].split())
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

    def values():
        # A ValueError here, or from np.loadtxt, sends the file to _scan_text.
        for line in data:
            token, rest = line.split(None, 1)  # a line without values
            if token in seen:
                raise ValueError("duplicate token")
            seen.add(token)
            tokens.append(token)
            yield rest

    def where(i: int) -> str:
        return f"{path}:{start + i + 1}"

    try:
        vectors = np.loadtxt(values(), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        vectors = None
    if vectors is None or vectors.shape != (len(data), dim):
        _scan_text(data, dim, where)
    _check_values(tokens, vectors, where, EmbeddingParseError)
    return _adopt(EmbeddingMatrix, tokens, vectors)


def _scan_text(data: list[str], dim: int, where) -> NoReturn:
    """Raise for the first bad line, in the order a line-by-line read meets the faults.

    Runs only when the bulk parse has failed.
    """
    tokens: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    for i, line in enumerate(data):
        fields = line.split()
        if len(fields) != dim + 1:
            error = f"expected {dim} values, found {len(fields) - 1}"
        elif fields[0] in seen:
            error = f"duplicate token {fields[0]!r}"
        else:
            try:
                rows.append([_parse_value(v) for v in fields[1:]])
            except ValueError as exc:
                error = str(exc)
            else:
                seen.add(fields[0])
                tokens.append(fields[0])
                continue
        _check_values(tokens, np.array(rows, dtype=np.float64).reshape(-1, dim), where, EmbeddingParseError)
        raise EmbeddingParseError(f"{where(i)}: {error}")
    raise EmbeddingParseError(f"{where(0)}: rows do not parse as {len(data)} x {dim} values")


def _load_binary(path: Path) -> EmbeddingMatrix:
    """Scan the tokens, then convert all rows at once.

    A fault stops the scan, but the rows before it are checked first, so the
    error names the first fault in file order, as a row-by-row read would.
    """
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise EmbeddingParseError(f"{path}: missing header line")
    header = _parse_header(blob[:nl].decode("utf-8", errors="replace").split())
    if header is None:
        raise EmbeddingParseError(f"{path}: malformed header {blob[:nl]!r}")
    count, dim = header
    row_bytes = 4 * dim
    pos = nl + 1
    tokens: list[str] = []
    offsets: list[int] = []
    seen: set[str] = set()
    error = None
    for i in range(count):
        while pos < len(blob) and blob[pos] == 0x0A:
            pos += 1
        sp = blob.find(b" ", pos)
        if sp < 0:
            error = f"offset {pos}: unterminated token for vector {i}"
            break
        try:
            token = blob[pos:sp].decode("utf-8")
            _check_token(token)
        except UnicodeDecodeError:
            error = f"offset {pos}: undecodable token bytes"
            break
        except ValueError as exc:
            error = f"offset {pos}: {exc}"
            break
        if token in seen:
            error = f"offset {pos}: duplicate token {token!r}"
            break
        seen.add(token)
        pos = sp + 1
        if pos + row_bytes > len(blob):
            error = f"offset {pos}: truncated vector for token {token!r}"
            break
        tokens.append(token)
        offsets.append(pos)
        pos += row_bytes
    else:
        while pos < len(blob) and blob[pos] == 0x0A:
            pos += 1
        if pos != len(blob):
            error = f"offset {pos}: trailing data after {count} vectors"

    with memoryview(blob) as view:
        packed = b"".join([view[o : o + row_bytes] for o in offsets])
    del blob  # free the file bytes before the float64 copy
    vectors = np.frombuffer(packed, dtype="<f4").reshape(len(offsets), dim).astype(np.float64)
    _check_values(tokens, vectors, lambda i: f"{path}: offset {offsets[i]}", EmbeddingParseError)
    if error is not None:
        raise EmbeddingParseError(f"{path}: {error}")
    return _adopt(EmbeddingMatrix, tokens, vectors)


def save_embeddings(emb: EmbeddingMatrix, path: str | Path, format: str = "text") -> None:
    """Write ``emb`` to ``path``; text values use shortest round-trip repr."""
    if format not in EMBEDDING_FORMATS:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {EMBEDDING_FORMATS}")
    path = Path(path)
    if format == "binary":
        with open(path, "wb") as fh:
            fh.write(f"{len(emb)} {emb.dim}\n".encode("utf-8"))
            as_f32 = emb.vectors.astype("<f4")
            for token, row in zip(emb.tokens, as_f32):
                fh.write(token.encode("utf-8") + b" " + row.tobytes() + b"\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if format == "text":
            fh.write(f"{len(emb)} {emb.dim}\n")
        for token, row in zip(emb.tokens, emb.vectors):
            fh.write(token + " " + " ".join(repr(float(v)) for v in row) + "\n")
