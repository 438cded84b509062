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
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

EMBEDDING_FORMATS = ("text", "text-noheader", "binary")


class EmbeddingParseError(ValueError):
    """A vector file violates its declared format."""


def _validate_tokens(tokens: list[str]) -> None:
    seen: set[str] = set()
    for tok in tokens:
        if not tok or tok.split() != [tok]:
            raise ValueError(f"invalid token {tok!r}: tokens must be non-empty and contain no whitespace")
        if tok in seen:
            raise ValueError(f"duplicate token {tok!r}")
        seen.add(tok)


class EmbeddingMatrix:
    """Dense token vectors plus a token -> row mapping.

    Immutable after construction (the vector array is marked read-only) and
    safe to share across concurrent readers.
    """

    def __init__(self, tokens: list[str], vectors: np.ndarray):
        vectors = np.array(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise ValueError("vectors must be a 2-d array with at least one column")
        if len(tokens) != vectors.shape[0]:
            raise ValueError(f"{len(tokens)} tokens but {vectors.shape[0]} vectors")
        if vectors.shape[0] == 0:
            raise ValueError("embedding matrix must contain at least one token")
        _validate_tokens(list(tokens))
        if not np.isfinite(vectors).all():
            raise ValueError("embedding vectors must be finite")
        if (np.linalg.norm(vectors, axis=1) == 0.0).any():
            raise ValueError("zero vectors are not allowed")
        vectors.flags.writeable = False
        self.tokens: list[str] = list(tokens)
        self.vectors: np.ndarray = vectors
        self._row: dict[str, int] = {tok: i for i, tok in enumerate(self.tokens)}

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

    def normalize(self) -> "EmbeddingMatrix":
        """Return a copy whose rows all have unit L2 norm."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        return EmbeddingMatrix(self.tokens, self.vectors / norms)


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
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(surfaces):
            raise ValueError("matrix must have one row per surface")
        if len(surfaces) == 0:
            raise ValueError("candidate index is empty: evaluation is impossible")
        norms = np.linalg.norm(matrix, axis=1)
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError("candidate vectors must be unit-normalized")
        matrix.flags.writeable = False
        self.surfaces: list[str] = list(surfaces)
        self.matrix: np.ndarray = matrix
        self.n_discarded: int = n_discarded
        self._key_to_index: dict[str, int] = {}
        for i, surface in enumerate(self.surfaces):
            self._key_to_index.setdefault(term_key(surface), i)

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
    preserve input order and are L2-normalized.
    """
    surfaces: list[str] = []
    rows: list[np.ndarray] = []
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
            # Component vectors cancelled exactly; the term cannot be ranked.
            n_discarded += 1
            logger.warning("discarding %r: composed vector is zero", term)
            continue
        surfaces.append(term)
        rows.append(composed.vector / norm)
    if not surfaces:
        raise ValueError("candidate index is empty: no term had an in-vocabulary word")
    if n_discarded:
        logger.info("discarded %d of %d candidate terms (no in-vocabulary words)", n_discarded, len(seen))
    return CandidateIndex(surfaces, np.vstack(rows), n_discarded=n_discarded)


def load_embeddings(path: str | Path, format: str = "text") -> EmbeddingMatrix:
    """Load token vectors from ``path`` in one of :data:`EMBEDDING_FORMATS`.

    ``format="text"`` auto-detects a missing header by attempting to parse
    line 1 as ``<count> <dim>``.
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


def _load_text(path: Path, force_headerless: bool) -> EmbeddingMatrix:
    lines = path.read_text(encoding="utf-8").splitlines()
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
    vectors = np.empty((len(data), dim), dtype=np.float64)
    for i, line in enumerate(data):
        lineno = start + i + 1
        fields = line.split()
        if len(fields) != dim + 1:
            raise EmbeddingParseError(
                f"{path}:{lineno}: expected {dim} values, found {len(fields) - 1}"
            )
        token = fields[0]
        if token in seen:
            raise EmbeddingParseError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        try:
            row = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingParseError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(row).all():
            raise EmbeddingParseError(f"{path}:{lineno}: non-finite value for token {token!r}")
        if np.linalg.norm(row) == 0.0:
            raise EmbeddingParseError(f"{path}:{lineno}: zero vector for token {token!r}")
        tokens.append(token)
        vectors[i] = row
    return EmbeddingMatrix(tokens, vectors)


def _load_binary(path: Path) -> EmbeddingMatrix:
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
