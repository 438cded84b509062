"""Seeded input files for the benchmark workloads.

Every fixture is a pure function of ``(workload, seed)``: the same seed
writes byte-identical files.  Each build function writes its files into a directory
and returns a :class:`Fixture` that carries the file paths, their shapes and
sizes, and the ground truth the correctness check compares against.  The
truth is built from how the files were made (canonical word lists, the
vectors as written), never by calling into ``analogykit``.

Vocabulary tokens are ``w00000`` .. ``w49999``.  The first ``N_REL *
SUBJECTS * (1 + OBJECTS)`` tokens form relations: each subject has
``OBJECTS`` object tokens placed near ``subject + offset[relation]``, so
analogy questions have meaningful answers and every rank metric takes
non-trivial values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from job import GENERATE

N_TOKENS = 50_000
DIM = 200
N_REL = 20
SUBJECTS = 40
OBJECTS = 4

# Decorations that term normalization strips (Unicode categories P* and S*),
# so every variant keeps the canonical key of the words it decorates.
_PREFIXES = ("", "", "(", '"', "¿", "#", "$")
_SUFFIXES = ("", "", ".", ",", "!", ")", '"', "?")
_SEPARATORS = (" ", " ", " - ", ", ", " & ")

Key = tuple[str, ...]


@dataclass(frozen=True)
class Term:
    """A surface string and the canonical word list it normalizes to."""

    surface: str
    key: Key


@dataclass(frozen=True)
class Question:
    relation_id: str
    a: Term
    b: tuple[Term, ...]
    c: Term
    d: tuple[Term, ...]


@dataclass
class Fixture:
    """Files for one workload plus the truth the correctness check needs."""

    files: dict[str, Path]
    shapes: dict[str, list[int]]
    # Evaluation workloads.
    vectors: np.ndarray | None = None  # float64, exactly as the program parses them
    candidates: list[Term] = field(default_factory=list)
    questions: list[Question] = field(default_factory=list)
    planted_skips: int = 0
    # Generation workload.
    generation: dict | None = None

    def describe(self) -> dict[str, dict]:
        """Shape, size in bytes and SHA-256 prefix of every fixture file."""
        out = {}
        for name, path in self.files.items():
            data = path.read_bytes()
            out[name] = {
                "shape": self.shapes[name],
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest()[:16],
            }
        return out


def token(i: int) -> str:
    return f"w{i:05d}"


def _subject(r: int, s: int) -> int:
    return (r * SUBJECTS + s) * (1 + OBJECTS)


def _objects(r: int, s: int) -> list[int]:
    base = _subject(r, s)
    return list(range(base + 1, base + 1 + OBJECTS))


def _space(seed: int) -> np.ndarray:
    """Float32 token vectors with planted relation offsets."""
    rng = np.random.default_rng([seed, 0])
    vectors = rng.standard_normal((N_TOKENS, DIM), dtype=np.float32)
    # Offsets and noise small against the vectors themselves, so query
    # terms often outscore the answers and exclusion decides the top guess.
    offsets = 0.3 * rng.standard_normal((N_REL, DIM), dtype=np.float32)
    for r in range(N_REL):
        for s in range(SUBJECTS):
            objs = _objects(r, s)
            noise = rng.standard_normal((OBJECTS, DIM), dtype=np.float32)
            vectors[objs] = vectors[_subject(r, s)] + offsets[r] + 0.3 * noise
    return vectors


def _plain(i: int) -> Term:
    return Term(token(i), (token(i),))


def _variant(rng: np.random.Generator, key: Key) -> Term:
    """A surface for ``key`` with random case and strippable punctuation."""
    words = []
    for w in key:
        style = rng.integers(3)
        words.append(w if style == 0 else w.upper() if style == 1 else w.title())
    text = words[0]
    for w in words[1:]:
        text += _SEPARATORS[rng.integers(len(_SEPARATORS))] + w
    text = _PREFIXES[rng.integers(len(_PREFIXES))] + text + _SUFFIXES[rng.integers(len(_SUFFIXES))]
    return Term(text, key)


def _questions(
    rng: np.random.Generator, n: int, exemplars: tuple[int, int]
) -> list[tuple[int, int, list[int], int, list[int]]]:
    """``n`` distinct (relation, a, b rows, c, d rows) questions, round-robin over relations."""
    per_relation = [n // N_REL + (r < n % N_REL) for r in range(N_REL)]
    drawn: dict[int, list[tuple[int, int]]] = {}
    for r, count in enumerate(per_relation):
        flat = rng.choice(SUBJECTS * (SUBJECTS - 1), size=count, replace=False)
        pairs = []
        for f in flat.tolist():
            a, c = divmod(f, SUBJECTS - 1)
            pairs.append((a, c + (c >= a)))
        drawn[r] = pairs
    out = []
    for i in range(n):
        r = i % N_REL
        a, c = drawn[r][i // N_REL]
        k = int(rng.integers(exemplars[0], exemplars[1] + 1))
        m = int(rng.integers(1, 4))
        b = rng.permutation(_objects(r, a))[:k].tolist()
        d = rng.permutation(_objects(r, c))[:m].tolist()
        out.append((r, _subject(r, a), b, _subject(r, c), d))
    return out


def _write_binary(path: Path, vectors: np.ndarray) -> None:
    rows = vectors.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(f"{rows.shape[0]} {rows.shape[1]}\n".encode())
        fh.write(b"".join(token(i).encode() + b" " + rows[i].tobytes() + b"\n" for i in range(rows.shape[0])))


def _write_text(path: Path, vectors: np.ndarray) -> None:
    fmt = " ".join(["%.6f"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        fh.write("".join(f"{token(i)} {fmt % tuple(row)}\n" for i, row in enumerate(vectors.tolist())))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_dataset(path: Path, questions: list[Question]) -> None:
    _write_lines(
        path,
        [
            "\t".join(
                (
                    q.relation_id,
                    q.a.surface,
                    "|".join(t.surface for t in q.b),
                    q.c.surface,
                    "|".join(t.surface for t in q.d),
                )
            )
            for q in questions
        ],
    )


def build_eval(workload: str, seed: int, out: Path) -> Fixture:
    """Binary embeddings, every token as a candidate, and one dataset.

    ``eval-cosadd`` and ``eval-allinfo`` share the embedding and candidate
    files for a given seed; only the dataset differs.
    """
    n_questions, exemplars = {"eval-cosadd": (300, (2, 2)), "eval-allinfo": (40, (2, 4))}[workload]
    vectors = _space(seed)
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(N_TOKENS).tolist()
    candidates = [_plain(i) for i in order]
    drng = np.random.default_rng([seed, 2 if workload == "eval-cosadd" else 3])
    questions = [
        Question(f"R{r:02d}", _plain(a), tuple(map(_plain, b)), _plain(c), tuple(map(_plain, d)))
        for r, a, b, c, d in _questions(drng, n_questions, exemplars)
    ]
    files = {"embeddings.bin": out / "embeddings.bin", "candidates.txt": out / "candidates.txt",
             "dataset.tsv": out / "dataset.tsv"}
    _write_binary(files["embeddings.bin"], vectors)
    _write_lines(files["candidates.txt"], [t.surface for t in candidates])
    _write_dataset(files["dataset.tsv"], questions)
    return Fixture(
        files,
        {"embeddings.bin": [N_TOKENS, DIM], "candidates.txt": [len(candidates)],
         "dataset.tsv": [len(questions)]},
        vectors=vectors.astype(np.float64),
        candidates=candidates,
        questions=questions,
    )


def build_load_text(seed: int, out: Path) -> Fixture:
    """Text embeddings, 50 000 mixed candidate lines, 100 questions with planted skips.

    Candidate lines: 35 000 single tokens (every relation token among them),
    10 000 phrases of 2-3 vocabulary words, 2 500 terms made only of
    out-of-vocabulary words, and 2 500 re-decorated duplicates of earlier
    keys; all with random case and punctuation, in shuffled order.
    """
    vectors = np.rint(_space(seed).astype(np.float64) * 1e6) / 1e6
    rng = np.random.default_rng([seed, 4])
    n_rel_tokens = N_REL * SUBJECTS * (1 + OBJECTS)
    singles = list(range(n_rel_tokens)) + (
        n_rel_tokens + rng.choice(N_TOKENS - n_rel_tokens, size=35_000 - n_rel_tokens, replace=False)
    ).tolist()
    keys: list[Key] = [(token(i),) for i in singles]
    phrases: set[Key] = set()
    while len(phrases) < 10_000:
        words = rng.choice(N_TOKENS, size=int(rng.integers(2, 4)), replace=False)
        phrases.add(tuple(token(int(i)) for i in words))
    keys += sorted(phrases)
    keys += [tuple(f"zq{j}x{w}" for w in range(int(rng.integers(1, 3)))) for j in range(2_500)]
    keys += [keys[int(i)] for i in rng.integers(len(keys), size=2_500)]
    candidates = [_variant(rng, keys[int(i)]) for i in rng.permutation(len(keys))]

    raw = _questions(np.random.default_rng([seed, 5]), 100, (2, 2))
    qrng = np.random.default_rng([seed, 6])

    def query_term(row: int) -> Term:
        # About a third of query terms are two-word phrases.
        if qrng.random() < 0.3:
            return _variant(qrng, (token(row), token(int(qrng.integers(N_TOKENS)))))
        return _variant(qrng, (token(row),))

    questions = [
        Question(f"R{r:02d}", query_term(a), tuple(_variant(qrng, (token(x),)) for x in b),
                 query_term(c), tuple(_variant(qrng, (token(x),)) for x in d))
        for r, a, b, c, d in raw
    ]
    # Planted out-of-vocabulary query terms.  Those in a, the first exemplar
    # or c make the question unscorable under ``single``; those in the
    # second exemplar are decoys that the setting never reads.
    planted = qrng.choice(len(questions), size=9, replace=False).tolist()
    for n, pos in enumerate(planted):
        q = questions[pos]
        oov = Term(f"Qz{n}oov", (f"qz{n}oov",))
        slot = n % 4
        questions[pos] = Question(
            q.relation_id,
            oov if slot == 0 else q.a,
            (oov, q.b[1]) if slot == 1 else (q.b[0], oov) if slot == 3 else q.b,
            oov if slot == 2 else q.c,
            q.d,
        )
    planted_skips = sum(1 for n in range(len(planted)) if n % 4 != 3)

    files = {"embeddings.txt": out / "embeddings.txt", "candidates.txt": out / "candidates.txt",
             "dataset.tsv": out / "dataset.tsv"}
    _write_text(files["embeddings.txt"], vectors)
    _write_lines(files["candidates.txt"], [t.surface for t in candidates])
    _write_dataset(files["dataset.tsv"], questions)
    return Fixture(
        files,
        {"embeddings.txt": [N_TOKENS, DIM], "candidates.txt": [len(candidates)],
         "dataset.tsv": [len(questions)]},
        vectors=vectors,
        candidates=candidates,
        questions=questions,
        planted_skips=planted_skips,
    )


GEN_PASSING = 100
GEN_FAILING = 20
MIN_TERM_FREQ = GENERATE["min_term_freq"]


def build_generate(seed: int, out: Path) -> Fixture:
    """Triples, lexicon and frequencies for 120 relations.

    Passing relations have 58 one-to-one subjects and failing ones 40, on
    either side of the threshold of 50 in ``job.GENERATE``.  Every relation
    also has 8 subjects with 2-3 objects and 8 pairs of infrequent
    concepts, which the frequency filter removes.  The lexicon lists
    100 000 concepts, far more than the triples use, with 1-3 terms each;
    10 % of concepts have no term at the frequency threshold.
    """
    rng = np.random.default_rng([seed, 7])
    relations = [f"P{int(n):04d}" for n in rng.choice(10_000, size=GEN_PASSING + GEN_FAILING, replace=False)]
    passing = set(relations[:GEN_PASSING])
    n_concepts, n_frequent = 100_000, 90_000
    concepts = [f"Q{n}" for n in range(n_concepts)]

    triples: list[tuple[str, str, str]] = []
    subject_objects: dict[str, dict[str, list[str]]] = {}
    for rel in relations:
        n_one = 58 if rel in passing else 40
        fan = rng.integers(2, 4, size=8).tolist()
        picks = [concepts[i] for i in rng.choice(n_frequent, size=2 * n_one + 8 + sum(fan), replace=False)]
        subjects, objects = picks[: n_one + 8], picks[n_one + 8:]
        table: dict[str, list[str]] = {}
        pos = 0
        for s, f in zip(subjects, [1] * n_one + fan):
            table[s] = sorted(objects[pos: pos + f])
            pos += f
        subject_objects[rel] = table
        triples += [(s, rel, o) for s, objs in table.items() for o in objs]
        rare = [concepts[i] for i in n_frequent + rng.choice(n_concepts - n_frequent, size=16, replace=False)]
        triples += [(rare[2 * k], rel, rare[2 * k + 1]) for k in range(8)]
    triples += [triples[int(i)] for i in rng.integers(len(triples), size=len(triples) // 50)]
    triples = [triples[int(i)] for i in rng.permutation(len(triples))]

    n_terms = rng.integers(1, 4, size=n_concepts)
    counts = rng.integers(0, 500, size=(n_concepts, 3))
    counts[n_frequent:] = rng.integers(0, MIN_TERM_FREQ, size=(n_concepts - n_frequent, 3))
    # Each frequent concept has one term at or above the threshold, which is
    # always listed; other terms are absent from the frequency file (count 0)
    # 5 % of the time.
    sure = rng.integers(0, n_terms)
    counts[np.arange(n_frequent), sure[:n_frequent]] = rng.integers(MIN_TERM_FREQ, 500, size=n_frequent)
    listed = rng.random((n_concepts, 3)) >= 0.05
    listed[np.arange(n_frequent), sure[:n_frequent]] = True
    lexicon: dict[str, list[str]] = {}
    freqs: dict[str, int] = {}
    for i, concept in enumerate(concepts):
        terms = [f"term {i}", f"t{i} alt", f"the {i}th"][: n_terms[i]]
        lexicon[concept] = terms
        freqs.update((t, int(counts[i, k])) for k, t in enumerate(terms) if listed[i, k])
    representative = {}
    for concept in concepts[:n_frequent]:
        kept = [t for t in lexicon[concept] if freqs.get(t, 0) >= MIN_TERM_FREQ]
        representative[concept] = min(kept, key=lambda t: (-freqs.get(t, 0), t))

    files = {"triples.tsv": out / "triples.tsv", "lexicon.tsv": out / "lexicon.tsv",
             "frequencies.tsv": out / "frequencies.tsv"}
    _write_lines(files["triples.tsv"], ["\t".join(t) for t in triples])
    _write_lines(files["lexicon.tsv"], [f"{c}\t{t}" for c, terms in lexicon.items() for t in terms])
    _write_lines(files["frequencies.tsv"], [f"{t}\t{n}" for t, n in freqs.items()])
    return Fixture(
        files,
        {"triples.tsv": [len(triples)], "lexicon.tsv": [sum(map(len, lexicon.values()))],
         "frequencies.tsv": [len(freqs)]},
        generation={
            "selected": sorted(passing),
            "one_to_one": {rel: 58 if rel in passing else 40 for rel in relations},
            "subject_objects": subject_objects,
            "representative": representative,
        },
    )


def build(workload: str, seed: int, out: Path) -> Fixture:
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("eval-cosadd", "eval-allinfo"):
        return build_eval(workload, seed, out)
    if workload == "load-text":
        return build_load_text(seed, out)
    if workload == "generate":
        return build_generate(seed, out)
    raise ValueError(f"unknown workload {workload!r}")
