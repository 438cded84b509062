"""Correctness checks behind the ``failed`` count, run outside the timed region.

Evaluation: every question's status (scored or skipped) and identity are
checked against the fixture, and a seeded sample of scored questions per
pass is recomputed with a plain-numpy reference of the three formulas.
The reference keeps the program's conventions: ``cos(x, 0) = 0``, the
cosmul epsilon guard, the ``(cos + 1) / 2`` shift, and ranking by
descending score with ties broken by ascending candidate index.  A
reported top guess, relaxed hit, AP or RR agrees when it is reachable by
reordering reference scores that lie within ``TOL`` of each other.

Generation: the count identity n(n - 1) per relation, the parallel id and
term renderings line by line, the statistics and review files, and
byte-identical outputs across repetitions of the same seed.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from fixtures import N_TOKENS, Fixture, Question, Term, token
from job import GENERATE

TOL = 1e-6
SAMPLE = 30
EPSILON = 1e-3  # analogykit's default cosmul denominator guard


def outputs_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class _Reference:
    """The candidate index and query vectors the program should build."""

    def __init__(self, fx: Fixture):
        self.vectors = fx.vectors
        self.vocab = {token(i): i for i in range(N_TOKENS)}
        surfaces, rows, self.key_index, self.n_discarded = [], [], {}, 0
        dropped: set = set()
        for term in fx.candidates:
            if term.key in self.key_index or term.key in dropped:
                continue
            vec = self.compose(term)
            if vec is None:
                dropped.add(term.key)
                self.n_discarded += 1
                continue
            self.key_index[term.key] = len(surfaces)
            surfaces.append(term.surface)
            rows.append(vec / np.linalg.norm(vec))
        self.surface_index = {s: i for i, s in enumerate(surfaces)}
        self.matrix = np.vstack(rows)

    def compose(self, term: Term) -> np.ndarray | None:
        rows = [self.vocab[w] for w in term.key if w in self.vocab]
        return self.vectors[rows].mean(axis=0) if rows else None

    def unit(self, term: Term) -> np.ndarray | None:
        vec = self.compose(term)
        return None if vec is None else vec / np.linalg.norm(vec)

    def cos_to(self, v: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(v)
        return np.zeros(len(self.matrix)) if norm == 0.0 else self.matrix @ (v / norm)

    def scores(self, a, b, c, method: str, shift: bool) -> np.ndarray:
        offset = b.mean(axis=0) - a
        if method == "cosadd":
            return self.cos_to(c + offset)
        if method == "pairdist":
            norm = np.linalg.norm(offset)
            out = np.zeros(len(self.matrix))
            if norm == 0.0:
                return out
            for start in range(0, len(self.matrix), 8192):
                diff = self.matrix[start:start + 8192] - c
                lengths = np.linalg.norm(diff, axis=1)
                raw = diff @ (offset / norm)
                nonzero = lengths != 0.0
                out[start:start + 8192][nonzero] = raw[nonzero] / lengths[nonzero]
            return out
        sim = (lambda s: (s + 1.0) / 2.0) if shift else (lambda s: s)
        sim_c, sim_a = sim(self.cos_to(c)), sim(self.cos_to(a))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.mean([sim(self.cos_to(b_i)) * sim_c / (sim_a + EPSILON) for b_i in b], axis=0)


def _reduce(q: Question, setting: str) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    if setting == "all-info":
        return q.b, q.d
    return q.b[:1], (q.d if setting == "multi" else q.d[:1])


def _ap(positions: list[int]) -> float:
    ranks = sorted(positions)
    return sum(k / r for k, r in enumerate(ranks, start=1)) / len(ranks) if ranks else 0.0


def _agrees(row: list[str], s: np.ndarray, answers: list[int], excluded: set[int], ref: _Reference) -> bool:
    top = ref.surface_index.get(row[4])
    if top is None or top in excluded:
        return False
    allowed = np.ones(len(s), dtype=bool)
    allowed[list(excluded)] = False
    if s[top] < s[allowed].max() - TOL:
        return False
    if (row[5] == "true") != (top in answers) or int(row[9]) != len(answers):
        return False
    best = [int((s > s[i] + TOL).sum()) + 1 for i in answers]
    worst = [int((s >= s[i] - TOL).sum()) for i in answers]
    ap, rr = float(row[6]), float(row[7])
    if not answers:
        return ap == 0.0 and rr == 0.0
    return (_ap(worst) - 1e-12 <= ap <= _ap(best) + 1e-12
            and 1.0 / min(worst) - 1e-12 <= rr <= 1.0 / min(best) + 1e-12)


def check_eval(
    fx: Fixture, setting: str, passes, job: dict, out: Path, digests: list[str], rng: np.random.Generator
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)`` for an evaluation workload.

    ``out`` holds the outputs of one repetition; ``digests`` are
    :func:`outputs_digest` of every repetition's outputs.
    """
    ref = _Reference(fx)
    notes: list[str] = []
    attempted = failed = 0
    index = (len(ref.matrix), ref.n_discarded)
    if (job["index_rows"], job["index_discarded"]) != index:
        notes.append(f"candidate index has {job['index_rows']} rows, {job['index_discarded']} discarded; "
                     f"expected {index[0]}, {index[1]}")
        failed += 1
    for method, shift in passes:
        attempted += len(fx.questions)
        try:
            with open(out / f"outcomes.{method}.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        except OSError as exc:
            notes.append(f"{method}: no outcomes: {exc}")
            failed += len(fx.questions)
            continue
        scored = [r for r in rows if r[0] == "scored"]
        skipped = [r for r in rows if r[0] == "skipped"]
        plan = []
        for q in fx.questions:
            b, d = _reduce(q, setting)
            vecs = [ref.unit(t) for t in (q.a, *b, q.c)]
            plan.append((q, b, d, vecs) if all(v is not None for v in vecs) else None)
        expected = [p for p in plan if p is not None]
        n_skip = len(plan) - len(expected)
        if fx.planted_skips and n_skip != fx.planted_skips:
            raise AssertionError(f"fixture plants {fx.planted_skips} skips but {n_skip} questions are unscorable")
        if len(scored) + len(skipped) != len(fx.questions):
            notes.append(f"{method}: {len(scored)} scored + {len(skipped)} skipped != {len(fx.questions)} records")
        notes.append(f"{method}: {len(scored)} scored, {len(skipped)} skipped; expected {len(expected)} and {n_skip}")
        failed += abs(len(skipped) - n_skip)
        matched = []
        for k, (row, p) in enumerate(zip(scored, expected)):
            q = p[0]
            if (row[1], row[2], row[3]) != (q.relation_id, q.a.surface, q.c.surface):
                failed += 1
                notes.append(f"{method}: scored row {k} is {row[1:4]}, expected {q.relation_id} {q.a.surface} {q.c.surface}")
            else:
                matched.append((row, p))
        failed += abs(len(scored) - len(expected))
        bad = 0
        for pick in rng.choice(len(matched), size=min(SAMPLE, len(matched)), replace=False).tolist():
            row, (q, b, d, vecs) = matched[pick]
            s = ref.scores(vecs[0], np.vstack(vecs[1:-1]), vecs[-1], method, shift)
            answers = list(dict.fromkeys(ref.key_index[t.key] for t in d if t.key in ref.key_index))
            excluded = {ref.key_index[t.key] for t in (q.a, *b, q.c) if t.key in ref.key_index}
            if not _agrees(row, s, answers, excluded, ref):
                bad += 1
                notes.append(f"{method}: {q.relation_id} {q.a.surface} : {q.c.surface} disagrees with the reference")
        failed += bad
        notes.append(f"{method}: {min(SAMPLE, len(matched))} sampled questions checked against the reference, {bad} disagree")
    if len(set(digests)) > 1:
        notes.append(f"outputs differ across {len(digests)} repetitions of the same inputs")
        failed = attempted
    return attempted, min(failed, attempted), notes


def _read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def check_generate(fx: Fixture, out: Path, digests: list[str]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)`` for the generation workload, as in :func:`check_eval`."""
    truth = fx.generation
    rep = truth["representative"]
    n = GENERATE["pairs_per_relation"]
    per_relation = n * (n - 1)
    attempted = len(truth["selected"]) * per_relation
    notes: list[str] = []
    try:
        ids, terms, stats, review = (_read_tsv(out / name) for name in (
            "dataset_ids.tsv", "dataset_terms.tsv", "statistics.tsv", "review.tsv"))
    except OSError as exc:
        return attempted, attempted, [f"missing output: {exc}"]
    bad: set[int] = set()
    if len(ids) != len(terms):
        notes.append(f"{len(ids)} id records but {len(terms)} term records")
    bad.update(range(min(len(ids), len(terms)), max(len(ids), len(terms))))
    multi: dict[str, int] = {}
    for r, rel in enumerate(truth["selected"]):
        base = r * per_relation
        group = ids[base:base + per_relation]
        objects = truth["subject_objects"][rel]
        subjects = [group[i * (n - 1)][1] if i * (n - 1) < len(group) else "" for i in range(n)]
        if len(set(subjects)) != n or not set(subjects) <= set(objects):
            notes.append(f"{rel}: sampled subjects are not {n} distinct subjects of the relation")
        k = base
        for i, si in enumerate(subjects):
            for j, sj in enumerate(subjects):
                if i == j:
                    continue
                want = [rel, si, "|".join(objects.get(si, [])), sj, "|".join(objects.get(sj, []))]
                term_want = [rel, rep.get(si, ""), "|".join(dict.fromkeys(rep.get(o, "") for o in objects.get(si, []))),
                             rep.get(sj, ""), "|".join(dict.fromkeys(rep.get(o, "") for o in objects.get(sj, [])))]
                if k >= len(ids) or ids[k] != want or k >= len(terms) or terms[k] != term_want:
                    bad.add(k)
                elif "|" in terms[k][4]:
                    multi[rel] = multi.get(rel, 0) + 1
                k += 1
    bad.update(range(attempted, max(len(ids), len(terms), attempted)))
    failed = len(bad)
    if bad:
        notes.append(f"{len(bad)} records differ from the expected bundles or renderings")

    want_stats = [[rel, str(n), str(per_relation), str(multi.get(rel, 0))] for rel in truth["selected"]]
    want_stats.append(["__total__", str(n * len(truth["selected"])), str(attempted), str(sum(multi.values()))])
    if [row[:4] for row in stats[1:]] != want_stats:
        notes.append("statistics.tsv counts break the n(n - 1) identity or the multi-answer counts")
        failed += 1
    want_review = [[rel, str(truth["one_to_one"][rel])] for rel in truth["selected"]]
    if [row[:2] for row in review[1:]] != want_review:
        notes.append("review.tsv does not list the relations passing the one-to-one threshold")
        failed += 1
    if len(set(digests)) > 1:
        notes.append(f"outputs differ across {len(digests)} runs of the same seed")
        failed = attempted
    notes.append(f"{attempted - min(failed, attempted)} of {attempted} generated records verified")
    return attempted, min(failed, attempted), notes
