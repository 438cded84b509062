"""Balanced analogy dataset generation from relation triples.

Pipeline: of the concepts the triples name, keep those having at least one
frequent term; group surviving triples into per-relation (subject, object)
pair sets; select relations whose 1:1 instance count clears the threshold,
intersected with an allowlist when one is given (a sampled review report
supports building that list by hand); per relation, sample distinct
subjects and bundle every valid object of each sampled subject; combine the
bundles exhaustively into ordered analogy records; render a parallel
dataset with each concept replaced by its representative term.  Each
relation's statistics are read off its rendered bundles, not counted over
its records.  Terms are checked where they enter: triple fields as they
load, a lexicon term when it is chosen as a representative, and each
relation's records once, in the first row :func:`combine_pairs` builds.

``generate`` pauses cyclic garbage collection while it runs.  It builds
about ``n * (n - 1)`` records per relation, and each is a container that
the collector would walk again in every collection it survives, yet they
hold only strings and tuples of strings and so never form a cycle.  The
caller's ``gc`` state is restored when the call returns or raises.

Randomness uses Python's ``random.Random`` (Mersenne Twister), seeded per
relation with the string ``"<seed>|<relation_id>"`` (review-report
sampling uses ``"<seed>|review|<relation_id>"``), so output is portable
across platforms and independent of relation processing order.  Identical
inputs and seed give byte-identical output files.

Input files are TSV: triples ``subject<TAB>relation<TAB>object``, each
field following the term rule of :mod:`.dataset` records; lexicon
``concept<TAB>term`` with one line per term, order meaningful;
frequencies ``term<TAB>count``; allowlist one relation id per line.
"""

from __future__ import annotations

import csv
import functools
import gc
import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice, permutations
from pathlib import Path

from .dataset import AnalogyRecord, _check_relation_id, _check_term, _trusted_record
from .textio import open_text, read_tsv


class GenerationError(ValueError):
    """Dataset generation cannot proceed with the given inputs."""


@dataclass(frozen=True)
class Triple:
    subject: str
    relation: str
    object: str


@dataclass(frozen=True)
class GenerationConfig:
    """Thresholds and seed for :func:`generate`.

    ``allowlist=None`` keeps every relation passing the 1:1 threshold; a
    set (possibly empty) intersects.  The two filter thresholds accept 0,
    which disables the corresponding filter (relations made only of
    multi-object subjects have no 1:1 instances at all and can only pass
    with the threshold off).
    """

    min_term_freq: int = 25
    min_one_to_one: int = 50
    pairs_per_relation: int = 50
    rng_seed: int = 0
    allowlist: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.min_term_freq < 0 or self.min_one_to_one < 0:
            raise ValueError("filter thresholds must be non-negative")
        if self.pairs_per_relation < 2:
            raise ValueError("pairs_per_relation must be at least 2")


@dataclass(frozen=True)
class ReviewRow:
    """One relation's evidence for the manual allowlisting step."""

    relation_id: str
    n_one_to_one: int
    sample_pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RelationStats:
    """One relation's counts and ambiguity (mean answers per record), read off its rendered bundles."""

    relation_id: str
    n_bundles: int
    n_analogies: int
    n_multi_answer: int
    ambiguity: float


@dataclass(frozen=True)
class GenerationResult:
    selected_relations: tuple[str, ...]
    id_records: tuple[AnalogyRecord, ...]
    term_records: tuple[AnalogyRecord, ...]
    stats: tuple[RelationStats, ...]
    review: tuple[ReviewRow, ...]


def load_triples(path: str | Path) -> list[Triple]:
    path = Path(path)
    triples: list[Triple] = []
    with read_tsv(path, GenerationError) as rows:
        for lineno, fields in rows:
            if len(fields) != 3 or not all(fields):
                raise GenerationError(f"{path}:{lineno}: expected 3 non-empty tab-separated fields")
            subject, relation, obj = fields
            try:
                _check_term("subject", subject)
                _check_relation_id("relation id", relation)
                _check_term("object", obj)
            except ValueError as exc:
                raise GenerationError(f"{path}:{lineno}: {exc}") from exc
            triples.append(Triple(subject=subject, relation=relation, object=obj))
    if not triples:
        raise GenerationError(f"{path}: no triples")
    return triples


def load_lexicon(path: str | Path) -> dict[str, list[str]]:
    """Concept id to ordered term list; repeated (concept, term) lines collapse."""
    path = Path(path)
    lexicon: dict[str, list[str]] = {}
    with read_tsv(path, GenerationError) as rows:
        for lineno, fields in rows:
            if len(fields) != 2 or not all(fields):
                raise GenerationError(f"{path}:{lineno}: expected 2 non-empty tab-separated fields")
            concept, term = fields
            terms = lexicon.setdefault(concept, [])
            if term not in terms:
                terms.append(term)
    if not lexicon:
        raise GenerationError(f"{path}: no lexicon entries")
    return lexicon


def load_frequencies(path: str | Path) -> dict[str, int]:
    path = Path(path)
    freqs: dict[str, int] = {}
    with read_tsv(path, GenerationError) as rows:
        for lineno, fields in rows:
            if len(fields) != 2 or not fields[0]:
                raise GenerationError(f"{path}:{lineno}: expected 2 tab-separated fields")
            term, count_str = fields
            if term in freqs:
                raise GenerationError(f"{path}:{lineno}: duplicate term {term!r}")
            # [+-]?[0-9]+: int() would also read "_", spaces and other scripts' digits.
            if not (count_str.isascii() and (count_str.isdigit() or count_str[:1] in "+-" and count_str[1:].isdigit())):
                raise GenerationError(f"{path}:{lineno}: count {count_str!r} is not an integer")
            count = int(count_str)
            if count < 0:
                raise GenerationError(f"{path}:{lineno}: negative count for {term!r}")
            freqs[term] = count
    return freqs


def load_allowlist(path: str | Path) -> frozenset[str]:
    path = Path(path)
    with open_text(path, GenerationError) as lines:
        return frozenset(line.strip() for line in lines if line.strip())


def frequent_concepts(
    lexicon: dict[str, list[str]], freqs: dict[str, int], min_freq: int
) -> dict[str, list[str]]:
    """Keep every concept with at least one term at count >= ``min_freq``.

    Surviving concepts keep only their frequent terms, in original order.
    """
    surviving: dict[str, list[str]] = {}
    for concept, terms in lexicon.items():
        kept = [t for t in terms if freqs.get(t, 0) >= min_freq]
        if kept:
            surviving[concept] = kept
    return surviving


def one_to_one_instances(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Pairs whose subject and object each appear in exactly one pair.

    Input pairs are deduplicated first; output is sorted.
    """
    unique = sorted(set(pairs))
    subject_degree = Counter(s for s, _ in unique)
    object_degree = Counter(o for _, o in unique)
    return [(s, o) for s, o in unique if subject_degree[s] == 1 and object_degree[o] == 1]


def select_relations(
    relation_pairs: dict[str, list[tuple[str, str]]], config: GenerationConfig
) -> tuple[list[str], list[ReviewRow]]:
    """Relations with enough 1:1 instances, intersected with the allowlist.

    The review rows cover every relation passing the 1:1 threshold, before
    the allowlist is applied, since their purpose is to help write it.
    """
    passing: list[str] = []
    review: list[ReviewRow] = []
    for relation_id in sorted(relation_pairs):
        ones = one_to_one_instances(relation_pairs[relation_id])
        if len(ones) < config.min_one_to_one:
            continue
        passing.append(relation_id)
        rng = random.Random(f"{config.rng_seed}|review|{relation_id}")
        sample = rng.sample(ones, min(5, len(ones)))
        review.append(ReviewRow(relation_id, len(ones), tuple(sample)))
    selected = [
        r for r in passing if config.allowlist is None or r in config.allowlist
    ]
    return selected, review


def choose_representative_term(
    concept: str, lexicon: dict[str, list[str]], freqs: dict[str, int]
) -> str:
    """The concept's highest-count surviving term; ties break lexicographically."""
    terms = lexicon[concept]
    return min(terms, key=lambda t: (-freqs.get(t, 0), t))


def sample_and_bundle(
    relation_id: str, pairs: list[tuple[str, str]], config: GenerationConfig
) -> list[tuple[str, tuple[str, ...]]]:
    """Sample pairs until ``pairs_per_relation`` distinct subjects are drawn.

    Each drawn subject is bundled with ALL of its objects in the relation,
    not only the object of the sampled pair; a repeated subject collapses
    into the bundle already drawn.  Bundled objects are sorted by id.
    """
    unique = sorted(set(pairs))
    subject_objects: dict[str, list[str]] = {}
    for s, o in unique:
        subject_objects.setdefault(s, []).append(o)
    if len(subject_objects) < config.pairs_per_relation:
        raise GenerationError(
            f"relation {relation_id!r}: only {len(subject_objects)} distinct subjects, "
            f"need {config.pairs_per_relation}"
        )
    random.Random(f"{config.rng_seed}|{relation_id}").shuffle(unique)
    chosen = list(dict.fromkeys(s for s, _ in unique))[: config.pairs_per_relation]
    return [(s, tuple(subject_objects[s])) for s in chosen]


def combine_pairs(
    relation_id: str, pairs: list[tuple[str, tuple[str, ...]]]
) -> list[AnalogyRecord]:
    """Exhaustively combine (subject, objects) pairs of one relation.

    Every ordered pair ``(i, j)`` with ``i != j`` yields one record
    ``subject_i : objects_i :: subject_j : objects_j``, so ``n`` input
    pairs produce exactly ``n * (n - 1)`` records, in ``i``-major order.

    Only row 0, the first ``n - 1`` records, goes through the checked
    constructor.  Between them they check the relation id and every pair's
    subject and objects, under the rules ``__post_init__`` applies to the
    fields each later record puts them in, and distinct subjects give
    ``a != c``.  So every later record would pass, and any bad term raises
    in row 0 with the message an all-checked build raises first.  The later
    records are built unchecked from row 0's fields.
    """
    if len(pairs) < 2:
        raise ValueError(f"relation {relation_id!r}: need at least 2 pairs, got {len(pairs)}")
    subjects = [subject for subject, _ in pairs]
    if len(set(subjects)) != len(subjects):
        raise ValueError(f"relation {relation_id!r}: duplicate subjects in pair list")
    a, b_list = pairs[0]
    row0 = [AnalogyRecord(relation_id, a, b_list, c, d_list) for c, d_list in pairs[1:]]
    checked = [(row0[0].a, row0[0].b_list)] + [(record.c, record.d_list) for record in row0]
    later = islice(permutations(checked, 2), len(checked) - 1, None)
    return row0 + [
        _trusted_record(relation_id, a, b_list, c, d_list) for (a, b_list), (c, d_list) in later
    ]


def generate(
    triples: list[Triple],
    lexicon: dict[str, list[str]],
    freqs: dict[str, int],
    config: GenerationConfig,
) -> GenerationResult:
    """Run the full pipeline and return records, statistics, and review rows.

    Relations are emitted in sorted id order; within a relation, records
    follow the exhaustive combination order.  ``id_records[k]`` and
    ``term_records[k]`` describe the same analogy in the two renderings.

    Cyclic garbage collection is paused for the call, and the caller's
    ``gc`` state restored on return or error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Only the concepts the triples name are filtered: the lexicon may list many more.
        named = {c: lexicon[c] for t in triples for c in (t.subject, t.object) if c in lexicon}
        surviving = frequent_concepts(named, freqs, config.min_term_freq)
        relation_pairs: dict[str, list[tuple[str, str]]] = {}
        for t in triples:
            if t.subject in surviving and t.object in surviving:
                relation_pairs.setdefault(t.relation, []).append((t.subject, t.object))
        if not relation_pairs:
            raise GenerationError("no triples survive the frequency filter")

        selected, review = select_relations(relation_pairs, config)
        if not selected:
            raise GenerationError("no relations selected")

        @functools.cache
        def rep(concept: str) -> str:
            term = choose_representative_term(concept, surviving, freqs)
            try:
                _check_term("lexicon term", term)
            except ValueError as exc:
                raise GenerationError(f"concept {concept!r}: {exc}") from None
            return term

        review = [
            ReviewRow(
                row.relation_id,
                row.n_one_to_one,
                tuple((rep(s), rep(o)) for s, o in row.sample_pairs),
            )
            for row in review
        ]

        id_records: list[AnalogyRecord] = []
        term_records: list[AnalogyRecord] = []
        stats: list[RelationStats] = []
        for relation_id in selected:
            bundles = sample_and_bundle(relation_id, relation_pairs[relation_id], config)
            term_bundles = []
            subject_of: dict[str, str] = {}
            for s, objects in bundles:
                term = rep(s)
                if (other := subject_of.setdefault(term, s)) != s:
                    raise GenerationError(
                        f"relation {relation_id!r}: concepts {min(other, s)!r} and {max(other, s)!r} "
                        f"share the representative term {term!r}"
                    )
                term_bundles.append((term, tuple(dict.fromkeys(rep(o) for o in objects))))
            id_records.extend(combine_pairs(relation_id, bundles))
            term_records.extend(combine_pairs(relation_id, term_bundles))
            # Each bundle's objects are the answer list of the n - 1 records that ask about it.
            n = len(term_bundles)
            stats.append(
                RelationStats(
                    relation_id=relation_id,
                    n_bundles=n,
                    n_analogies=n * (n - 1),
                    n_multi_answer=(n - 1) * sum(1 for _, objects in term_bundles if len(objects) > 1),
                    ambiguity=sum(len(objects) for _, objects in term_bundles) / n,
                )
            )

        return GenerationResult(
            selected_relations=tuple(selected),
            id_records=tuple(id_records),
            term_records=tuple(term_records),
            stats=tuple(stats),
            review=tuple(review),
        )
    finally:
        if enabled:
            gc.enable()


def write_statistics(stats: tuple[RelationStats, ...], path: str | Path) -> None:
    """Per-relation counts and ambiguity, with a __total__ row."""
    total_n = sum(s.n_analogies for s in stats)
    total_multi = sum(s.n_multi_answer for s in stats)
    total_amb = sum(s.ambiguity * s.n_analogies for s in stats) / total_n if total_n else 0.0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["relation_id", "n_bundles", "n_analogies", "n_multi_answer", "ambiguity"])
        for s in stats:
            writer.writerow([s.relation_id, s.n_bundles, s.n_analogies, s.n_multi_answer, repr(s.ambiguity)])
        writer.writerow(["__total__", sum(s.n_bundles for s in stats), total_n, total_multi, repr(total_amb)])


def write_review(review: tuple[ReviewRow, ...], path: str | Path) -> None:
    """The relation review report backing the manual allowlist step."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["relation_id", "n_one_to_one", "sample_pairs"])
        for row in review:
            rendered = "; ".join(f"{s} -> {o}" for s, o in row.sample_pairs)
            writer.writerow([row.relation_id, row.n_one_to_one, rendered])
