from __future__ import annotations

import gc
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analogykit.datagen as datagen

from analogykit.datagen import (
    GenerationConfig,
    GenerationError,
    Triple,
    choose_representative_term,
    frequent_concepts,
    generate,
    load_allowlist,
    load_frequencies,
    load_lexicon,
    load_triples,
    one_to_one_instances,
    sample_and_bundle,
    select_relations,
    write_review,
    write_statistics,
)


def synthetic_inputs(
    n_relations: int, n_pairs: int, objects_per_subject: int = 1
) -> tuple[list[Triple], dict[str, list[str]], dict[str, int]]:
    """Disjoint subject/object concepts, one frequent term each."""
    triples: list[Triple] = []
    lexicon: dict[str, list[str]] = {}
    freqs: dict[str, int] = {}
    for r in range(n_relations):
        rid = f"R{r:02d}"
        for i in range(n_pairs):
            subject = f"S{r}x{i}"
            lexicon[subject] = [f"subj {r} {i}"]
            freqs[f"subj {r} {i}"] = 100
            for j in range(objects_per_subject):
                obj = f"O{r}x{i}x{j}"
                lexicon[obj] = [f"obj {r} {i} {j}"]
                freqs[f"obj {r} {i} {j}"] = 100
                triples.append(Triple(subject=subject, relation=rid, object=obj))
    return triples, lexicon, freqs


# ------------------------------------------------------------------ filters


def test_frequent_concepts_keeps_only_frequent_terms():
    lexicon = {"C1": ["common name", "rare name"], "C2": ["never seen"]}
    freqs = {"common name": 30, "rare name": 3, "never seen": 2}
    surviving = frequent_concepts(lexicon, freqs, 25)
    assert surviving == {"C1": ["common name"]}


def test_frequent_concepts_with_zero_threshold_is_identity():
    lexicon = {"C1": ["x", "y"], "C2": ["z"]}
    assert frequent_concepts(lexicon, {"x": 0, "y": 5}, 0) == lexicon


def test_one_to_one_drops_shared_subjects():
    pairs = [("s1", "o1"), ("s1", "o2"), ("s2", "o3")]
    assert one_to_one_instances(pairs) == [("s2", "o3")]


def test_one_to_one_keeps_disjoint_pairs():
    pairs = [("s1", "o1"), ("s2", "o2"), ("s3", "o3")]
    assert one_to_one_instances(pairs) == sorted(pairs)


def test_one_to_one_drops_both_pairs_sharing_an_object():
    pairs = [("s1", "o"), ("s2", "o")]
    assert one_to_one_instances(pairs) == []


def test_one_to_one_deduplicates_before_counting():
    pairs = [("s1", "o1"), ("s1", "o1")]
    assert one_to_one_instances(pairs) == [("s1", "o1")]


def test_one_to_one_matches_degree_counting_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n_s = int(rng.integers(2, 50))
        n_o = int(rng.integers(2, 50))
        pairs = list(
            {
                (f"s{rng.integers(n_s)}", f"o{rng.integers(n_o)}")
                for _ in range(rng.integers(1, 120))
            }
        )
        s_deg = Counter(s for s, _ in pairs)
        o_deg = Counter(o for _, o in pairs)
        expected = sorted(p for p in pairs if s_deg[p[0]] == 1 and o_deg[p[1]] == 1)
        assert one_to_one_instances(pairs) == expected


# ---------------------------------------------------------------- selection


def test_relation_below_threshold_is_excluded():
    pairs = {f"R": [(f"s{i}", f"o{i}") for i in range(49)]}
    selected, review = select_relations(pairs, GenerationConfig(min_one_to_one=50))
    assert selected == []
    assert review == []


def test_relation_at_threshold_is_selected_with_review_row():
    pairs = {"R": [(f"s{i}", f"o{i}") for i in range(50)]}
    selected, review = select_relations(pairs, GenerationConfig(min_one_to_one=50))
    assert selected == ["R"]
    (row,) = review
    assert row.relation_id == "R"
    assert row.n_one_to_one == 50
    assert len(row.sample_pairs) == 5
    assert set(row.sample_pairs) <= set(pairs["R"])


def test_allowlist_intersects_passing_relations():
    pairs = {
        "Ra": [(f"s{i}", f"o{i}") for i in range(3)],
        "Rb": [(f"t{i}", f"p{i}") for i in range(3)],
    }
    config = GenerationConfig(min_one_to_one=2, allowlist=frozenset({"Rb"}))
    selected, review = select_relations(pairs, config)
    assert selected == ["Rb"]
    # the review still covers both, since it exists to build the allowlist
    assert [row.relation_id for row in review] == ["Ra", "Rb"]


def test_review_sampling_is_seeded():
    pairs = {"R": [(f"s{i}", f"o{i}") for i in range(30)]}
    config = GenerationConfig(min_one_to_one=2, rng_seed=5)
    _, review_a = select_relations(pairs, config)
    _, review_b = select_relations(pairs, config)
    assert review_a == review_b


# ----------------------------------------------------------- representative


def test_representative_term_takes_max_count():
    lexicon = {"C": ["x name", "y name"]}
    freqs = {"x name": 100, "y name": 40}
    assert choose_representative_term("C", lexicon, freqs) == "x name"


def test_representative_term_breaks_ties_lexicographically():
    lexicon = {"C": ["n name", "m name"]}
    freqs = {"n name": 50, "m name": 50}
    assert choose_representative_term("C", lexicon, freqs) == "m name"


def test_representative_term_single_survivor():
    assert choose_representative_term("C", {"C": ["only"]}, {"only": 30}) == "only"


# ----------------------------------------------------------------- sampling


def test_sampling_is_deterministic_per_seed():
    pairs = [(f"s{i}", f"o{i}") for i in range(40)]
    config = GenerationConfig(pairs_per_relation=10, rng_seed=3)
    assert sample_and_bundle("R", pairs, config) == sample_and_bundle("R", pairs, config)
    other = sample_and_bundle("R", pairs, GenerationConfig(pairs_per_relation=10, rng_seed=4))
    assert other != sample_and_bundle("R", pairs, config)


def test_bundle_collects_all_objects_of_a_subject():
    pairs = [("s0", "oA"), ("s0", "oC"), ("s0", "oB")] + [(f"s{i}", f"o{i}") for i in range(1, 6)]
    config = GenerationConfig(pairs_per_relation=6, rng_seed=0)
    bundles = dict(sample_and_bundle("R", pairs, config))
    assert bundles["s0"] == ("oA", "oB", "oC")


def test_sampled_subjects_are_distinct_and_counted():
    pairs = [(f"s{i % 7}", f"o{i}") for i in range(21)]
    config = GenerationConfig(pairs_per_relation=7, rng_seed=1)
    bundles = sample_and_bundle("R", pairs, config)
    subjects = [s for s, _ in bundles]
    assert len(subjects) == len(set(subjects)) == 7


def first_drawn_bundles(relation_id, pairs, config):
    """The subject draw as a loop: shuffle the sorted unique pairs, keep each subject's first draw."""
    unique = sorted(set(pairs))
    random.Random(f"{config.rng_seed}|{relation_id}").shuffle(unique)
    chosen: list[str] = []
    seen: set[str] = set()
    for s, _ in unique:
        if s in seen:
            continue
        seen.add(s)
        chosen.append(s)
        if len(chosen) == config.pairs_per_relation:
            break
    return [(s, tuple(sorted({o for t, o in pairs if t == s}))) for s in chosen]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sampled_subjects_follow_the_first_drawn_order(data):
    names = st.sampled_from([f"s{i}" for i in range(8)])
    pairs = data.draw(
        st.lists(st.tuples(names, names.map(lambda s: "o" + s[1:])), min_size=1, max_size=40)
        .filter(lambda ps: len({s for s, _ in ps}) >= 2)
    )
    # Pairs repeat, and subjects repeat with other objects.
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=10))
    n_subjects = len({s for s, _ in pairs})
    config = GenerationConfig(
        pairs_per_relation=data.draw(st.integers(2, n_subjects)), rng_seed=data.draw(st.integers())
    )
    assert sample_and_bundle("R", pairs, config) == first_drawn_bundles("R", pairs, config)


def test_too_few_subjects_names_the_relation():
    pairs = [("s1", "o1"), ("s2", "o2")]
    with pytest.raises(GenerationError, match="relation 'Rx'.*2 distinct subjects.*need 3"):
        sample_and_bundle("Rx", pairs, GenerationConfig(pairs_per_relation=3))


@pytest.mark.parametrize("field", ["min_term_freq", "min_one_to_one"])
def test_config_rejects_a_negative_threshold(field):
    with pytest.raises(ValueError, match="filter thresholds must be non-negative"):
        GenerationConfig(**{field: -1})


@pytest.mark.parametrize("n", [0, 1])
def test_config_needs_two_pairs_per_relation(n):
    with pytest.raises(ValueError, match="pairs_per_relation must be at least 2"):
        GenerationConfig(pairs_per_relation=n)


# ----------------------------------------------------------------- pipeline


def test_generate_single_relation_of_disjoint_pairs():
    triples, lexicon, freqs = synthetic_inputs(1, 50)
    result = generate(triples, lexicon, freqs, GenerationConfig(rng_seed=9))
    assert result.selected_relations == ("R00",)
    assert len(result.term_records) == 2450
    assert len(result.id_records) == 2450
    (stat,) = result.stats
    assert stat.n_analogies == 2450
    assert stat.n_multi_answer == 0
    assert stat.ambiguity == 1.0


def test_generate_with_two_objects_per_subject():
    triples, lexicon, freqs = synthetic_inputs(1, 12, objects_per_subject=2)
    config = GenerationConfig(min_one_to_one=0, pairs_per_relation=12, rng_seed=2)
    result = generate(triples, lexicon, freqs, config)
    (stat,) = result.stats
    assert stat.n_analogies == 12 * 11
    assert stat.ambiguity == 2.0
    assert stat.n_multi_answer == stat.n_analogies


def test_generate_statistics_of_singleton_bundles():
    triples, lexicon, freqs = synthetic_inputs(1, 2)
    config = GenerationConfig(min_one_to_one=0, pairs_per_relation=2)
    (stat,) = generate(triples, lexicon, freqs, config).stats
    assert (stat.n_bundles, stat.n_analogies, stat.n_multi_answer) == (2, 2, 0)
    assert stat.ambiguity == 1.0


def test_generate_statistics_of_mixed_bundles():
    # Objects 1, 1 and 2: each bundle is the answer list of n - 1 = 2 records.
    triples, lexicon, freqs = synthetic_inputs(1, 3)
    triples.append(Triple(subject="S0x2", relation="R00", object="O0x2x1"))
    lexicon["O0x2x1"] = ["obj extra"]
    freqs["obj extra"] = 100
    config = GenerationConfig(min_one_to_one=0, pairs_per_relation=3)
    (stat,) = generate(triples, lexicon, freqs, config).stats
    assert (stat.n_bundles, stat.n_analogies, stat.n_multi_answer) == (3, 6, 2)
    assert stat.ambiguity == 4 / 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_statistics_match_a_count_over_the_records(seed):
    # Subjects carry 1-3 objects; in R01 a subject's second and third object
    # concepts share one term, so a rendered bundle can be shorter than its id bundle.
    triples: list[Triple] = []
    lexicon: dict[str, list[str]] = {}
    freqs: dict[str, int] = {}
    for r in range(3):
        for i in range(15):
            lexicon[f"S{r}x{i}"] = [f"subj {r} {i}"]
            for j in range(1 + (i + r) % 3):
                obj = f"O{r}x{i}x{j}"
                lexicon[obj] = [f"obj {r} {i} {min(j, 1) if r == 1 else j}"]
                triples.append(Triple(subject=f"S{r}x{i}", relation=f"R{r:02d}", object=obj))
    freqs = {term: 100 for terms in lexicon.values() for term in terms}
    config = GenerationConfig(min_one_to_one=0, pairs_per_relation=10, rng_seed=seed)
    result = generate(triples, lexicon, freqs, config)
    assert len(result.stats) == 3
    for stat in result.stats:
        records = [r for r in result.term_records if r.relation_id == stat.relation_id]
        assert any(len(r.d_list) > 1 for r in records)
        assert stat.n_bundles == len({r.a for r in records})
        assert stat.n_analogies == len(records)
        assert stat.n_multi_answer == sum(1 for r in records if len(r.d_list) > 1)
        assert stat.ambiguity == sum(len(r.d_list) for r in records) / len(records)


def test_generate_renders_ids_and_terms_in_parallel():
    triples, lexicon, freqs = synthetic_inputs(1, 5)
    config = GenerationConfig(min_one_to_one=5, pairs_per_relation=5, rng_seed=0)
    result = generate(triples, lexicon, freqs, config)
    assert len(result.id_records) == len(result.term_records) == 20
    rendered = {concept: term for concept, (term,) in lexicon.items()}
    for id_rec, term_rec in zip(result.id_records, result.term_records):
        assert term_rec.a == rendered[id_rec.a]
        assert term_rec.c == rendered[id_rec.c]
        assert term_rec.d_list == tuple(rendered[d] for d in id_rec.d_list)


def test_generate_uses_highest_count_term_for_rendering():
    triples, lexicon, freqs = synthetic_inputs(1, 3)
    lexicon["S0x0"] = ["rare alias", "frequent alias"]
    freqs["rare alias"] = 26
    freqs["frequent alias"] = 90
    config = GenerationConfig(min_one_to_one=3, pairs_per_relation=3, rng_seed=0)
    result = generate(triples, lexicon, freqs, config)
    rendered = {t.a for i, t in zip(result.id_records, result.term_records) if i.a == "S0x0"}
    assert rendered == {"frequent alias"}


def test_generate_chooses_each_rendered_concept_once(monkeypatch):
    calls: Counter[str] = Counter()

    def counting(concept, lexicon, freqs):
        calls[concept] += 1
        return choose_representative_term(concept, lexicon, freqs)

    monkeypatch.setattr(datagen, "choose_representative_term", counting)
    # Every subject is sampled, so the review rows render concepts the bundles render again.
    triples, lexicon, freqs = synthetic_inputs(2, 6)
    config = GenerationConfig(min_one_to_one=6, pairs_per_relation=6, rng_seed=5)
    result = generate(triples, lexicon, freqs, config)
    assert all(len(row.sample_pairs) == 5 for row in result.review)
    rendered = {t for rec in result.id_records for t in (rec.a, rec.c, *rec.b_list, *rec.d_list)}
    assert calls == Counter(rendered)


def test_generate_names_the_concept_of_a_lexicon_term_breaking_the_term_rule():
    triples, lexicon, freqs = synthetic_inputs(1, 3)
    lexicon["S0x1"] = ["bad|name"]
    freqs["bad|name"] = 100
    config = GenerationConfig(min_one_to_one=3, pairs_per_relation=3, rng_seed=0)
    with pytest.raises(GenerationError) as excinfo:
        generate(triples, lexicon, freqs, config)
    assert str(excinfo.value) == "concept 'S0x1': lexicon term 'bad|name' contains '|'"


def test_generate_rejects_colliding_subject_terms():
    triples, lexicon, freqs = synthetic_inputs(1, 3)
    lexicon["S0x0"] = ["shared name"]
    lexicon["S0x1"] = ["shared name"]
    freqs["shared name"] = 100
    config = GenerationConfig(min_one_to_one=3, pairs_per_relation=3, rng_seed=0)
    message = "relation 'R00': concepts 'S0x0' and 'S0x1' share the representative term 'shared name'"
    with pytest.raises(GenerationError, match=re.escape(message)):
        generate(triples, lexicon, freqs, config)


def test_generate_respects_frequency_filter():
    triples, lexicon, freqs = synthetic_inputs(1, 6)
    # knock one subject out of vocabulary: its only term goes infrequent
    freqs["subj 0 0"] = 3
    config = GenerationConfig(min_one_to_one=5, pairs_per_relation=5, rng_seed=0)
    result = generate(triples, lexicon, freqs, config)
    assert all(rec.a != "S0x0" for rec in result.id_records)
    assert all(rec.a != "subj 0 0" for rec in result.term_records)


def test_generate_errors_when_allowlist_removes_everything():
    triples, lexicon, freqs = synthetic_inputs(1, 5)
    config = GenerationConfig(
        min_one_to_one=5, pairs_per_relation=5, allowlist=frozenset({"other"})
    )
    with pytest.raises(GenerationError, match="no relations selected"):
        generate(triples, lexicon, freqs, config)


def test_generate_errors_when_nothing_is_frequent():
    triples, lexicon, _ = synthetic_inputs(1, 5)
    with pytest.raises(GenerationError, match="no triples survive"):
        generate(triples, lexicon, {}, GenerationConfig())


def test_generate_is_deterministic():
    triples, lexicon, freqs = synthetic_inputs(2, 8)
    config = GenerationConfig(min_one_to_one=8, pairs_per_relation=8, rng_seed=11)
    first = generate(triples, lexicon, freqs, config)
    second = generate(list(reversed(triples)), lexicon, freqs, config)
    assert first.term_records == second.term_records
    assert first.id_records == second.id_records


def test_generate_filters_only_the_concepts_its_triples_name(monkeypatch):
    triples, lexicon, freqs = synthetic_inputs(2, 8)
    triples.append(Triple(subject="S0x0", relation="R00", object="unlisted"))
    config = GenerationConfig(min_one_to_one=7, pairs_per_relation=8, rng_seed=5)
    plain = generate(triples, lexicon, freqs, config)
    # Concepts no triple names, frequent or not, sharing terms with named ones or not.
    padded = dict(lexicon)
    for i in range(500):
        padded[f"U{i}"] = [f"unused {i}", "subj 0 0"] if i % 2 else [f"rare {i}"]
        freqs[f"unused {i}"] = 100
    filtered = []

    def spy(lexicon, freqs, min_freq):
        filtered.append(set(lexicon))
        return frequent_concepts(lexicon, freqs, min_freq)

    monkeypatch.setattr(datagen, "frequent_concepts", spy)
    assert generate(triples, padded, freqs, config) == plain
    named = {c for t in triples for c in (t.subject, t.object)}
    assert filtered == [named - {"unlisted"}]


# --------------------------------------------------------- garbage collection


@pytest.fixture
def gc_state():
    """Restore the process's ``gc`` state whatever a test leaves it in."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def generate_or_error(succeed):
    """One ``generate`` call that returns, or that raises ``GenerationError`` through the allowlist."""
    triples, lexicon, freqs = synthetic_inputs(1, 5)
    allowlist = None if succeed else frozenset({"other"})
    config = GenerationConfig(min_one_to_one=5, pairs_per_relation=5, allowlist=allowlist)
    if succeed:
        generate(triples, lexicon, freqs, config)
        return
    with pytest.raises(GenerationError, match="no relations selected"):
        generate(triples, lexicon, freqs, config)


@pytest.mark.parametrize("succeed", [True, False], ids=["success", "error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_generate_restores_the_callers_gc_state(gc_state, enabled, succeed):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    generate_or_error(succeed)
    assert gc.isenabled() is enabled


def test_generate_runs_no_collection(gc_state, monkeypatch):
    # 2 x 600 records and their tuples are far past the collector's first threshold.
    triples, lexicon, freqs = synthetic_inputs(2, 25)
    config = GenerationConfig(min_one_to_one=25, pairs_per_relation=25)
    inside = False
    phases = []

    def watch(name, opens):
        # The pipeline's first call opens the window and building its result closes it.
        body = getattr(datagen, name)

        def watched(*args, **kwargs):
            nonlocal inside
            inside = opens
            return body(*args, **kwargs)

        monkeypatch.setattr(datagen, name, watched)

    def spy(phase, info):
        # Only the pipeline counts: once generate restores the caller's state, a collection may start.
        if inside:
            phases.append(phase)

    watch("frequent_concepts", True)
    watch("GenerationResult", False)
    gc.enable()
    gc.callbacks.append(spy)
    try:
        result = generate(triples, lexicon, freqs, config)
    finally:
        gc.callbacks.remove(spy)
    assert len(result.term_records) == 1200
    assert phases == []
    assert gc.isenabled()


# -------------------------------------------------------------------- files


def test_load_triples_rejects_bad_line(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tR\tb\nbroken line\n")
    with pytest.raises(GenerationError, match=r"triples\.tsv:2"):
        load_triples(path)


def test_load_triples_rejects_relation_id_read_as_a_comment(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tR\tb\nc\t#R\td\n")
    with pytest.raises(GenerationError, match=r"triples\.tsv:2: relation id '#R' starts with '#'"):
        load_triples(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("s|1\tR\to", "subject 's|1' contains '|'"),
        ("s\tre|l\to", "relation id 're|l' contains '|'"),
        ("s\tR\t o", "object ' o' has surrounding whitespace"),
    ],
    ids=["subject", "relation", "object"],
)
def test_load_triples_applies_the_record_term_rule(tmp_path, line, message):
    path = tmp_path / "triples.tsv"
    path.write_text(f"a\tR\tb\n{line}\n")
    with pytest.raises(GenerationError, match=re.escape(f"triples.tsv:2: {message}")):
        load_triples(path)


def test_load_lexicon_keeps_term_order(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("C1\tzeta name\nC1\talpha name\nC1\tzeta name\n")
    assert load_lexicon(path) == {"C1": ["zeta name", "alpha name"]}


def test_load_frequencies_rejects_duplicates(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("term\t5\nterm\t6\n")
    with pytest.raises(GenerationError, match="duplicate term"):
        load_frequencies(path)


def test_load_frequencies_rejects_negative_counts(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("term\t-1\n")
    with pytest.raises(GenerationError, match="negative count"):
        load_frequencies(path)


def test_load_frequencies_rejects_a_non_integer_count(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("term\t5\nother\t2.5\n")
    with pytest.raises(GenerationError, match=r"freq\.tsv:2: count '2\.5' is not an integer"):
        load_frequencies(path)


@pytest.mark.parametrize(
    "count", ["1_000", "\uff11\uff12", "\u0663", " 30", "+-5"],
    ids=["underscore", "full-width", "arabic-indic", "space", "two-signs"],
)
def test_load_frequencies_count_grammar_rejects_what_only_int_reads(tmp_path, count):
    # int() reads the first four (1000, 12, 3, 30); a count is [+-]?[0-9]+.
    path = tmp_path / "freq.tsv"
    path.write_text(f"term\t5\nother\t{count}\n", encoding="utf-8")
    with pytest.raises(GenerationError, match=rf"freq\.tsv:2: count {re.escape(repr(count))} is not an integer"):
        load_frequencies(path)


def test_load_frequencies_count_grammar_accepts_signs_and_leading_zeros(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("a\t+7\nb\t-0\nc\t007\n", encoding="utf-8")
    assert load_frequencies(path) == {"a": 7, "b": 0, "c": 7}


def test_load_allowlist_skips_blanks(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("R1\n\nR2\n")
    assert load_allowlist(path) == frozenset({"R1", "R2"})


def test_statistics_file_has_total_row(tmp_path):
    triples, lexicon, freqs = synthetic_inputs(2, 4)
    config = GenerationConfig(min_one_to_one=4, pairs_per_relation=4, rng_seed=0)
    result = generate(triples, lexicon, freqs, config)
    path = tmp_path / "stats.tsv"
    write_statistics(result.stats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "relation_id\tn_bundles\tn_analogies\tn_multi_answer\tambiguity"
    assert lines[-1].startswith("__total__\t8\t24\t0\t")


def test_review_file_renders_term_pairs(tmp_path):
    triples, lexicon, freqs = synthetic_inputs(1, 4)
    config = GenerationConfig(min_one_to_one=4, pairs_per_relation=4, rng_seed=0)
    result = generate(triples, lexicon, freqs, config)
    path = tmp_path / "review.tsv"
    write_review(result.review, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "relation_id\tn_one_to_one\tsample_pairs"
    assert "subj 0" in lines[1] and " -> obj 0" in lines[1]
