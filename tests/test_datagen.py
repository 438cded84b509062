from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest

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


def test_too_few_subjects_names_the_relation():
    pairs = [("s1", "o1"), ("s2", "o2")]
    with pytest.raises(GenerationError, match="relation 'Rx'.*2 distinct subjects.*need 3"):
        sample_and_bundle("Rx", pairs, GenerationConfig(pairs_per_relation=3))


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
