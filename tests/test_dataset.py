from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from analogykit.dataset import (
    AnalogyFormatError,
    AnalogyRecord,
    ambiguity,
    combine_pairs,
    load_dataset,
    save_dataset,
)


def make_record(**overrides) -> AnalogyRecord:
    kwargs = dict(
        relation_id="L1",
        a="sodium acetylsalicyclate",
        b_list=("aspirin",),
        c="intravenous immunoglobulins",
        d_list=("immunoglobulin g",),
    )
    kwargs.update(overrides)
    return AnalogyRecord(**kwargs)


# ------------------------------------------------------------------ records


def test_record_rejects_same_a_and_c():
    with pytest.raises(ValueError, match="a and c are the same term"):
        make_record(c="sodium acetylsalicyclate")


def test_record_rejects_empty_answer_list():
    with pytest.raises(ValueError, match="d_list is empty"):
        make_record(d_list=())


def test_record_rejects_duplicate_examples():
    with pytest.raises(ValueError, match="contains duplicates"):
        make_record(b_list=("aspirin", "aspirin"))


def test_record_rejects_pipe_in_term():
    with pytest.raises(ValueError, match="contains"):
        make_record(a="bad|term")


@pytest.mark.parametrize("term", ["bad\rterm", "bad\nterm", "bad\tterm"], ids=["cr", "lf", "tab"])
def test_record_rejects_line_and_field_breaks_in_terms(term):
    with pytest.raises(ValueError, match="contains"):
        make_record(b_list=("aspirin", term))


def test_record_rejects_relation_id_read_as_a_comment():
    with pytest.raises(ValueError, match="starts with '#'"):
        make_record(relation_id="#L1")


def test_record_preserves_list_order():
    rec = make_record(d_list=("z answer", "a answer"))
    assert rec.d_list == ("z answer", "a answer")


# -------------------------------------------------------------------- files


def test_parse_single_answer_line(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text(
        "L1\tsodium acetylsalicyclate\taspirin\t"
        "intravenous immunoglobulins\timmunoglobulin g\n"
    )
    records = load_dataset(path)
    assert records == [make_record()]


def test_parse_pipe_separated_answers(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("R\tfever\tchills\tdizziness\tcough|light-headedness\n")
    (rec,) = load_dataset(path)
    assert rec.d_list == ("cough", "light-headedness")


def test_parse_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("# header comment\n\nR\ta\tb\tc\td\n")
    assert len(load_dataset(path)) == 1


def test_parse_rejects_empty_answer_field(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("R\ta\tb\tc\td\nR\ta\tb\tc\t\n")
    with pytest.raises(AnalogyFormatError, match=r"data\.tsv:2"):
        load_dataset(path)


def test_parse_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("R\ta\tb\tc\n")
    with pytest.raises(AnalogyFormatError, match="expected 5 tab-separated fields, found 4"):
        load_dataset(path)


def test_parse_rejects_empty_file(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("# only a comment\n")
    with pytest.raises(AnalogyFormatError, match="no analogy records"):
        load_dataset(path)


def test_round_trip_preserves_every_field(tmp_path):
    records = [
        make_record(),
        make_record(relation_id="R2", b_list=("b1", "b2"), d_list=("d1", "d2", "d3")),
    ]
    path = tmp_path / "out.tsv"
    save_dataset(records, path)
    assert load_dataset(path) == records


# Any UTF-8 text without surrounding whitespace, with inner spaces, "#" and
# the Unicode line boundaries that are not line breaks drawn more often.
_EDGE = st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp"))
_INNER = st.characters(codec="utf-8") | st.sampled_from([" ", "#", "\x0c", "\x85", "\u2028", "\u2029"])
TERMS = _EDGE | st.tuples(_EDGE, st.text(_INNER, max_size=4), _EDGE).map("".join)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    relation_id=TERMS,
    a=TERMS,
    b_list=st.lists(TERMS, min_size=1, max_size=3),
    c=TERMS,
    d_list=st.lists(TERMS, min_size=1, max_size=3),
)
@example(relation_id="rel", a="a", b_list=["b\rx"], c="c", d_list=["d"])
@example(relation_id="#rel", a="a", b_list=["b"], c="c", d_list=["d"])
@example(relation_id="r\x85s", a="new\x85york", b_list=["x\u2028y", "p q"], c="c  d", d_list=["d\u2029"])
def test_every_record_the_class_accepts_survives_save_and_load(tmp_path, relation_id, a, b_list, c, d_list):
    try:
        record = AnalogyRecord(relation_id, a, tuple(b_list), c, tuple(d_list))
    except ValueError:
        assume(False)
    path = tmp_path / "round_trip.tsv"
    save_dataset([record, record], path)
    assert load_dataset(path) == [record, record]


# ------------------------------------------------------------- combinations


def test_combine_two_pairs_gives_mutual_reversal():
    records = combine_pairs("R", [("s1", ("o1",)), ("s2", ("o2",))])
    assert len(records) == 2
    assert (records[0].a, records[0].c) == ("s1", "s2")
    assert (records[1].a, records[1].c) == ("s2", "s1")
    assert records[0].b_list == records[1].d_list == ("o1",)


def test_combine_five_pairs_gives_twenty_ordered_records():
    pairs = [(f"s{i}", (f"o{i}",)) for i in range(5)]
    records = combine_pairs("R", pairs)
    assert len(records) == 20
    assert all(rec.a != rec.c for rec in records)
    for i in range(5):
        assert sum(1 for rec in records if rec.a == f"s{i}") == 4
        assert sum(1 for rec in records if rec.c == f"s{i}") == 4


def test_combine_fifty_pairs_count():
    pairs = [(f"s{i}", (f"o{i}",)) for i in range(50)]
    assert len(combine_pairs("R", pairs)) == 2450


def test_combine_rejects_duplicate_subjects():
    with pytest.raises(ValueError, match="duplicate subjects"):
        combine_pairs("R", [("s", ("o1",)), ("s", ("o2",))])


def test_combine_rejects_single_pair():
    with pytest.raises(ValueError, match="at least 2 pairs"):
        combine_pairs("R", [("s", ("o",))])


# ---------------------------------------------------------------- ambiguity


def test_ambiguity_of_singletons_is_one():
    records = combine_pairs("R", [("s1", ("o1",)), ("s2", ("o2",))])
    assert ambiguity(records) == 1.0


def test_ambiguity_is_mean_answer_count():
    records = [make_record(), make_record(a="s2", d_list=("d1", "d2", "d3"))]
    assert ambiguity(records) == 2.0


def test_ambiguity_from_combined_bundles():
    pairs = [("s1", ("o1",)), ("s2", ("o2",)), ("s3", ("o3a", "o3b"))]
    records = combine_pairs("R", pairs)
    # each subject's bundle appears n-1 = 2 times as an answer list
    assert ambiguity(records) == 4 / 3


def test_ambiguity_rejects_empty_input():
    with pytest.raises(ValueError):
        ambiguity([])
