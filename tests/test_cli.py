import csv
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogykit.cli import _read_candidate_terms, main
from analogykit.datagen import load_allowlist, load_lexicon
from analogykit.dataset import AnalogyRecord, save_dataset
from analogykit.embeddings import EmbeddingMatrix, save_embeddings
from analogykit.evaluate import SkippedQuery
from analogykit.metrics import QueryOutcome
from analogykit.reports import load_outcomes_csv, write_outcomes_csv

OUTCOME_FILES = ("dataset_ids.tsv", "dataset_terms.tsv", "statistics.tsv", "review.tsv")


def write_royal_inputs(tmp_path, records, queen="queen"):
    emb = EmbeddingMatrix(
        ["man", "woman", "king", queen],
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
    )
    paths = {
        "embeddings": tmp_path / "vectors.txt",
        "candidates": tmp_path / "candidates.txt",
        "dataset": tmp_path / "dataset.tsv",
    }
    save_embeddings(emb, paths["embeddings"], "text")
    paths["candidates"].write_text(f"man\n{queen}\nking\nwoman\n", encoding="utf-8")
    save_dataset(records, paths["dataset"])
    return {name: str(path) for name, path in paths.items()}


def royal_record(a="man"):
    return AnalogyRecord(relation_id="royal", a=a, b_list=("woman",), c="king", d_list=("queen",))


def evaluate_args(paths, *extra):
    return [
        "evaluate",
        "--embeddings", paths["embeddings"],
        "--candidates", paths["candidates"],
        "--dataset", paths["dataset"],
        *extra,
    ]


def write_generation_inputs(tmp_path):
    triples, lexicon, freqs = [], [], []
    for i in range(12):
        triples.append(f"s{i}\trel0\to{i}")
        lexicon.append(f"s{i}\tsubj {i}")
        lexicon.append(f"o{i}\tobj {i}")
        freqs.append(f"subj {i}\t30")
        freqs.append(f"obj {i}\t30")
    paths = {
        "triples": tmp_path / "triples.tsv",
        "lexicon": tmp_path / "lexicon.tsv",
        "frequencies": tmp_path / "freq.tsv",
    }
    paths["triples"].write_text("\n".join(triples) + "\n", encoding="utf-8")
    paths["lexicon"].write_text("\n".join(lexicon) + "\n", encoding="utf-8")
    paths["frequencies"].write_text("\n".join(freqs) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def generate_args(paths, out_dir, *extra):
    return [
        "generate",
        "--triples", paths["triples"],
        "--lexicon", paths["lexicon"],
        "--frequencies", paths["frequencies"],
        "--min-one-to-one", "5",
        "--pairs-per-relation", "5",
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_evaluate_success_writes_all_outputs(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record()])
    table_path = tmp_path / "summary.txt"
    csv_path = tmp_path / "summary.csv"
    outcomes_path = tmp_path / "outcomes.csv"
    rc = main(
        evaluate_args(
            paths,
            "--out-table", str(table_path),
            "--out-csv", str(csv_path),
            "--out-outcomes", str(outcomes_path),
        )
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "royal" in captured.out
    assert "overall (macro)" in captured.out
    assert table_path.read_text(encoding="utf-8") == captured.out
    csv_lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "relation,n,rel_acc,map,mrr,ambiguity"
    assert csv_lines[1].startswith("royal,1,1.0,")
    assert any(line.startswith("__macro__,") for line in csv_lines)
    outcome_lines = outcomes_path.read_text(encoding="utf-8").splitlines()
    assert outcome_lines[0].startswith("status,relation_id,")
    assert outcome_lines[1].startswith("scored,royal,man,king,queen,true,")


def test_evaluate_skips_exit_two(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record(), royal_record(a="emperor")])
    outcomes_path = tmp_path / "outcomes.csv"
    rc = main(evaluate_args(paths, "--out-outcomes", str(outcomes_path)))
    captured = capsys.readouterr()
    assert rc == 2
    assert "skipped 1 of 2 analogy questions" in captured.err
    assert "overall (macro)" in captured.out
    assert any(
        line.startswith("skipped,royal,emperor,")
        for line in outcomes_path.read_text(encoding="utf-8").splitlines()
    )


def test_evaluate_reports_each_count_once_on_stderr(tmp_path):
    missing = AnalogyRecord(relation_id="royal", a="man", b_list=("woman",), c="king", d_list=("empress",))
    paths = write_royal_inputs(tmp_path, [royal_record(), royal_record(a="emperor"), missing])
    proc = subprocess.run(
        [sys.executable, "-m", "analogykit", *evaluate_args(paths)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "INFO analogykit.cli: candidate index: 4 terms (0 discarded, 0 duplicate keys)",
        f"INFO analogykit.cli: loaded 3 analogy records from {paths['dataset']}",
        "WARNING analogykit.cli: no listed answer of 'man' : 'king' is in the candidate index;"
        " question scores 0",
        "skipped 1 of 3 analogy questions",
    ]


def test_evaluate_nothing_scored_exit_one(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record(a="emperor")])
    outcomes_path = tmp_path / "outcomes.csv"
    rc = main(evaluate_args(paths, "--out-outcomes", str(outcomes_path)))
    captured = capsys.readouterr()
    assert rc == 1
    assert "no analogy question could be scored" in captured.err
    assert captured.out == ""
    # the per-question file is still written so the failure can be inspected
    assert outcomes_path.exists()


def test_evaluate_missing_input_exit_one(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record()])
    paths["embeddings"] = str(tmp_path / "absent.txt")
    rc = main(evaluate_args(paths))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") or "error:" in captured.err


def test_evaluate_worker_count_keeps_outputs_identical(tmp_path, capsys):
    records = [royal_record(), royal_record(a="woman")]
    paths = write_royal_inputs(tmp_path, records)
    outputs = []
    for workers, tag in (("1", "a"), ("4", "b")):
        csv_path = tmp_path / f"summary_{tag}.csv"
        outcomes_path = tmp_path / f"outcomes_{tag}.csv"
        rc = main(
            evaluate_args(
                paths,
                "--method", "cosmul",
                "--shift-cosines",
                "--workers", workers,
                "--out-csv", str(csv_path),
                "--out-outcomes", str(outcomes_path),
            )
        )
        assert rc == 0
        outputs.append((capsys.readouterr().out, csv_path.read_bytes(), outcomes_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_generate_is_deterministic_across_runs(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    assert main(generate_args(paths, out_a)) == 0
    first_stdout = capsys.readouterr().out
    assert main(generate_args(paths, out_b)) == 0
    assert "1 relations, 20 analogies" in first_stdout
    for name in OUTCOME_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    term_lines = (out_a / "dataset_terms.tsv").read_text(encoding="utf-8").splitlines()
    assert len(term_lines) == 20
    assert all(line.startswith("rel0\tsubj ") for line in term_lines)
    review = (out_a / "review.tsv").read_text(encoding="utf-8").splitlines()
    assert review[0].startswith("relation_id\t")
    assert review[1].startswith("rel0\t12\t")


def test_generate_seed_changes_sample(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    out_a, out_b = tmp_path / "seed0", tmp_path / "seed9"
    assert main(generate_args(paths, out_a, "--seed", "0")) == 0
    assert main(generate_args(paths, out_b, "--seed", "9")) == 0
    capsys.readouterr()
    assert (out_a / "dataset_ids.tsv").read_bytes() != (out_b / "dataset_ids.tsv").read_bytes()


def test_generate_allowlist_can_reject_everything(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text("relX\n", encoding="utf-8")
    rc = main(generate_args(paths, tmp_path / "out", "--allowlist", str(allowlist)))
    captured = capsys.readouterr()
    assert rc == 1
    assert "no relations selected" in captured.err


def evaluate_then_report(tmp_path, capsys, paths):
    """Run ``evaluate`` and then ``report`` on its outcomes file; return evaluate's exit code."""
    outcomes_path = tmp_path / "outcomes.csv"
    eval_csv = tmp_path / "eval.csv"
    rc = main(
        evaluate_args(
            paths,
            "--setting", "multi",
            "--out-outcomes", str(outcomes_path),
            "--out-csv", str(eval_csv),
        )
    )
    eval_out = capsys.readouterr().out
    report_csv = tmp_path / "report.csv"
    assert main(["report", "--outcomes", str(outcomes_path), "--out-csv", str(report_csv)]) == 0
    assert capsys.readouterr().out == eval_out
    assert report_csv.read_bytes() == eval_csv.read_bytes()
    return rc


def test_report_round_trips_evaluate(tmp_path, capsys):
    records = [
        royal_record(),
        royal_record(a="woman"),
        royal_record(a="emperor"),
        AnalogyRecord(relation_id="self", a="king", b_list=("king",), c="queen", d_list=("woman",)),
    ]
    assert evaluate_then_report(tmp_path, capsys, write_royal_inputs(tmp_path, records)) == 2


# Longer than the csv module's default field size limit of 131 072 characters.
LONG = "x" * 140_000


def test_report_reads_back_a_long_top_guess(tmp_path, capsys):
    records = [AnalogyRecord(relation_id="royal", a="man", b_list=("woman",), c="king", d_list=(LONG,))]
    limit = csv.field_size_limit()
    assert evaluate_then_report(tmp_path, capsys, write_royal_inputs(tmp_path, records, queen=LONG)) == 0
    (outcome,), _ = load_outcomes_csv(tmp_path / "outcomes.csv")
    assert outcome.top_guess == LONG
    assert csv.field_size_limit() == limit


def test_report_reads_back_a_long_query_term(tmp_path, capsys):
    records = [royal_record(), AnalogyRecord(relation_id="royal", a="man", b_list=("woman",), c=LONG, d_list=("queen",))]
    limit = csv.field_size_limit()
    assert evaluate_then_report(tmp_path, capsys, write_royal_inputs(tmp_path, records)) == 2
    _, (skip,) = load_outcomes_csv(tmp_path / "outcomes.csv")
    assert skip.c == LONG
    assert skip.reason == f"term {LONG!r} has no in-vocabulary words"
    assert csv.field_size_limit() == limit


def test_report_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,real,header\nrow,1,2,3\n", encoding="utf-8")
    rc = main(["report", "--outcomes", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_report_without_scored_rows_exit_one(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record(a="emperor")])
    outcomes_path = tmp_path / "outcomes.csv"
    assert main(evaluate_args(paths, "--out-outcomes", str(outcomes_path))) == 1
    rc = main(["report", "--outcomes", str(outcomes_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no scored questions" in captured.err


def test_module_entry_point_shows_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "analogykit", "--help"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    for name in ("evaluate", "generate", "report"):
        assert name in proc.stdout


@pytest.mark.parametrize("flag, value", [("--setting", "dual"), ("--method", "euclid")])
def test_unknown_choices_are_rejected_by_argparse(tmp_path, flag, value):
    paths = write_royal_inputs(tmp_path, [royal_record()])
    with pytest.raises(SystemExit) as exc:
        main(evaluate_args(paths, flag, value))
    assert exc.value.code == 2


def test_evaluate_rejects_nan_epsilon(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record()])
    rc = main(evaluate_args(paths, "--method", "cosmul", "--epsilon", "nan"))
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: epsilon" in captured.err
    assert captured.out == ""


def test_generate_relation_id_read_as_a_comment_names_file_and_line(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    triples = Path(paths["triples"])
    triples.write_text(triples.read_text(encoding="utf-8").replace("rel0", "#rel"), encoding="utf-8")
    rc = main(generate_args(paths, tmp_path / "out"))
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {triples}:1: relation id '#rel' starts with '#'" in captured.err
    assert "Traceback" not in captured.err


def test_generate_triple_breaking_the_term_rule_names_file_and_line(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    triples = Path(paths["triples"])
    lines = triples.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace("rel0", "re|l")
    triples.write_text("".join(lines), encoding="utf-8")
    rc = main(generate_args(paths, tmp_path / "out"))
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {triples}:3: relation id 're|l' contains '|'" in captured.err
    assert "Traceback" not in captured.err


def test_generate_lexicon_term_breaking_the_term_rule_names_the_concept(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    for which, old, new in (("lexicon", "\tsubj 3\n", "\tsubj|3\n"), ("frequencies", "\nsubj 3\t", "\nsubj|3\t")):
        path = Path(paths[which])
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    rc = main(generate_args(paths, tmp_path / "out", "--pairs-per-relation", "12"))
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: concept 's3': lexicon term 'subj|3' contains '|'" in captured.err
    assert "Traceback" not in captured.err


def test_generate_rejects_fewer_than_two_pairs_per_relation(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    rc = main(generate_args(paths, tmp_path / "out", "--pairs-per-relation", "1"))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: pairs_per_relation must be at least 2\n"
    assert captured.out == ""


def test_generate_concepts_sharing_a_representative_term_are_named(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    lexicon, freqs = Path(paths["lexicon"]), Path(paths["frequencies"])
    text = lexicon.read_text(encoding="utf-8").replace("\tsubj 0\n", "\tsame\n").replace("\tsubj 1\n", "\tsame\n")
    lexicon.write_text(text, encoding="utf-8")
    freqs.write_text(freqs.read_text(encoding="utf-8") + "same\t30\n", encoding="utf-8")
    rc = main(generate_args(paths, tmp_path / "out", "--pairs-per-relation", "12"))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: relation 'rel0': concepts 's0' and 's1' share the representative term 'same'\n"


@pytest.mark.parametrize(
    "command, which, content, extra, reason",
    [
        ("evaluate", "embeddings", b"", (), "empty file"),
        ("evaluate", "embeddings", b"4 2\n", (), "no vector rows"),
        ("evaluate", "embeddings", b"4 2", ("--embeddings-format", "binary"), "missing header line"),
        ("evaluate", "candidates", b"\n\n", (), "no candidate terms"),
        ("generate", "triples", b"\n\n", (), "no triples"),
        ("generate", "lexicon", b"\n\n", (), "no lexicon entries"),
    ],
    ids=["text-empty", "text-header-only", "binary-no-newline", "candidates", "triples", "lexicon"],
)
def test_degenerate_input_file_names_the_file(tmp_path, capsys, command, which, content, extra, reason):
    if command == "evaluate":
        paths = write_royal_inputs(tmp_path, [royal_record()])
        args = evaluate_args(paths, *extra)
    else:
        paths = write_generation_inputs(tmp_path)
        args = generate_args(paths, tmp_path / "out", *extra)
    Path(paths[which]).write_bytes(content)
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {paths[which]}: {reason}" in captured.err
    assert "Traceback" not in captured.err


def corrupt_line_two(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("which", ["embeddings", "candidates", "dataset"])
def test_evaluate_invalid_utf8_names_file_and_line(tmp_path, capsys, which):
    paths = write_royal_inputs(tmp_path, [royal_record(), royal_record(a="woman")])
    path = Path(paths[which])
    corrupt_line_two(path)
    rc = main(evaluate_args(paths))
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {path}:2: not valid UTF-8" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("which", ["triples", "lexicon", "frequencies", "allowlist"])
def test_generate_invalid_utf8_names_file_and_line(tmp_path, capsys, which):
    paths = write_generation_inputs(tmp_path)
    paths["allowlist"] = str(tmp_path / "allow.txt")
    Path(paths["allowlist"]).write_text("rel0\nrel0\n", encoding="utf-8")
    path = Path(paths[which])
    corrupt_line_two(path)
    rc = main(generate_args(paths, tmp_path / "out", "--allowlist", paths["allowlist"]))
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {path}:2: not valid UTF-8" in captured.err
    assert "Traceback" not in captured.err


def test_report_invalid_utf8_names_file_and_line(tmp_path, capsys):
    paths = write_royal_inputs(tmp_path, [royal_record(), royal_record(a="woman")])
    outcomes_path = tmp_path / "outcomes.csv"
    assert main(evaluate_args(paths, "--out-outcomes", str(outcomes_path))) == 0
    capsys.readouterr()
    corrupt_line_two(outcomes_path)
    rc = main(["report", "--outcomes", str(outcomes_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {outcomes_path}:2: not valid UTF-8" in captured.err
    assert "Traceback" not in captured.err


def test_a_term_holding_nel_is_one_term_in_every_input(tmp_path):
    candidates = tmp_path / "candidates.txt"
    candidates.write_text("new\x85york\nparis\n", encoding="utf-8")
    assert _read_candidate_terms(str(candidates)) == ["new\x85york", "paris"]
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("C1\tnew\x85york\nC2\tparis\n", encoding="utf-8")
    assert load_lexicon(lexicon) == {"C1": ["new\x85york"], "C2": ["paris"]}
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text("R\u20281\nR2\n", encoding="utf-8")
    assert load_allowlist(allowlist) == frozenset({"R\u20281", "R2"})


def test_load_outcomes_csv_names_the_physical_line(tmp_path):
    path = tmp_path / "outcomes.csv"
    header = "status,relation_id,a,c,top_guess,relaxed_hit,average_precision,reciprocal_rank,n_answers_listed,n_answers_scored,reason"
    path.write_text(
        f'{header}\nskipped,r,a,c,,,,,,,"reason over\ntwo lines"\nscored,r,a,c,d,maybe,1.0,1.0,1,1,\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"outcomes\.csv:4: bad relaxed_hit 'maybe'"):
        load_outcomes_csv(path)
    path.write_text(path.read_text(encoding="utf-8").replace("maybe", "true"), encoding="utf-8")
    outcomes, skipped = load_outcomes_csv(path)
    assert [s.reason for s in skipped] == ["reason over\ntwo lines"]
    assert [o.relaxed_hit for o in outcomes] == [True]


def test_load_outcomes_csv_lifts_the_field_limit_only_while_it_reads(tmp_path):
    path = tmp_path / "outcomes.csv"
    header = "status,relation_id,a,c,top_guess,relaxed_hit,average_precision,reciprocal_rank,n_answers_listed,n_answers_scored,reason"
    row = f"scored,r,a,c,{'d' * 200_000},true,1.0,1.0,1,1,\n"
    limit = csv.field_size_limit()
    path.write_text(f"{header}\n{row}", encoding="utf-8")
    (outcome,), _ = load_outcomes_csv(path)
    assert outcome.top_guess == "d" * 200_000
    assert csv.field_size_limit() == limit
    path.write_text(f"{header}\n{row}{row.replace('true', 'maybe')}", encoding="utf-8")
    with pytest.raises(ValueError, match=r"outcomes\.csv:3: bad relaxed_hit 'maybe'"):
        load_outcomes_csv(path)
    assert csv.field_size_limit() == limit


# Commas, quotes, spaces and the line boundaries text mode keeps inside a line.
CSV_TEXT = st.text(st.sampled_from(list('ab ,"\x85\u2028')) | st.characters(codec="utf-8", exclude_characters="\r\n\x00"))
COUNTS = st.integers(min_value=0)
SCORES = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(
    outcomes=st.lists(st.builds(QueryOutcome, CSV_TEXT, CSV_TEXT, CSV_TEXT, CSV_TEXT, st.booleans(),
                                SCORES, SCORES, COUNTS, COUNTS), max_size=5),
    skipped=st.lists(st.builds(SkippedQuery, CSV_TEXT, CSV_TEXT, CSV_TEXT, CSV_TEXT), max_size=5),
)
def test_outcomes_csv_round_trips(outcomes, skipped):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_outcomes_csv(outcomes, skipped, first)
        loaded = load_outcomes_csv(first)
        assert loaded == (outcomes, skipped)
        write_outcomes_csv(*loaded, second)
        assert second.read_bytes() == first.read_bytes()
