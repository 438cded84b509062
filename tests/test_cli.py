import csv
import hashlib
import logging
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogykit import reports
from analogykit.cli import _read_candidate_terms, build_parser, main
from analogykit.datagen import GenerationConfig, load_allowlist, load_lexicon
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


def test_quiet_evaluate_keeps_only_warnings_on_stderr(tmp_path):
    missing = AnalogyRecord(relation_id="royal", a="man", b_list=("woman",), c="king", d_list=("empress",))
    paths = write_royal_inputs(tmp_path, [royal_record(), royal_record(a="emperor"), missing])
    proc = subprocess.run(
        [sys.executable, "-m", "analogykit", "-q", *evaluate_args(paths)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "WARNING analogykit.cli: no listed answer of 'man' : 'king' is in the candidate index;"
        " question scores 0",
        "skipped 1 of 3 analogy questions",
    ]


@pytest.mark.parametrize("flags, logged", [([], True), (["-q"], False), (["--quiet"], False)])
def test_generate_logs_info_unless_quiet(tmp_path, flags, logged):
    paths = write_generation_inputs(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "analogykit", *flags, *generate_args(paths, tmp_path / "out")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    info = ["INFO analogykit.cli: loaded 12 triples, 24 lexicon concepts and 24 term counts"]
    assert proc.stderr.splitlines() == (info if logged else [])


def test_quiet_holds_when_logging_is_already_configured(tmp_path, caplog):
    # caplog's handler on the root logger turns main's basicConfig into a no-op.
    caplog.set_level(logging.INFO)
    paths = write_generation_inputs(tmp_path)
    assert main(["-q", *generate_args(paths, tmp_path / "quiet")]) == 0
    assert caplog.messages == []
    assert main(generate_args(paths, tmp_path / "default")) == 0
    assert caplog.messages == ["loaded 12 triples, 24 lexicon concepts and 24 term counts"]


def test_evaluate_underflowing_row_names_file_and_line(tmp_path, capsys):
    # Every value is finite and the norm is non-zero, but the squares sum to a subnormal.
    paths = write_royal_inputs(tmp_path, [royal_record()])
    Path(paths["embeddings"]).write_text("1 4\na 1e-160 1e-160 1e-160 1e-160\n", encoding="utf-8")
    rc = main(evaluate_args(paths))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {paths['embeddings']}:2: norm underflows float64 for token 'a'\n"


def test_evaluate_discards_a_near_cancelling_candidate(tmp_path):
    paths = write_royal_inputs(tmp_path, [royal_record()])
    rows = Path(paths["embeddings"]).read_text(encoding="utf-8").splitlines()[1:]
    # Valid rows whose mean, [0, 1e-160], has squares that sum to a subnormal.
    rows += ["up 1 1e-160", "down -1 1e-160"]
    Path(paths["embeddings"]).write_text("\n".join([f"{len(rows)} 2", *rows, ""]), encoding="utf-8")
    Path(paths["candidates"]).write_text("man\nup down\nqueen\nking\nwoman\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "analogykit", *evaluate_args(paths)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[:2] == [
        "WARNING analogykit.embeddings: discarding 'up down': composed norm underflows float64",
        "INFO analogykit.cli: candidate index: 4 terms (1 discarded, 0 duplicate keys)",
    ]


def test_evaluate_skips_a_query_term_whose_composed_norm_underflows(tmp_path, capsys):
    records = [royal_record(), royal_record(a="up down")]
    paths = write_royal_inputs(tmp_path, records)
    rows = Path(paths["embeddings"]).read_text(encoding="utf-8").splitlines()[1:]
    # Valid rows whose mean, [0, 1e-160], has squares that sum to a subnormal.
    rows += ["up 1 1e-160", "down -1 1e-160"]
    Path(paths["embeddings"]).write_text("\n".join([f"{len(rows)} 2", *rows, ""]), encoding="utf-8")
    outcomes_path = tmp_path / "outcomes.csv"
    rc = main(evaluate_args(paths, "--out-outcomes", str(outcomes_path)))
    assert rc == 2
    assert "skipped 1 of 2 analogy questions" in capsys.readouterr().err
    outcomes, skipped = load_outcomes_csv(str(outcomes_path))
    assert [o.a for o in outcomes] == ["man"]
    assert skipped == [SkippedQuery("royal", "up down", "king", "term 'up down' composed norm underflows float64")]
    # Unnormalized queries have no norm to take, so the question is scored.
    assert main(evaluate_args(paths, "--no-normalize")) == 0


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


def write_multi_object_inputs(tmp_path):
    """Two relations whose subjects carry 1-3 objects and two terms each; one rare object."""
    triples, lexicon, freqs = [], [], []
    for r, relation in enumerate(("may_treat", "has_ingredient")):
        for i in range(9):
            subject = f"C{r}s{i}"
            lexicon += [f"{subject}\tsubject {r} {i}", f"{subject}\tsubject alias {r} {i}"]
            freqs += [f"subject {r} {i}\t{30 + i}", f"subject alias {r} {i}\t{38 - i}"]
            for j in range(1 + (i + r) % 3):
                obj = f"C{r}o{i}x{j}"
                triples.append(f"{subject}\t{relation}\t{obj}")
                lexicon.append(f"{obj}\tobject {r} {i} {j}")
                freqs.append(f"object {r} {i} {j}\t{25 + j}")
    triples.append("C0s0\tmay_treat\trare")
    lexicon.append("rare\trare object")
    freqs.append("rare object\t3")
    paths = {
        "triples": tmp_path / "triples.tsv",
        "lexicon": tmp_path / "lexicon.tsv",
        "frequencies": tmp_path / "freq.tsv",
    }
    for path, lines in zip(paths.values(), (triples, lexicon, freqs)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def test_generate_writes_the_pinned_files(tmp_path, capsys):
    # Digests of the four files as first written; any change to their bytes must be deliberate.
    paths = write_multi_object_inputs(tmp_path)
    out = tmp_path / "out"
    args = generate_args(paths, out, "--min-one-to-one", "3", "--pairs-per-relation", "6", "--seed", "3")
    assert main(args) == 0
    assert "2 relations, 60 analogies" in capsys.readouterr().out
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTCOME_FILES}
    assert digests == {
        "dataset_ids.tsv": "7facbe04b996081f5be2279c61ffff868bc680a16112a0d536dcc03673c882aa",
        "dataset_terms.tsv": "51057e801d5fbd80d17ce26c388d60c9b867b5c8d2cd4e9f5dd2514cac0bfb6b",
        "statistics.tsv": "d1200fa3953ea37875bb596f4c39cbc9b512e4b426e28d22fc6dde7e8b4623b6",
        "review.tsv": "a8c119dda07fa34c62147c401be901ae070d120cfeb2260140d0aadad25b013f",
    }


def test_generate_seed_changes_sample(tmp_path, capsys):
    paths = write_generation_inputs(tmp_path)
    out_a, out_b = tmp_path / "seed0", tmp_path / "seed9"
    assert main(generate_args(paths, out_a, "--seed", "0")) == 0
    assert main(generate_args(paths, out_b, "--seed", "9")) == 0
    capsys.readouterr()
    assert (out_a / "dataset_ids.tsv").read_bytes() != (out_b / "dataset_ids.tsv").read_bytes()


def test_generate_option_defaults_are_the_config_defaults():
    required = ["--triples", "t", "--lexicon", "l", "--frequencies", "f", "--out-dir", "o"]
    args = build_parser().parse_args(["generate", *required])
    config = GenerationConfig()
    assert (args.min_term_freq, args.min_one_to_one, args.pairs_per_relation, args.seed) == (
        config.min_term_freq, config.min_one_to_one, config.pairs_per_relation, config.rng_seed
    )


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


@pytest.mark.parametrize(
    "content, extra",
    [
        (b"2 1000000000000000000000000000000\nking 1 2\n", ()),
        (b"2 4611686018427387904\nking ", ("--embeddings-format", "binary")),
    ],
    ids=["text", "binary"],
)
def test_evaluate_names_the_file_of_a_header_too_wide_for_an_array(tmp_path, capsys, content, extra):
    # numpy cannot shape such a row; the loader names the file before it allocates.
    paths = write_royal_inputs(tmp_path, [royal_record()])
    Path(paths["embeddings"]).write_bytes(content)
    rc = main(evaluate_args(paths, *extra))
    captured = capsys.readouterr()
    assert rc == 1
    message = f"header declares {content.split()[1].decode()} values per vector, more than an array can hold"
    assert f"error: {paths['embeddings']}: {message}\n" in captured.err
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


def test_load_outcomes_csv_names_a_utf8_fault_once(tmp_path, monkeypatch):
    # The file turns invalid between open_text's check and its lines, in its
    # last row, past the first 8 KiB the text reader decodes at once: the
    # error names the fault's own line, not the csv reader's as well.
    path = tmp_path / "outcomes.csv"
    header = "status,relation_id,a,c,top_guess,relaxed_hit,average_precision,reciprocal_rank,n_answers_listed,n_answers_scored,reason"
    path.write_text(header + "\n" + "scored,r,a,c,d,true,1.0,1.0,1,1,\n" * 2000, encoding="utf-8")
    check = reports.open_text

    def open_then_change(*args):
        lines = check(*args)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3] + b"\xff" + blob[-2:])
        return lines

    monkeypatch.setattr(reports, "open_text", open_then_change)
    with pytest.raises(ValueError) as caught:
        load_outcomes_csv(path)
    start = path.stat().st_size - 3
    assert str(caught.value) == f"{path}:2001: not valid UTF-8 (invalid start byte: b'\\xff' at byte {start})"


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
