"""Acceptance suite: one test per numbered criterion, pinned tolerances.

Each test prints a one-line PASS note with the measured quantities when it
succeeds, so ``pytest -v`` plus the captured output give a per-criterion
scorecard.
"""

from __future__ import annotations

import math
import time

import numpy as np

from analogykit.cli import main
from analogykit.datagen import GenerationConfig, Triple, generate
from analogykit.dataset import AnalogyRecord, save_dataset
from analogykit.embeddings import (
    EmbeddingMatrix,
    build_candidate_index,
    compose_term,
    save_embeddings,
)
from analogykit.evaluate import evaluate_records
from analogykit.metrics import MetricBundle, average_precision, reciprocal_rank
from analogykit.scoring import AnalogyQuery, exemplar_offset, score_candidates


def _cos(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def _naive_scores(index, query, method, epsilon=1e-3, shift=False):
    """Per-candidate reference implementation, no batching anywhere."""
    mean_b = query.b.mean(axis=0)

    def sim(x, y):
        c = _cos(x, y)
        return (c + 1.0) / 2.0 if shift else c

    out = np.empty(len(index), dtype=np.float64)
    for i in range(len(index)):
        d = index.vector(i)
        if method == "cosadd":
            out[i] = _cos(d, query.c + (mean_b - query.a))
        elif method == "pairdist":
            out[i] = _cos(d - query.c, mean_b - query.a)
        else:
            per_b = [sim(d, b_i) * sim(d, query.c) / (sim(d, query.a) + epsilon) for b_i in query.b]
            out[i] = sum(per_b) / len(per_b)
    return out


def _random_token_space(rng, n_tokens, dim):
    tokens = [f"tok{i:05d}" for i in range(n_tokens)]
    emb = EmbeddingMatrix(tokens, rng.normal(size=(n_tokens, dim)))
    return tokens, emb, build_candidate_index(tokens, emb)


def test_criterion_01_generation_count_identities():
    start = time.perf_counter()
    triples, lexicon, freqs = [], {}, {}
    for r in range(25):
        rid = f"rel{r:02d}"
        for i in range(50):
            subject, obj = f"s{r:02d}x{i:02d}", f"o{r:02d}x{i:02d}"
            triples.append(Triple(subject, rid, obj))
            for concept in (subject, obj):
                lexicon[concept] = (concept,)
                freqs[concept] = 100
    result = generate(triples, lexicon, freqs, GenerationConfig())
    elapsed = time.perf_counter() - start
    assert len(result.selected_relations) == 25
    for stats in result.stats:
        assert stats.n_bundles == 50
        assert stats.n_analogies == 2450
    assert len(result.id_records) == 25 * 2450 == 61250
    assert len(result.term_records) == 61250
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 25 relations x 2450 = 61250 analogies in {elapsed:.2f}s")


def test_criterion_02_blocked_scoring_matches_per_candidate_loop():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    _, _, index = _random_token_space(rng, 1000, 50)
    worst = 0.0
    # The bound is on the code under test; the naive reference loop is untimed.
    scoring_s = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        query = AnalogyQuery(
            a=rng.normal(size=50), b=rng.normal(size=(k, 50)), c=rng.normal(size=50)
        )
        for method in ("cosadd", "pairdist", "cosmul"):
            reference = _naive_scores(index, query, method)
            t0 = time.perf_counter()
            got = score_candidates(index, query, method)
            scoring_s += time.perf_counter() - t0
            worst = max(worst, float(np.max(np.abs(got - reference))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert scoring_s < 5.0
    print(
        "criterion 2 PASS: 100 queries x 3 methods, "
        f"max deviation {worst:.2e}, score_candidates {scoring_s:.2f}s of {elapsed:.2f}s total"
    )


def test_criterion_03_cosmul_argmax_matches_log_sum_argmax():
    rng = np.random.default_rng(203)
    epsilon = 1e-9
    matches = 0
    for _ in range(100):
        tokens = [f"c{i:03d}" for i in range(200)]
        emb = EmbeddingMatrix(tokens, rng.uniform(0.05, 1.0, size=(200, 20)))
        index = build_candidate_index(tokens, emb)
        query = AnalogyQuery(
            a=rng.uniform(0.05, 1.0, size=20),
            b=rng.uniform(0.05, 1.0, size=(1, 20)),
            c=rng.uniform(0.05, 1.0, size=20),
        )
        product_scores = score_candidates(index, query, "cosmul", epsilon=epsilon)
        log_scores = np.array(
            [
                math.log(_cos(index.vector(i), query.b[0]))
                + math.log(_cos(index.vector(i), query.c))
                - math.log(_cos(index.vector(i), query.a) + epsilon)
                for i in range(len(index))
            ]
        )
        if int(np.argmax(product_scores)) == int(np.argmax(log_scores)):
            matches += 1
    assert matches == 100
    print("criterion 3 PASS: product-form and log-sum argmax agree on 100/100 instances")


def test_criterion_04_metric_identities():
    rng = np.random.default_rng(204)
    # Single-answer queries: the two metrics are the same number, exactly.
    for _ in range(10_000):
        position = int(rng.integers(1, 10_001))
        ap = average_precision([position])
        rr = reciprocal_rank([position])
        assert ap == rr
        assert 0.0 <= ap <= 1.0
    # Multi-answer queries: both metrics stay inside the unit interval.
    samples = []
    for _ in range(10_000):
        n_answers = int(rng.integers(1, 6))
        positions = sorted(rng.choice(np.arange(1, 101), size=n_answers, replace=False).tolist())
        ap = average_precision(positions)
        rr = reciprocal_rank(positions)
        assert 0.0 <= ap <= 1.0
        assert 0.0 <= rr <= 1.0
        samples.append((tuple(positions), ap, rr))
    print("criterion 4: single-answer equality and unit-interval bounds hold")
    # Several answers leave AP and RR unordered, so only these relations hold.
    # Where the exact values are equal, the float mean may differ by an ulp.
    rel = 1e-12
    # (a) AP is 1 exactly when the answers fill the top positions; RR is then 1 too.
    for n in range(1, 6):
        assert average_precision(range(1, n + 1)) == 1.0
    n_perfect = 0
    for pos, ap, rr in samples:
        assert (ap == 1.0) == (pos == tuple(range(1, len(pos) + 1)))
        if ap == 1.0:
            assert rr == 1.0
            n_perfect += 1
    # (b) A contiguous run r..r+n-1 gives AP >= RR, since k/(r+k-1) >= 1/r
    # <=> (k-1)(r-1) >= 0; strictly so when n >= 2 and r >= 2.
    n_strict = 0
    for pos, _, _ in samples:
        first, n = pos[0], len(pos)
        run = range(first, first + n)
        ap, rr = average_precision(run), reciprocal_rank(run)
        if n >= 2 and first >= 2:
            assert ap > rr
            n_strict += 1
        else:
            assert ap == rr
    # (c) Spread answers, r_k >= k*r_1 for every k, give AP <= RR because each
    # term k/r_k <= 1/r_1; at r_k == k*r_1 the two are equal.
    n_spread = 0
    for pos, ap, rr in samples:
        if all(r >= k * pos[0] for k, r in enumerate(pos, start=1)):
            assert ap <= rr * (1.0 + rel)
            n_spread += 1
        edge = [k * pos[0] for k in range(1, len(pos) + 1)]
        assert math.isclose(average_precision(edge), reciprocal_rank(edge), rel_tol=rel, abs_tol=0.0)
    # (d) Both orders occur.
    assert math.isclose(average_precision([2, 3]), 7 / 12, rel_tol=rel, abs_tol=0.0)
    assert reciprocal_rank([2, 3]) == 0.5
    assert average_precision([1, 100]) == 0.51
    assert reciprocal_rank([1, 100]) == 1.0
    n_above = sum(ap > rr for _, ap, rr in samples)
    n_below = sum(ap < rr for _, ap, rr in samples)
    assert n_above > 0 and n_below > 0
    print(
        f"criterion 4 PASS: 10000 single-answer AP == RR; {n_perfect} perfect AP with RR 1; "
        f"{n_strict} contiguous runs with AP > RR; {n_spread} spread rankings with AP <= RR; "
        f"AP > RR in {n_above} and AP < RR in {n_below} of 10000 sampled rankings"
    )


def test_criterion_05_multi_answer_dominates_single_answer():
    rng = np.random.default_rng(205)
    tokens, emb, index = _random_token_space(rng, 60, 8)
    records = []
    for q in range(1000):
        n_answers = int(rng.integers(1, 5))
        picks = rng.choice(60, size=3 + n_answers, replace=False)
        records.append(
            AnalogyRecord(
                relation_id=f"R{q % 10}",
                a=tokens[picks[0]],
                b_list=(tokens[picks[1]],),
                c=tokens[picks[2]],
                d_list=tuple(tokens[i] for i in picks[3:]),
            )
        )
    single = evaluate_records(records, emb, index, setting="single", method="cosadd")
    multi = evaluate_records(records, emb, index, setting="multi", method="cosadd")
    assert single.n_scored == multi.n_scored == 1000
    for record, s_out, m_out in zip(records, single.outcomes, multi.outcomes):
        assert m_out.relaxed_hit >= s_out.relaxed_hit
        assert s_out.n_answers_scored == 1
        assert m_out.n_answers_scored == len(record.d_list)
    assert multi.summary.micro.relaxed_accuracy >= single.summary.micro.relaxed_accuracy
    assert multi.summary.macro.relaxed_accuracy >= single.summary.macro.relaxed_accuracy
    # The full answer set feeds the precision average, not just the first answer.
    assert any(
        m_out.average_precision != s_out.average_precision
        for s_out, m_out in zip(single.outcomes, multi.outcomes)
    )
    print(
        "criterion 5 PASS: relaxed accuracy "
        f"{single.summary.micro.relaxed_accuracy:.4f} (single) <= "
        f"{multi.summary.micro.relaxed_accuracy:.4f} (multi) over 1000 records"
    )


def test_criterion_06_exact_offset_fixture_is_perfect_everywhere():
    half = 1.0 / math.sqrt(2.0)
    emb = EmbeddingMatrix(
        ["man", "woman", "king", "queen"],
        np.array([[1.0, 0.0], [0.0, 1.0], [half, half], [0.0, 1.0]]),
    )
    index = build_candidate_index(["man", "queen", "king", "woman"], emb)
    records = [
        AnalogyRecord(
            relation_id="royal", a="man", b_list=("woman",), c="king", d_list=("queen",)
        )
    ]
    for setting in ("single", "multi", "all-info"):
        for method in ("cosadd", "pairdist", "cosmul"):
            result = evaluate_records(records, emb, index, setting=setting, method=method)
            assert result.skipped == ()
            assert result.outcomes[0].top_guess == "queen"
            assert result.summary.micro == MetricBundle(1.0, 1.0, 1.0, 1.0)
            assert result.summary.macro == MetricBundle(1.0, 1.0, 1.0, 1.0)
    print("criterion 6 PASS: fixture scores 1.0 under 3 methods x 3 settings")


def test_criterion_07_singleton_exemplar_reduction_is_bit_exact():
    rng = np.random.default_rng(207)
    tokens, emb, index = _random_token_space(rng, 40, 6)
    epsilon = 1e-3
    for _ in range(50):
        ia, ib, ic = rng.choice(40, size=3, replace=False)
        a, b0, c = emb.vector(tokens[ia]), emb.vector(tokens[ib]), emb.vector(tokens[ic])
        single_b = AnalogyQuery(a=a, b=b0[np.newaxis, :], c=c)
        repeated_b = AnalogyQuery(a=a, b=np.stack([b0, b0]), c=c)

        offset = b0 - a
        assert np.array_equal(exemplar_offset(a, single_b.b), offset)

        target = c + offset
        expected_cosadd = index.matrix @ (target / np.linalg.norm(target))
        assert np.array_equal(score_candidates(index, single_b, "cosadd"), expected_cosadd)

        diff = index.matrix - c
        diff_norms = np.linalg.norm(diff, axis=1)
        raw = diff @ (offset / np.linalg.norm(offset))
        expected_pairdist = np.divide(
            raw, diff_norms, out=np.zeros_like(raw), where=diff_norms != 0.0
        )
        assert np.array_equal(score_candidates(index, single_b, "pairdist"), expected_pairdist)

        sim_b = index.matrix @ (b0 / np.linalg.norm(b0))
        sim_c = index.matrix @ (c / np.linalg.norm(c))
        sim_a = index.matrix @ (a / np.linalg.norm(a))
        expected_cosmul = sim_b * sim_c / (sim_a + epsilon)
        assert np.array_equal(
            score_candidates(index, single_b, "cosmul", epsilon=epsilon), expected_cosmul
        )

        # A repeated exemplar averages to the same offset, bit for bit.
        for method in ("cosadd", "pairdist", "cosmul"):
            assert np.array_equal(
                score_candidates(index, single_b, method),
                score_candidates(index, repeated_b, method),
            )

    records = []
    for q in range(30):
        picks = rng.choice(40, size=4, replace=False)
        records.append(
            AnalogyRecord(
                relation_id=f"R{q % 3}",
                a=tokens[picks[0]],
                b_list=(tokens[picks[1]],),
                c=tokens[picks[2]],
                d_list=(tokens[picks[3]],),
            )
        )
    per_setting = [
        evaluate_records(records, emb, index, setting=setting, method="cosmul")
        for setting in ("single", "multi", "all-info")
    ]
    assert per_setting[0].outcomes == per_setting[1].outcomes == per_setting[2].outcomes
    assert per_setting[0].summary == per_setting[1].summary == per_setting[2].summary
    print("criterion 7 PASS: singleton exemplar lists reduce bit-for-bit across settings")


def test_criterion_08_compose_matches_naive_centroid():
    rng = np.random.default_rng(208)
    vocab = ["hypertensive", "factor", "protein", "receptor", "binding", "site", "alpha"]
    emb = EmbeddingMatrix(vocab, rng.normal(size=(7, 30)))
    composed = compose_term("parathyroid hypertensive factor", emb)
    assert composed.tokens == ["parathyroid", "hypertensive", "factor"]
    assert composed.in_vocab == ["hypertensive", "factor"]
    two_token_mean = (emb.vector("hypertensive") + emb.vector("factor")) / 2.0
    assert np.max(np.abs(composed.vector - two_token_mean)) <= 1e-6

    surface = "protein receptor binding site alpha"
    centroid = sum(emb.vector(t) for t in surface.split()) / 5.0
    composed_k = compose_term(surface, emb)
    assert len(composed_k.in_vocab) == 5
    assert np.max(np.abs(composed_k.vector - centroid)) <= 1e-6
    print("criterion 8 PASS: composed vectors match naive centroids within 1e-6")


def test_criterion_09_seeded_generation_and_worker_counts_are_deterministic(tmp_path, capsys):
    triples_lines, lexicon_lines, freq_lines = [], [], []
    for r in range(3):
        for i in range(8):
            subject, obj = f"s{r}x{i}", f"o{r}x{i}"
            triples_lines.append(f"{subject}\trel{r}\t{obj}")
            for concept in (subject, obj):
                lexicon_lines.append(f"{concept}\tterm {concept}")
                freq_lines.append(f"term {concept}\t40")
    triples_path = tmp_path / "triples.tsv"
    lexicon_path = tmp_path / "lexicon.tsv"
    freq_path = tmp_path / "freq.tsv"
    triples_path.write_text("\n".join(triples_lines) + "\n", encoding="utf-8")
    lexicon_path.write_text("\n".join(lexicon_lines) + "\n", encoding="utf-8")
    freq_path.write_text("\n".join(freq_lines) + "\n", encoding="utf-8")
    generated = []
    for tag in ("g1", "g2"):
        out_dir = tmp_path / tag
        rc = main(
            [
                "generate",
                "--triples", str(triples_path),
                "--lexicon", str(lexicon_path),
                "--frequencies", str(freq_path),
                "--min-one-to-one", "5",
                "--pairs-per-relation", "6",
                "--seed", "7",
                "--out-dir", str(out_dir),
            ]
        )
        assert rc == 0
        generated.append(
            tuple(
                (out_dir / name).read_bytes()
                for name in ("dataset_ids.tsv", "dataset_terms.tsv", "statistics.tsv", "review.tsv")
            )
        )
    capsys.readouterr()
    assert generated[0] == generated[1]

    rng = np.random.default_rng(209)
    tokens = [f"tok{i:03d}" for i in range(100)]
    emb = EmbeddingMatrix(tokens, rng.normal(size=(100, 10)))
    emb_path = tmp_path / "vectors.txt"
    save_embeddings(emb, emb_path, "text")
    (tmp_path / "candidates.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    records = []
    for q in range(200):
        picks = rng.choice(100, size=5, replace=False)
        records.append(
            AnalogyRecord(
                relation_id=f"R{q % 5}",
                a=tokens[picks[0]],
                b_list=(tokens[picks[1]],),
                c=tokens[picks[2]],
                d_list=(tokens[picks[3]], tokens[picks[4]]),
            )
        )
    save_dataset(records, tmp_path / "dataset.tsv")
    outputs = []
    for workers, tag in (("1", "w1"), ("4", "w4")):
        table_path = tmp_path / f"table_{tag}.txt"
        csv_path = tmp_path / f"summary_{tag}.csv"
        outcomes_path = tmp_path / f"outcomes_{tag}.csv"
        rc = main(
            [
                "evaluate",
                "--embeddings", str(emb_path),
                "--candidates", str(tmp_path / "candidates.txt"),
                "--dataset", str(tmp_path / "dataset.tsv"),
                "--setting", "multi",
                "--method", "cosmul",
                "--workers", workers,
                "--out-table", str(table_path),
                "--out-csv", str(csv_path),
                "--out-outcomes", str(outcomes_path),
            ]
        )
        assert rc == 0
        outputs.append(
            (
                capsys.readouterr().out,
                table_path.read_bytes(),
                csv_path.read_bytes(),
                outcomes_path.read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    print("criterion 9 PASS: generation and evaluation outputs are byte-identical")


def test_criterion_10_throughput_floor():
    rng = np.random.default_rng(210)
    tokens, emb, index = _random_token_space(rng, 50_000, 200)
    records = []
    for q in range(1000):
        picks = rng.choice(50_000, size=4, replace=False)
        records.append(
            AnalogyRecord(
                relation_id=f"R{q % 20}",
                a=tokens[picks[0]],
                b_list=(tokens[picks[1]],),
                c=tokens[picks[2]],
                d_list=(tokens[picks[3]],),
            )
        )
    start = time.perf_counter()
    result = evaluate_records(records, emb, index, setting="multi", method="cosadd")
    elapsed = time.perf_counter() - start
    assert result.n_scored == 1000
    assert result.summary is not None
    assert elapsed < 60.0
    print(f"criterion 10 PASS: 1000 analogies x 50000 candidates in {elapsed:.1f}s")
