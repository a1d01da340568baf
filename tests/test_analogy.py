import math
import tracemalloc

import numpy as np
import pytest

from abnn import analogy
from abnn.abelian import AbelianOp
from abnn.analogy import (
    RETRIEVAL_CHUNK,
    AnalogyExample,
    EmbeddingTable,
    MlpModel,
    analogy_fn,
    build_analogy_model,
    build_synthetic_analogy_corpus,
    evaluate_analogy,
    load_embeddings,
    load_relation_pairs,
    prepare_analogy_splits,
    train_analogy,
)
from abnn.harness import TrainConfig
from abnn.invertible import CouplingFlow
from abnn.numcore import DivergedError


def write_embeddings(path, rows, header=None):
    lines = [header or f"{len(rows)} {len(next(iter(rows.values())))}"]
    for tok, vec in rows.items():
        lines.append(tok + " " + " ".join(str(v) for v in vec))
    path.write_text("\n".join(lines) + "\n")


class TestLoadEmbeddings:
    def test_normalize(self, tmp_path):
        p = tmp_path / "emb.txt"
        write_embeddings(p, {"a": [1.0, 0.0], "b": [3.0, 4.0]})
        table = load_embeddings(p, normalize=True)
        assert np.allclose(table.lookup("a"), [1.0, 0.0])
        assert np.allclose(table.lookup("b"), [0.6, 0.8])
        assert np.allclose(np.linalg.norm(table.matrix, axis=1), 1.0, atol=1e-10)

    def test_no_normalize(self, tmp_path):
        p = tmp_path / "emb.txt"
        write_embeddings(p, {"a": [1.0, 0.0], "b": [3.0, 4.0]})
        table = load_embeddings(p, normalize=False)
        assert np.array_equal(table.lookup("b"), [3.0, 4.0])

    def test_duplicate_token(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 2\na 1 0\na 0 1\n")
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            load_embeddings(p, normalize=False)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("banana\na 1 0\n")
        with pytest.raises(ValueError, match="line 1.*malformed header"):
            load_embeddings(p, normalize=False)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("1 3\na 1 0\n")
        with pytest.raises(ValueError, match="line 2.*columns"):
            load_embeddings(p, normalize=False)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_value(self, tmp_path, value, normalize):
        p = tmp_path / "emb.txt"
        p.write_text(f"3 2\na 1 0\nb 0 {value}\nc 0 1\n")
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            load_embeddings(p, normalize=normalize)

    def test_table_rejects_non_finite_rows(self):
        with pytest.raises(ValueError, match="non-finite embedding for token 'b'"):
            EmbeddingTable(["a", "b", "c"], [[1.0, 0.0], [np.inf, 0.0], [np.nan, 1.0]],
                           False)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("5 2\na 1 0\n")
        with pytest.raises(ValueError, match="declared 5"):
            load_embeddings(p, normalize=False)


class TestAnalogyFn:
    def test_wv_with_equal_ab_returns_c(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=4)
        c = rng.normal(size=4)
        assert np.array_equal(analogy_fn("wv", a, a, c), c)

    def test_agn_identity_flow_reduces_to_wv(self):
        rng = np.random.default_rng(1)
        flow = CouplingFlow(4, 3, 8, rng, init="near_identity")
        model = AbelianOp(flow, "sum")
        a, b, c = rng.normal(size=(3, 4))
        got = analogy_fn("wv_agn", a, b, c, model=model)
        assert np.allclose(got, b - a + c, atol=1e-14)

    def test_agn_equal_ab_returns_c_any_flow(self):
        rng = np.random.default_rng(2)
        flow = CouplingFlow(6, 3, 8, rng, init="random")
        model = AbelianOp(flow, "sum")
        for _ in range(20):
            a, c = rng.normal(size=(2, 6))
            got = analogy_fn("wv_agn", a, a, c, model=model)
            assert np.allclose(got, c, atol=1e-9)

    def test_agn_is_three_phi_passes_bitwise(self):
        # the criterion-7 test batch, with its hidden flow and an untrained model
        table, rels, flow = build_synthetic_analogy_corpus(
            25, 40, d=8, seed=7, flow_layers=2, hidden_dim=16, subnet_scale=1.5)
        test = prepare_analogy_splits(table, rels, seed=7,
                                      max_examples_per_category=100)["test"]
        a, b, c = (np.stack([table.lookup(getattr(e, w)) for e in test])
                   for w in ("a", "b", "c"))
        cfg = TrainConfig(seed=7, model="agn", n_layers=3, hidden_dim=16)
        for model in (AbelianOp(flow, "sum"), build_analogy_model("wv_agn", 8, cfg)):
            phi = model.phi
            for rows in (slice(None), slice(0, 1), slice(5, 6)):
                got = analogy_fn("wv_agn", a[rows], b[rows], c[rows], model=model)
                want = phi.inverse(phi.forward(b[rows]) - phi.forward(a[rows])
                                   + phi.forward(c[rows]))
                assert got.tobytes() == want.tobytes()

    def test_single_a_broadcasts_against_batched_b_and_c(self):
        rng = np.random.default_rng(3)
        model = AbelianOp(CouplingFlow(4, 3, 8, rng, init="random"), "sum")
        a = rng.normal(size=4)
        b, c = rng.normal(size=(2, 5, 4))
        got = analogy_fn("wv_agn", a, b, c, model=model)
        assert got.shape == (5, 4)
        assert np.array_equal(got, analogy_fn("wv_agn", np.tile(a, (5, 1)), b, c,
                                              model=model))

    def test_model_required(self):
        with pytest.raises(ValueError, match="requires a trained model"):
            analogy_fn("wv_agn", np.zeros(2), np.zeros(2), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            analogy_fn("wv", np.zeros(2), np.zeros(3), np.zeros(2))


def toy_table(rng, tokens, d=4):
    return EmbeddingTable(tokens, rng.normal(size=(len(tokens), d)), False)


class TestEvaluateAnalogy:
    def test_exact_prediction_is_correct(self):
        rng = np.random.default_rng(3)
        table = toy_table(rng, ["a", "b", "c", "d"])
        # wv with a == b predicts exactly the vector of c
        ex = AnalogyExample("a", "a", "c", ["c"])
        rep = evaluate_analogy("wv", None, table, [ex], exclude_abc=False)
        assert rep["accuracy"] == 1.0
        assert rep["ranks"] == [1]

    def test_exclusion_makes_repeated_answer_impossible(self):
        rng = np.random.default_rng(4)
        table = toy_table(rng, ["do", "did", "split", "x", "y"])
        ex = AnalogyExample("do", "do", "split", ["split"])
        keep = evaluate_analogy("wv", None, table, [ex], exclude_abc=False)
        drop = evaluate_analogy("wv", None, table, [ex], exclude_abc=True)
        assert keep["accuracy"] == 1.0
        assert drop["accuracy"] == 0.0  # the true answer was excluded

    def test_output_scale_does_not_change_retrieval(self):
        rng = np.random.default_rng(5)
        table = toy_table(rng, [f"t{i}" for i in range(30)])
        examples = [AnalogyExample("t0", "t1", f"t{i}", [f"t{(i+3) % 30}"])
                    for i in range(2, 12)]
        m1 = MlpModel(4, 2, 8, np.random.default_rng(7))
        m2 = MlpModel(4, 2, 8, np.random.default_rng(7))
        m2.net.weight(1)[:] *= 17.0  # scales every output by 17
        r1 = evaluate_analogy("wv_mlp", m1, table, examples, exclude_abc=False)
        r2 = evaluate_analogy("wv_mlp", m2, table, examples, exclude_abc=False)
        assert [e["predicted"] for e in r1["examples"]] == \
               [e["predicted"] for e in r2["examples"]]

    def test_ranks_deterministic(self):
        rng = np.random.default_rng(6)
        table = toy_table(rng, [f"t{i}" for i in range(20)])
        examples = [AnalogyExample("t0", "t1", "t2", ["t3", "t4"])]
        r1 = evaluate_analogy("wv", None, table, examples, exclude_abc=False)
        r2 = evaluate_analogy("wv", None, table, examples, exclude_abc=False)
        assert r1["ranks"] == r2["ranks"]


def reference_evaluate_analogy(kind, model, table, test, exclude_abc):
    """The per-example loop evaluate_analogy replaced, kept as the reference."""
    if not test:
        raise ValueError("evaluation data is empty")
    A = np.stack([table.lookup(e.a) for e in test])
    B = np.stack([table.lookup(e.b) for e in test])
    C = np.stack([table.lookup(e.c) for e in test])
    preds = analogy_fn(kind, A, B, C, model=model)
    pred_norms = np.linalg.norm(preds, axis=1, keepdims=True)
    vocab_norms = np.linalg.norm(table.matrix, axis=1)
    sims = (preds / np.where(pred_norms == 0.0, 1.0, pred_norms)) @ table.matrix.T
    sims /= np.where(vocab_norms == 0.0, 1.0, vocab_norms)

    correct = 0
    ranks = []
    details = []
    per_cat: dict[str, list[int]] = {}
    for i, ex in enumerate(test):
        row = sims[i]
        if exclude_abc:
            row = row.copy()
            for tok in (ex.a, ex.b, ex.c):
                row[table.index[tok]] = -np.inf
        top = int(np.argmax(row))
        cand_idx = [table.index[w] for w in ex.d_candidates if w in table.index]
        hit = top in cand_idx
        best_cand = max(row[j] for j in cand_idx) if cand_idx else -np.inf
        rank = 1 + int(np.sum(row > best_cand))
        correct += hit
        ranks.append(rank)
        per_cat.setdefault(ex.category, []).append(int(hit))
        details.append({"a": ex.a, "b": ex.b, "c": ex.c,
                        "predicted": table.vocab[top], "hit": bool(hit),
                        "rank": rank})
    return {
        "kind": kind,
        "exclude_abc": exclude_abc,
        "n": len(test),
        "correct": int(correct),
        "accuracy": correct / len(test),
        "per_category": {
            cat: {"n": len(v), "accuracy": float(np.mean(v))}
            for cat, v in sorted(per_cat.items())
        },
        "ranks": ranks,
        "examples": details,
    }


def retrieval_case(kind):
    """A table with two equal rows and a zero row, RETRIEVAL_CHUNK + 1
    examples that start with the hard cases, and a model for ``kind``."""
    rng = np.random.default_rng(21)
    tokens = [f"t{i}" for i in range(40)] + ["dup0", "dup1", "zero"]
    matrix = rng.normal(size=(41, 4))
    matrix = np.vstack([matrix, matrix[-1:], np.zeros((1, 4))])
    table = EmbeddingTable(tokens, matrix, False)
    examples = [
        AnalogyExample("t1", "t1", "zero", ["t2"], "zero"),  # zero prediction
        AnalogyExample("t3", "t3", "dup1", ["dup1"], "tie"),  # ties dup0 exactly
        AnalogyExample("t4", "t9", "t5", ["t5", "t6", "t7", "dup0"], "multi"),
        AnalogyExample("t8", "t9", "t10", ["nope"], "missing"),
        AnalogyExample("t8", "t11", "t12", ["nope", "t13", "t13"], "missing"),
        AnalogyExample("t9", "t9", "t10", ["t10"], "excluded"),  # c is the answer
    ]
    while len(examples) < RETRIEVAL_CHUNK + 1:
        a, b, c, *d = rng.choice(tokens, size=3 + rng.integers(1, 4))
        if rng.random() < 0.1:
            d.append("oov")
        examples.append(AnalogyExample(a, b, c, d, f"cat{len(examples) % 5}"))
    model = None
    if kind == "wv_mlp":
        model = MlpModel(4, 2, 8, rng)
    elif kind == "wv_agn":
        model = AbelianOp(CouplingFlow(4, 3, 8, rng, init="random"), "sum")
    return table, examples, model


class TestBlockedRetrieval:
    @pytest.mark.parametrize("kind", ["wv", "wv_mlp", "wv_agn"])
    @pytest.mark.parametrize("n", [1, RETRIEVAL_CHUNK, RETRIEVAL_CHUNK + 1])
    @pytest.mark.parametrize("exclude_abc", [False, True])
    def test_equals_the_per_example_loop(self, kind, n, exclude_abc):
        table, examples, model = retrieval_case(kind)
        for test in (examples[:n], examples[-n:]):
            got = evaluate_analogy(kind, model, table, test, exclude_abc)
            assert got == reference_evaluate_analogy(kind, model, table, test, exclude_abc)

    def test_fixture_covers_its_cases(self):
        table, examples, _ = retrieval_case("wv")
        keep = evaluate_analogy("wv", None, table, examples[:6], exclude_abc=False)
        drop = evaluate_analogy("wv", None, table, examples[:6], exclude_abc=True)
        assert keep["examples"][0]["predicted"] == "t0"  # every cosine is 0
        assert keep["examples"][1]["predicted"] == "dup0"  # tie to the lower index
        assert keep["ranks"][1] == 1 and not keep["examples"][1]["hit"]
        assert keep["ranks"][3] == len(table) + 1
        assert keep["examples"][5]["hit"] and not drop["examples"][5]["hit"]

    @pytest.mark.parametrize("kind", ["wv", "wv_agn"])
    def test_a_query_scores_the_same_alone(self, kind):
        table, examples, model = retrieval_case(kind)
        together = evaluate_analogy(kind, model, table, examples, exclude_abc=True)
        for i, ex in enumerate(examples):
            alone = evaluate_analogy(kind, model, table, [ex], exclude_abc=True)
            assert alone["examples"] == [together["examples"][i]], i

    @pytest.mark.parametrize("n", [1, 2, RETRIEVAL_CHUNK, RETRIEVAL_CHUNK + 1,
                                   4 * RETRIEVAL_CHUNK + 1])
    def test_blocks_tile_the_queries_and_none_is_one_row(self, n):
        blocks = analogy._retrieval_blocks(n)
        assert [lo for lo, _ in blocks] + [n] == [0] + [hi for _, hi in blocks]
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) <= RETRIEVAL_CHUNK
        assert n == 1 or min(sizes) > 1

    def test_query_word_outside_the_vocabulary(self):
        table, examples, _ = retrieval_case("wv")
        bad = examples[:3] + [AnalogyExample("t1", "t2", "zzz", ["t3"])]
        with pytest.raises(ValueError, match="example 3: query word 'zzz'"):
            evaluate_analogy("wv", None, table, bad, exclude_abc=False)

    def test_memory_is_one_block_of_cosines(self):
        rng = np.random.default_rng(22)
        n_vocab = 4096
        table = toy_table(rng, [f"t{i}" for i in range(n_vocab)])
        test = [AnalogyExample(*(f"t{j}" for j in row[:3]), [f"t{row[3]}"])
                for row in rng.integers(n_vocab, size=(4 * RETRIEVAL_CHUNK, 4))]
        tracemalloc.start()
        try:
            evaluate_analogy("wv", None, table, test, exclude_abc=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole (n, |V|) matrix would be 4 * RETRIEVAL_CHUNK * n_vocab * 8
        assert peak < 3 * RETRIEVAL_CHUNK * n_vocab * 8


class TestRelationFiles:
    def test_load_and_split(self, tmp_path):
        rel_dir = tmp_path / "rels"
        rel_dir.mkdir()
        (rel_dir / "plural.tsv").write_text(
            "apple\tapples\ncar\tcars\ndog\tdogs\ncat\tcats\nbook\tbooks\n")
        (rel_dir / "hyper.tsv").write_text("dog\tmammal/canine\nrose\tflower\n")
        rels = load_relation_pairs(rel_dir)
        assert sorted(rels) == ["hyper", "plural"]
        assert rels["hyper"][0][1] == ["mammal", "canine"]

        rng = np.random.default_rng(0)
        tokens = ["apple", "apples", "car", "cars", "dog", "dogs", "cat",
                  "cats", "book", "books", "mammal", "rose", "flower"]
        table = toy_table(rng, tokens)
        splits = prepare_analogy_splits(table, rels, seed=1)
        total = sum(len(v) for v in splits.values())
        # plural: 5 pairs -> 3/1/1 -> 6 + 0 + 0 combos; hyper: both pairs
        # usable ("canine" missing but "mammal" present)
        assert total > 0
        for exs in splits.values():
            for ex in exs:
                assert ex.a in table and ex.c in table
                assert any(w in table for w in ex.d_candidates)
                assert (ex.a, ex.b) != (ex.c, ex.d_candidates[0])

    def test_bad_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("only_one_column\n")
        with pytest.raises(ValueError, match="line 1"):
            load_relation_pairs(p)


class TestTraining:
    def test_wv_is_not_trainable(self):
        rng = np.random.default_rng(7)
        table = toy_table(rng, ["a", "b"])
        with pytest.raises(ValueError, match="no trainable"):
            train_analogy("wv", table, [AnalogyExample("a", "b", "a", ["b"])])

    def test_zero_epoch_agn_equals_wv(self):
        table, rels, _ = build_synthetic_analogy_corpus(
            4, 10, d=4, seed=8, subnet_scale=0.8)
        splits = prepare_analogy_splits(table, rels, seed=8)
        cfg = TrainConfig(epochs=0, seed=8, model="agn", n_layers=3, hidden_dim=8)
        model, losses = train_analogy("wv_agn", table, splits["train"], cfg)
        test = splits["test"]
        wv = evaluate_analogy("wv", None, table, test, exclude_abc=False)
        agn = evaluate_analogy("wv_agn", model, table, test, exclude_abc=False)
        assert losses == []
        assert agn["accuracy"] == wv["accuracy"]
        assert [e["predicted"] for e in agn["examples"]] == \
               [e["predicted"] for e in wv["examples"]]

    def test_loss_at_perfect_prediction(self):
        # cosine of identical directions is 1, so the loss floor is -1
        rng = np.random.default_rng(9)
        table = toy_table(rng, ["a", "b", "c", "d"])
        ex = AnalogyExample("a", "a", "c", ["c"])
        cfg = TrainConfig(epochs=1, seed=9, model="agn", n_layers=2, hidden_dim=4)
        model, losses = train_analogy("wv_agn", table, [ex], cfg)
        assert losses[0] == pytest.approx(-1.0, abs=1e-9)

    def test_non_finite_loss_raises_with_diagnostics(self, monkeypatch):
        # one example per epoch; the second epoch's loss is forced to NaN
        real = analogy.cosine_on_tape
        calls = []

        def nan_after_first(tape, v, w):
            calls.append(1)
            loss = real(tape, v, w)
            if len(calls) == 1:
                return loss
            return tape.block(tape.val(loss) * math.nan, lambda g: [(loss, g * math.nan)])

        monkeypatch.setattr(analogy, "cosine_on_tape", nan_after_first)
        rng = np.random.default_rng(9)
        table = toy_table(rng, ["a", "b", "c", "d"])
        cfg = TrainConfig(epochs=3, seed=9, model="agn", n_layers=2, hidden_dim=4)
        with pytest.raises(DivergedError, match="non-finite loss at epoch 1") as exc:
            train_analogy("wv_agn", table, [AnalogyExample("a", "b", "c", ["d"])], cfg)
        assert exc.value.diagnostics["epoch"] == 1
        curve = exc.value.diagnostics["loss_curve"]
        assert len(curve) == 1 and math.isfinite(curve[0])

    def test_agn_training_repeats_bitwise_and_predicts_consistently(self):
        # the checks the benchmark's analogy workload makes on every round
        table, rels, _ = build_synthetic_analogy_corpus(
            5, 12, d=8, seed=12, subnet_scale=1.5)
        splits = prepare_analogy_splits(table, rels, seed=12)
        cfg = TrainConfig(epochs=2, seed=12, model="agn", n_layers=3, hidden_dim=16,
                          weight_decay=1e-4)
        runs = [train_analogy("wv_agn", table, splits["train"], cfg) for _ in range(2)]
        (model, losses), (again, losses_again) = runs
        assert model is not again
        assert losses == losses_again
        assert model.store.values.tobytes() == again.store.values.tobytes()
        assert len(losses) == 2 and losses[-1] < losses[0]

        abc = [np.stack([table.lookup(getattr(e, w)) for e in splits["test"]])
               for w in ("a", "b", "c")]
        batch = analogy_fn("wv_agn", *abc, model=model)
        single = np.concatenate([analogy_fn("wv_agn", *(v[r : r + 1] for v in abc),
                                            model=model) for r in range(len(batch))])
        gap = np.linalg.norm(single - batch, axis=1)
        assert np.all(gap <= 1e-9 * np.linalg.norm(batch, axis=1))

    def test_mlp_training_reduces_loss(self):
        table, rels, _ = build_synthetic_analogy_corpus(
            4, 10, d=4, seed=10, subnet_scale=0.8)
        splits = prepare_analogy_splits(table, rels, seed=10)
        cfg = TrainConfig(epochs=8, seed=10, model="mlp", n_layers=2, hidden_dim=16)
        _, losses = train_analogy("wv_mlp", table, splits["train"][:120], cfg)
        assert losses[-1] < losses[0]


class TestSyntheticCorpus:
    def test_ground_truth_flow_solves_analogies_exactly(self):
        table, rels, flow = build_synthetic_analogy_corpus(
            5, 10, d=6, seed=11, subnet_scale=0.8)
        assert len(table) == 5 * 10 * 2
        splits = prepare_analogy_splits(table, rels, seed=11)
        oracle = AbelianOp(flow, "sum")
        rep = evaluate_analogy("wv_agn", oracle, table, splits["test"],
                               exclude_abc=False)
        assert rep["accuracy"] == 1.0
