import math

import numpy as np
import pytest

from abnn import analogy
from abnn.abelian import AbelianOp
from abnn.analogy import (
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

        def nan_after_first(tape, v_nodes, w):
            calls.append(1)
            node = real(tape, v_nodes, w)
            return node if len(calls) == 1 else tape.mul(node, tape.const(math.nan))

        monkeypatch.setattr(analogy, "cosine_on_tape", nan_after_first)
        rng = np.random.default_rng(9)
        table = toy_table(rng, ["a", "b", "c", "d"])
        cfg = TrainConfig(epochs=3, seed=9, model="agn", n_layers=2, hidden_dim=4)
        with pytest.raises(DivergedError, match="non-finite loss at epoch 1") as exc:
            train_analogy("wv_agn", table, [AnalogyExample("a", "b", "c", ["d"])], cfg)
        assert exc.value.diagnostics["epoch"] == 1
        curve = exc.value.diagnostics["loss_curve"]
        assert len(curve) == 1 and math.isfinite(curve[0])

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
