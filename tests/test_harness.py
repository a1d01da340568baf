import math

import numpy as np
import pytest

from abnn import harness
from abnn.algebra import CanonicalForm, SymPoly2, classify
from abnn.harness import (
    TASKS,
    SearchSpace,
    TrainConfig,
    build_model,
    evaluate,
    generate_dataset,
    make_splits,
    random_search,
    train,
    write_results_csv,
)
from abnn.numcore import DivergedError


class ExactModel:
    """Oracle that folds the true operation; evaluate() sanity anchor."""

    def __init__(self, task):
        self.task = task

    def fold_many(self, multisets):
        return np.array([[self.task.fold(ms)] for ms in multisets])


class TestTasks:
    def test_add_fold(self):
        assert TASKS["add"].fold([1.5, -2.0, 0.5]) == pytest.approx(0.0)

    def test_mul_fold(self):
        assert TASKS["mul"].fold([2.0, 3.0, -1.0]) == pytest.approx(-6.0)

    def test_cbrt_fold(self):
        got = TASKS["cbrt_sum_cubes"].fold([1.0, 2.0])
        assert got == pytest.approx(9.0 ** (1.0 / 3.0), abs=1e-12)
        # fold order cannot matter for a pair
        assert TASKS["cbrt_sum_cubes"].fold([2.0, 1.0]) == pytest.approx(got)

    def test_polynomial_targets_are_associative(self):
        expected = {
            "add": ("additive", 0.0),
            "add1": ("additive", 1.0),
            "mul": ("bilinear", None),
            "bilinear_half": ("bilinear", None),
        }
        for name, (kind, alpha) in expected.items():
            form = classify(SymPoly2(np.array(TASKS[name].poly_grid)))
            assert isinstance(form, CanonicalForm)
            assert form.kind == kind
            if alpha is not None:
                assert form.alpha == pytest.approx(alpha)

    def test_cbrt_target_is_associative_numerically(self):
        task = TASKS["cbrt_sum_cubes"]
        rng = np.random.default_rng(0)
        x, y, z = rng.uniform(-5, 5, size=(3, 1000))
        left = task.target_op(task.target_op(x, y), z)
        right = task.target_op(x, task.target_op(y, z))
        assert np.max(np.abs(left - right)) < 1e-10
        assert np.max(np.abs(task.target_op(x, y) - task.target_op(y, x))) < 1e-12


class TestGenerateDataset:
    def test_shapes_and_sizes(self):
        data = generate_dataset(TASKS["add"], 50, {2, 3, 4}, seed=1)
        assert len(data) == 50
        for ms, target in data:
            assert len(ms) in (2, 3, 4)
            assert np.all(np.abs(ms) <= 5.0)
            assert target[0] == pytest.approx(np.sum(ms))

    def test_deterministic(self):
        a = generate_dataset(TASKS["mul"], 20, {2, 3}, seed=5)
        b = generate_dataset(TASKS["mul"], 20, {2, 3}, seed=5)
        for (m1, t1), (m2, t2) in zip(a, b):
            assert np.array_equal(m1, m2) and np.array_equal(t1, t2)

    def test_splits_are_distinct_streams(self):
        splits = make_splits(TASKS["add"], seed=3)
        assert {k: len(v) for k, v in splits.items()} == {
            "train": 500, "validation": 100, "small": 100, "large": 100}
        assert not np.array_equal(splits["train"][0][0][:2], splits["small"][0][0][:2])
        for ms, _ in splits["large"]:
            assert len(ms) in (10, 11, 12)

    def test_exact_oracle_scores_zero(self):
        for name, task in TASKS.items():
            data = generate_dataset(task, 50, task.train_sizes, seed=2)
            assert evaluate(ExactModel(task), data) < 1e-12


class TestTrain:
    def test_zero_epochs_leaves_parameters(self):
        cfg = TrainConfig(epochs=0, seed=1, model="agn")
        model = build_model(cfg)
        before = model.store.values.copy()
        data = generate_dataset(TASKS["add"], 40, {2, 3}, seed=1)
        res = train(model, data, cfg)
        assert np.array_equal(model.store.values, before)
        assert res.loss_curve == []

    @pytest.mark.parametrize("model_name", ["agn", "asn", "deepsets"])
    def test_loss_decreases(self, model_name):
        task = TASKS["add" if model_name != "asn" else "mul"]
        cfg = TrainConfig(epochs=30, seed=2, model=model_name,
                          k_groups=3, j_units=3, hidden_dim=8, middle_dim=8)
        model = build_model(cfg)
        data = generate_dataset(task, 120, {2, 3}, seed=2)
        res = train(model, data, cfg)
        assert res.loss_curve[-1] < res.loss_curve[0]
        assert len(res.loss_curve) == 30

    def test_bitwise_deterministic(self):
        def run():
            cfg = TrainConfig(epochs=12, seed=9, model="agn", k_groups=3, j_units=3)
            model = build_model(cfg)
            data = generate_dataset(TASKS["add"], 64, {2, 3, 4}, seed=9)
            res = train(model, data, cfg)
            return model.store.values.copy(), res.loss_curve

        (v1, c1), (v2, c2) = run(), run()
        assert np.array_equal(v1, v2)
        assert c1 == c2

    def test_divergence_raises_with_curve(self):
        cfg = TrainConfig(epochs=50, seed=3, model="asn", lr=1e6)
        model = build_model(cfg)
        data = generate_dataset(TASKS["mul"], 64, {3, 4}, seed=3)
        with pytest.raises(DivergedError, match="diverged") as exc:
            train(model, data, cfg)
        assert "loss_curve" in exc.value.diagnostics


class TestTrainConfig:
    @pytest.mark.parametrize("name,value,error", [
        ("epochs", 2.0, TypeError),
        ("batch_size", True, TypeError),
        ("model", 1, TypeError),
        ("lr", "0.1", TypeError),
        ("lr", 0.0, ValueError),
        ("lr", math.nan, ValueError),
        ("epochs", -1, ValueError),
        ("seed", -1, ValueError),
        ("k_groups", 0, ValueError),
        ("middle_dim", 0, ValueError),
    ])
    def test_rejects_bad_values(self, name, value, error):
        with pytest.raises(error, match=name):
            TrainConfig(**{name: value})

    def test_accepts_numpy_numbers_and_int_rates(self):
        cfg = TrainConfig(seed=np.int64(3), lr=1, weight_decay=np.float64(0.5))
        assert (cfg.seed, cfg.lr, cfg.weight_decay) == (3, 1, 0.5)


class TestEvaluate:
    def test_perfect_predictions(self):
        task = TASKS["add"]
        data = generate_dataset(task, 30, {2, 3}, seed=4)
        assert evaluate(ExactModel(task), data) == pytest.approx(0.0, abs=1e-13)

    def test_constant_zero_model(self):
        class Zero:
            def fold_many(self, multisets):
                return np.zeros((len(multisets), 1))

        data = [(np.array([1.0, 1.0]), np.array([2.0]))] * 5
        assert evaluate(Zero(), data) == pytest.approx(2.0)


class TestRandomSearch:
    def make_data(self):
        task = TASKS["add"]
        return (generate_dataset(task, 60, {2, 3}, seed=5),
                generate_dataset(task, 30, {2, 3}, seed=6))

    def test_single_trial_returns_its_config(self):
        train_data, val_data = self.make_data()
        base = TrainConfig(epochs=2, seed=0)
        best, log = random_search(SearchSpace("agn"), 1, base, train_data,
                                  val_data, seed=100)
        assert len(log) == 1
        assert best == log[0][0]

    def test_collapsed_space(self):
        train_data, val_data = self.make_data()
        base = TrainConfig(epochs=2, seed=0)
        space = SearchSpace("agn", k_range=(4, 4), j_range=(5, 5))
        best, _ = random_search(space, 3, base, train_data, val_data, seed=100)
        assert (best.k_groups, best.j_units) == (4, 5)

    def test_best_not_worse_than_median(self):
        train_data, val_data = self.make_data()
        base = TrainConfig(epochs=3, seed=0)
        best, log = random_search(SearchSpace("agn"), 8, base, train_data,
                                  val_data, seed=200)
        scores = sorted(s for _, s in log)
        best_score = min(s for _, s in log)
        assert best_score <= scores[len(scores) // 2]
        assert best.seed == next(c.seed for c, s in log if s == best_score)

    def test_all_diverged_lists_seeds(self):
        train_data, val_data = self.make_data()
        base = TrainConfig(epochs=5, seed=0, lr=1e8)
        with pytest.raises(RuntimeError, match="all trials diverged"):
            random_search(SearchSpace("asn"), 2, base, train_data, val_data,
                          seed=300)

    def test_threads_match_sequential(self):
        train_data, val_data = self.make_data()
        base = TrainConfig(epochs=2, seed=0)
        b1, l1 = random_search(SearchSpace("agn"), 4, base, train_data,
                               val_data, seed=400, threads=1)
        b2, l2 = random_search(SearchSpace("agn"), 4, base, train_data,
                               val_data, seed=400, threads=2)
        assert b1 == b2
        assert [(c.k_groups, c.j_units, s) for c, s in l1] == \
               [(c.k_groups, c.j_units, s) for c, s in l2]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Executor stand-in: records its size, runs the trials here."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        train_data, val_data = self.make_data()
        base = TrainConfig(epochs=1, seed=0)
        for cpus in (2, None):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            random_search(SearchSpace("agn"), 2, base, train_data, val_data,
                          seed=500, threads=64)
        assert sizes == [2]  # unknown cpu count runs in process


class TestResultsExport:
    def test_csv_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(path, [("add", "agn", "small", 0.125, 7, 3.25)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "task,model,split,rmse,seed,wall_clock_s"
        assert lines[1] == "add,agn,small,0.125,7,3.25"
