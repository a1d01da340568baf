"""Acceptance suite: one test per release criterion, at stated tolerances.

Heavy trainings run once in module-scoped fixtures and are reused; the
determinism criterion retrains everything from scratch and compares the
artifacts byte for byte (wall-clock fields, like timestamps, excluded).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import csv
import json
import sys
import time

import numpy as np
import pytest

from abnn.abelian import AbelianOp, size_generalization_check
from abnn.algebra import CanonicalForm, NotAssociative, SymPoly2, classify, is_associative
from abnn.analogy import (
    build_synthetic_analogy_corpus,
    evaluate_analogy,
    prepare_analogy_splits,
    train_analogy,
)
from abnn.baseline import DeepSetsModel
from abnn.harness import (
    REFERENCE_CONFIGS,
    TASKS,
    TrainConfig,
    make_splits,
    run_experiment,
    write_results_csv,
    write_results_json,
)
from abnn.invertible import CouplingFlow, MonotonicNet
from abnn.numcore import ParamStore, Tape, cosine, cosine_on_tape, mse_loss, mse_on_tape

from gradcheck import central_diff, rel_err
from test_algebra import planted_associative, random_symmetric_poly

SEED = 7

# criterion 7 construction and training budget (desk scale)
ANALOGY_RELATIONS = 25
ANALOGY_PAIRS = 40
ANALOGY_DIM = 8
ANALOGY_SCALE = 1.5
ANALOGY_CFG = dict(epochs=40, n_layers=3, hidden_dim=16, weight_decay=1e-4)
ANALOGY_TRAIN_CAP = 100  # examples kept per relation for the train split


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          file=sys.stderr, flush=True)


def random_op_suite(seed):
    """50 randomly initialized ops split over {group, semigroup} x {1, 4}."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(50):
        combiner = "sum" if i % 2 == 0 else "product"
        if i % 4 < 2:
            phi = MonotonicNet.initialized(3, 3, rng)
        else:
            phi = CouplingFlow(4, 3, 8, rng, init="random")
        ops.append(AbelianOp(phi, combiner))
    return ops


class TestCriterion1AlgebraicLaws:
    def test_laws_within_tolerance(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        worst = {"comm": 0.0, "assoc": 0.0, "identity": 0.0, "inverse": 0.0}
        for op in random_op_suite(SEED):
            x, y, z = (rng.uniform(-2, 2, size=(1000, op.d)) for _ in range(3))
            comm = float(np.max(np.abs(op.combine(x, y) - op.combine(y, x))))
            tol_comm = 1e-8
            assert comm < tol_comm
            assoc = float(np.max(np.abs(
                op.combine(op.combine(x, y), z) - op.combine(x, op.combine(y, z)))))
            assert assoc < 1e-6
            worst["comm"] = max(worst["comm"], comm)
            worst["assoc"] = max(worst["assoc"], assoc)
            if op.combiner == "sum":
                e = op.identity_element()
                ident = float(np.max(np.abs(
                    op.combine(x, np.broadcast_to(e, x.shape)) - x)))
                inv = float(np.max(np.abs(
                    op.combine(x, op.inverse_element(x)) - e)))
                assert ident < 1e-6
                assert inv < 1e-6
                worst["identity"] = max(worst["identity"], ident)
                worst["inverse"] = max(worst["inverse"], inv)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(1, True,
               f"50 ops, worst comm {worst['comm']:.2e}, assoc {worst['assoc']:.2e}, "
               f"identity {worst['identity']:.2e}, inverse {worst['inverse']:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion2Inversion:
    def test_round_trips(self):
        rng = np.random.default_rng(SEED)
        flow = CouplingFlow(8, 4, 16, rng, init="random")
        x = rng.normal(size=(1000, 8))
        flow_err = float(np.max(np.abs(flow.inverse(flow.forward(x)) - x)))
        assert flow_err < 1e-9

        net = MonotonicNet.initialized(4, 4, rng)
        pts = rng.uniform(-20, 20, size=1000)
        mono_err = float(np.max(np.abs(
            net.inverse_batch(net.forward(pts)) - pts)))
        assert mono_err < 1e-9
        report(2, True,
               f"coupling round-trip {flow_err:.2e}, monotonic {mono_err:.2e}")


class TestCriterion3Gradients:
    """Reverse-mode vs central differences at 100 random configurations."""

    def _fd_check(self, store: ParamStore, tape_value_fn, numpy_value_fn) -> float:
        tape = Tape()
        out = tape_value_fn(tape)
        tape.backward(out)
        g = store.grads.copy()
        store.zero_grads()
        theta0 = store.values.copy()

        def f(theta):
            store.values[:] = theta
            v = numpy_value_fn()
            store.values[:] = theta0
            return v

        return rel_err(g, central_diff(f, theta0))

    def test_monotonic_nets(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        checked = 0
        while checked < 100:
            net = MonotonicNet.initialized(int(rng.integers(2, 5)),
                                           int(rng.integers(2, 5)), rng)
            x = float(rng.uniform(-5, 5))
            units = net.effective_weights() * x + net.bias
            group_vals = units.max(axis=1)
            k_star = int(group_vals.argmin())
            g_sorted = np.sort(group_vals)
            u_sorted = np.sort(units[k_star])
            if (g_sorted.size > 1 and g_sorted[1] - g_sorted[0] < 1e-3) or \
               (u_sorted.size > 1 and u_sorted[-1] - u_sorted[-2] < 1e-3):
                continue
            err = self._fd_check(
                net.store,
                lambda tape: net.forward_on_tape(net.stage(tape), [[tape.const(x)]])[0][0],
                lambda: net.forward(x))
            assert err < 1e-4
            worst = max(worst, err)
            checked += 1
        report(3, True, f"monotonic nets worst rel err {worst:.2e} (part 1/4)")

    def test_coupling_flows(self):
        rng = np.random.default_rng(SEED + 1)
        worst = 0.0
        checked = 0
        while checked < 100:
            flow = CouplingFlow(4, 2, 5, rng, init="random")
            x = rng.normal(size=4)
            probe = rng.normal(size=4)
            direction = "forward" if checked % 2 == 0 else "inverse"
            if flow.selection_margin(x, direction) < 3e-4:
                continue

            def tape_fn(tape):
                staged = flow.stage(tape)
                batch = [tape.consts(x)]
                (out,) = (flow.forward_on_tape(staged, batch) if direction == "forward"
                          else flow.inverse_on_tape(staged, batch))
                return tape.affine(out, tape.consts(probe), tape.const(0.0))

            def np_fn():
                y = flow.forward(x) if direction == "forward" else flow.inverse(x)
                return float(probe @ y)

            err = self._fd_check(flow.store, tape_fn, np_fn)
            assert err < 1e-4
            worst = max(worst, err)
            checked += 1
        report(3, True, f"coupling flows worst rel err {worst:.2e} (part 2/4)")

    def test_deepsets(self):
        rng = np.random.default_rng(SEED + 2)
        worst = 0.0
        checked = 0
        while checked < 100:
            model = DeepSetsModel(2, 2, 5, 4, rng)
            X = rng.normal(size=(int(rng.integers(2, 5)), 2))
            probe = rng.normal(size=2)
            if model.selection_margin(X) < 3e-4:
                continue

            def tape_fn(tape):
                staged = model.stage(tape)
                (out,) = model.fold_batch_on_tape(staged, [X])
                return tape.affine(out, tape.consts(probe), tape.const(0.0))

            err = self._fd_check(model.store, tape_fn,
                                 lambda: float(probe @ model.forward(X)))
            assert err < 1e-4
            worst = max(worst, err)
            checked += 1
        report(3, True, f"deepsets worst rel err {worst:.2e} (part 3/4)")

    def test_losses(self):
        rng = np.random.default_rng(SEED + 3)
        worst = 0.0
        for i in range(100):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            target = rng.normal(size=(n, d))
            store = ParamStore(n * d)
            store.values[:] = rng.normal(size=n * d)

            if i % 2 == 0:  # mean squared error
                def tape_fn(tape):
                    base = tape.stage_params(store)
                    preds = [[base + r * d + c for c in range(d)] for r in range(n)]
                    return mse_on_tape(tape, preds, target)

                def np_fn():
                    return mse_loss(store.values.reshape(n, d), target)
            else:  # cosine against a fixed direction
                w = rng.normal(size=n * d)

                def tape_fn(tape):
                    base = tape.stage_params(store)
                    return cosine_on_tape(
                        tape, list(range(base, base + n * d)), w)

                def np_fn():
                    return cosine(store.values, w)

            tape = Tape()
            out = tape_fn(tape)
            tape.backward(out)
            g = store.grads.copy()
            store.zero_grads()
            theta0 = store.values.copy()

            def f(theta):
                store.values[:] = theta
                v = np_fn()
                store.values[:] = theta0
                return v

            err = rel_err(g, central_diff(f, theta0))
            assert err < 1e-4
            worst = max(worst, err)
        report(3, True, f"losses worst rel err {worst:.2e} (part 4/4)")


def _synthetic_cfg(task: str, model: str) -> TrainConfig:
    cfg = TrainConfig(seed=SEED, model=model)
    for key, value in REFERENCE_CONFIGS.get((task, model), {}).items():
        setattr(cfg, key, value)
    return cfg


SYNTHETIC_RUNS = [
    ("add", "agn"),
    ("add", "deepsets"),
    ("add1", "agn"),
    ("mul", "asn"),
    ("mul", "agn"),
    ("mul", "deepsets"),
    ("bilinear_half", "asn"),
    ("bilinear_half", "agn"),
    ("bilinear_half", "deepsets"),
]


def _run_synthetic_pass(out_dir):
    """Train the full criterion-4 grid once and write its result files."""
    results = {}
    rows = []
    log = {}
    for task_name, model_name in SYNTHETIC_RUNS:
        cfg = _synthetic_cfg(task_name, model_name)
        model, result = run_experiment(TASKS[task_name], cfg)
        results[(task_name, model_name)] = (model, result)
        for split in ("small", "large"):
            rows.append((task_name, model_name, split, result.rmse[split],
                         cfg.seed, result.wall_clock_s))
        log[f"{task_name}/{model_name}"] = {
            "rmse": result.rmse, "loss_curve": result.loss_curve,
            "config": result.config, "wall_clock_s": result.wall_clock_s,
        }
    write_results_csv(out_dir / "results.csv", rows)
    write_results_json(out_dir / "results.json", log)
    return results


@pytest.fixture(scope="module")
def synthetic_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion4")
    return out, _run_synthetic_pass(out)


class TestCriterion4TableReproduction:
    def test_group_tasks(self, synthetic_runs):
        _, results = synthetic_runs
        lines = []
        for task in ("add", "add1"):
            _, res = results[(task, "agn")]
            assert res.rmse["small"] < 1e-2, f"agn {task} small {res.rmse['small']}"
            assert res.rmse["large"] < 0.2, f"agn {task} large {res.rmse['large']}"
            assert res.wall_clock_s < 600.0
            lines.append(f"agn/{task} small {res.rmse['small']:.2e} "
                         f"large {res.rmse['large']:.2e}")
        report(4, True, "(a) " + "; ".join(lines))

    def test_product_task(self, synthetic_runs):
        _, results = synthetic_runs
        asn = results[("mul", "asn")][1]
        agn = results[("mul", "agn")][1]
        ds = results[("mul", "deepsets")][1]
        assert asn.rmse["small"] < 1e-2
        assert asn.rmse["large"] < 0.1 * agn.rmse["large"]
        assert asn.rmse["large"] < 0.1 * ds.rmse["large"]
        report(4, True,
               f"(b) asn/mul small {asn.rmse['small']:.2e} large "
               f"{asn.rmse['large']:.3g} vs agn {agn.rmse['large']:.3g} "
               f"and deepsets {ds.rmse['large']:.3g}")

    def test_mixed_semigroup_task(self, synthetic_runs):
        _, results = synthetic_runs
        asn = results[("bilinear_half", "asn")][1]
        agn = results[("bilinear_half", "agn")][1]
        ds = results[("bilinear_half", "deepsets")][1]
        assert asn.rmse["small"] < 1e-2
        assert asn.rmse["large"] < 0.1 * agn.rmse["large"]
        assert asn.rmse["large"] < 0.1 * ds.rmse["large"]
        report(4, True,
               f"(c) asn/bilinear_half small {asn.rmse['small']:.2e} large "
               f"{asn.rmse['large']:.3g} vs agn {agn.rmse['large']:.3g} "
               f"and deepsets {ds.rmse['large']:.3g}")

    def test_every_run_within_wall_clock(self, synthetic_runs):
        _, results = synthetic_runs
        slowest = max(res.wall_clock_s for _, res in results.values())
        assert slowest < 600.0
        report(4, True, f"slowest run {slowest:.0f}s < 600s")

    def test_trained_group_model_recovers_identity(self, synthetic_runs):
        # the identity of x o y = x + y + 1 is -1; the trained model's
        # explicit identity element should land there
        _, results = synthetic_runs
        model, _ = results[("add1", "agn")]
        e = float(model.identity_element()[0])
        assert abs(e - (-1.0)) < 0.1
        report(4, True, f"trained add1 model identity element {e:.4f} (true -1)")

    def test_deepsets_fits_group_task(self, synthetic_runs):
        _, results = synthetic_runs
        res = results[("add", "deepsets")][1]
        assert res.rmse["small"] < 0.1
        report(4, True, f"deepsets small rmse on add {res.rmse['small']:.2e} < 0.1")


class TestCriterion5SizeGeneralization:
    def test_unit_values_match_hand_computation(self):
        from abnn.abelian import SizeGenBound, size_generalization_bound

        assert size_generalization_bound(
            SizeGenBound(0.1, 2, 4, 1.0, 1.0)) == pytest.approx(0.3)
        assert size_generalization_bound(
            SizeGenBound(0.1, 2, 2, 1.0, 1.0)) == pytest.approx(0.1)
        assert size_generalization_bound(
            SizeGenBound(0.01, 3, 10, 2.0, 1.0)) == pytest.approx(0.43)

    def test_bound_holds_for_trained_model(self, synthetic_runs):
        _, results = synthetic_runs
        model, _ = results[("add", "agn")]
        splits = make_splits(TASKS["add"], SEED)
        large_sets = [ms for ms, _ in splits["large"]]
        out = size_generalization_check(
            model, TASKS["add"].fold, -5.0, 5.0, a=4, b=12, seed=SEED,
            large_sets=large_sets)
        assert out["holds"], out
        report(5, True,
               f"measured {out['measured']:.3g} <= bound {out['bound']:.3g} "
               f"(eps {out['epsilon']:.3g}, K1K2x1.5 "
               f"{out['k1'] * out['k2'] * out['inflate']:.3f})")


class TestCriterion6PolynomialOracle:
    def test_ten_thousand_polynomials(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        n_assoc = 0
        for i in range(10_000):
            p = planted_associative(rng) if i % 10 == 0 else random_symmetric_poly(rng)
            res = is_associative(p)
            out = classify(p)
            assert res.ok == isinstance(out, CanonicalForm)
            if res.ok:
                n_assoc += 1
                gap = out.alpha * out.gamma - out.beta * (out.beta - 1.0)
                assert abs(gap) < 1e-9
        # the three canonical shapes classify as themselves
        c = classify(SymPoly2(np.array([[5.0]])))
        assert c.kind == "constant" and c.alpha == pytest.approx(5.0)
        c = classify(SymPoly2(np.array([[1.0, 1.0], [1.0, 0.0]])))
        assert c.kind == "additive" and c.alpha == pytest.approx(1.0)
        c = classify(SymPoly2(np.array([[0.0, 1.0], [1.0, 0.5]])))
        assert c.kind == "bilinear"
        assert (c.beta, c.gamma) == (pytest.approx(1.0), pytest.approx(0.5))
        # x^2 + y^2 is rejected with a genuine witness
        sq = SymPoly2(np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float))
        out = classify(sq)
        assert isinstance(out, NotAssociative)
        x, y, z = out.witness
        assert abs(sq(sq(x, y), z) - sq(x, sq(y, z))) > 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report(6, True,
               f"10000 polynomials ({n_assoc} associative) agree, {elapsed:.1f}s")


def _run_analogy_pass(out_dir):
    table, relations, _ = build_synthetic_analogy_corpus(
        ANALOGY_RELATIONS, ANALOGY_PAIRS, d=ANALOGY_DIM, seed=SEED,
        flow_layers=2, hidden_dim=16, subnet_scale=ANALOGY_SCALE)
    assert len(table) == 2000 and table.dim == ANALOGY_DIM
    splits = prepare_analogy_splits(table, relations, seed=SEED,
                                    max_examples_per_category=ANALOGY_TRAIN_CAP)
    cfg = TrainConfig(seed=SEED, model="agn", **ANALOGY_CFG)
    model, losses = train_analogy("wv_agn", table, splits["train"], cfg)
    wv = evaluate_analogy("wv", None, table, splits["test"], exclude_abc=False)
    agn = evaluate_analogy("wv_agn", model, table, splits["test"],
                           exclude_abc=False)
    payload = {
        "wv_accuracy": wv["accuracy"],
        "agn_accuracy": agn["accuracy"],
        "loss_curve": losses,
        "config": cfg.to_dict(),
        "params": model.store.values.tolist(),
    }
    write_results_json(out_dir / "analogy.json", payload)
    return payload


@pytest.fixture(scope="module")
def analogy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion7")
    return out, _run_analogy_pass(out)


class TestCriterion7AnalogyPipeline:
    def test_group_model_beats_vector_arithmetic(self, analogy_run):
        _, payload = analogy_run
        gap = payload["agn_accuracy"] - payload["wv_accuracy"]
        assert gap >= 0.15, (
            f"wv {payload['wv_accuracy']:.3f}, agn {payload['agn_accuracy']:.3f}")
        report(7, True,
               f"wv {payload['wv_accuracy']:.3f} -> agn "
               f"{payload['agn_accuracy']:.3f} (gap {gap * 100:.1f} points)")


class TestCriterion8Determinism:
    def test_synthetic_rerun_bitwise(self, synthetic_runs, tmp_path):
        out1, first = synthetic_runs
        out2 = tmp_path / "rerun"
        out2.mkdir()
        second = _run_synthetic_pass(out2)
        for key, (m1, r1) in first.items():
            m2, r2 = second[key]
            assert np.array_equal(m1.store.values, m2.store.values), key
            assert r1.rmse == r2.rmse, key
            assert r1.loss_curve == r2.loss_curve, key

        def masked_csv(path):
            with open(path) as fh:
                return [{k: v for k, v in row.items() if k != "wall_clock_s"}
                        for row in csv.DictReader(fh)]

        assert masked_csv(out1 / "results.csv") == masked_csv(out2 / "results.csv")

        def masked_json(path):
            data = json.loads(path.read_text())
            for entry in data.values():
                entry.pop("wall_clock_s", None)
            return data

        assert masked_json(out1 / "results.json") == masked_json(out2 / "results.json")
        report(8, True, "criterion-4 rerun bitwise identical (part 1/2)")

    def test_analogy_rerun_bitwise(self, analogy_run, tmp_path):
        out1, first = analogy_run
        out2 = tmp_path / "rerun"
        out2.mkdir()
        second = _run_analogy_pass(out2)
        assert first["params"] == second["params"]
        assert first["loss_curve"] == second["loss_curve"]
        assert first["wv_accuracy"] == second["wv_accuracy"]
        assert first["agn_accuracy"] == second["agn_accuracy"]
        assert (out1 / "analogy.json").read_bytes() == \
               (out2 / "analogy.json").read_bytes()
        report(8, True, "criterion-7 rerun bitwise identical (part 2/2)")
