"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then
repeats one identical round of work in ``run_round``; the runner
repeats rounds until the measuring time is used up. Every round calls
only the stable, user-facing entry points of ``abnn`` (through their
modules, so a tracer can wrap them), checks the outputs, and returns a
:class:`Round` of measurements.

* ``synthetic-train``: the five desk-tuned reference runs for a fixed
  epoch count each, then ``evaluate`` on the small and large splits and
  single ``fold`` calls of the trained agn/add model. The four mono runs
  put the bisection inverse on the critical path with a small tape; the
  deepsets run has a large tape and no inversion.
* ``analogy-train``: the criterion-7 analogy construction at two seeds
  derived from the run's seed, each trained with
  ``train_analogy("wv_agn", ...)``, scored with ``evaluate_analogy`` and
  probed with single-query ``analogy_fn`` calls. Largest tape, and an
  analytic flow inverse: no monotone inversion at all.
* ``frozen-eval``: fixed parameters and no tape in the timed phase.
  ``fold_many`` over mono nets up to K=J=32, a flow and a deepsets model;
  1000 single folds; the size-generalization check; retrieval with the
  ground-truth flow; checkpoint round trips for every kind; one
  ``abnn analogy-eval`` CLI call; a ``classify`` batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from abnn import abelian, algebra, analogy, baseline, checkpoint, cli, harness, invertible

clock = time.perf_counter

SYNTHETIC_RUNS = (
    ("add", "agn"),
    ("cbrt_sum_cubes", "agn"),
    ("mul", "asn"),
    ("bilinear_half", "asn"),
    ("add", "deepsets"),
)
SYNTHETIC_EPOCHS = 8

# criterion-7 construction: 25 relations x 40 pairs, d=8, 2000 words
ANALOGY_CORPUS = dict(n_relations=25, pairs_per_relation=40, d=8,
                      flow_layers=2, hidden_dim=16, subnet_scale=1.5)
ANALOGY_TRAIN = dict(n_layers=3, hidden_dim=16, weight_decay=1e-4)
ANALOGY_TRAIN_CAP = 100
ANALOGY_EPOCHS = 2  # two, so the loss can be checked to fall
ANALOGY_PROBE = 500  # single-query predictions per corpus and round

FROZEN_MONO_SIZES = (3, 6, 32)  # K=J; 32 is the top of the search range
FROZEN_BATCH = 300  # multisets per fold_many model, sizes 2..12
FROZEN_SINGLE_FOLDS = 1000
FROZEN_TRAIN_EPOCHS = 30
FOLD_AGREE = 8  # multisets per model checked fold_many against fold
ROUND_TRIP_TOL = 1e-9  # criterion 2


@dataclass
class Round:
    train_steps: int = 0
    train_s: float = 0.0
    eval_items: int = 0
    eval_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    checkpoint_saves: int = 0


class Checks:
    """Counts checked operations and failures; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


def _steps(n_examples: int, cfg) -> int:
    return cfg.epochs * math.ceil(n_examples / cfg.batch_size)


def _check_losses(checks: Checks, losses, epochs: int, what: str) -> None:
    checks(len(losses) == epochs and all(math.isfinite(v) for v in losses),
           f"{what}: loss curve not finite or wrong length")
    checks(losses[-1] < losses[0], f"{what}: last epoch loss not below the first")


def _same_every_round(checks: Checks, first: dict, what: str, fingerprint) -> None:
    """Every round repeats identical work, so its results must repeat bit
    for bit, traced or not."""
    if what not in first:
        first[what] = fingerprint
    else:
        checks(first[what] == fingerprint, f"{what} differs from the first round")


class SyntheticTrain:
    def __init__(self, seed: int, workdir: str, checks: Checks):
        self.seed = seed
        self.checks = checks
        self.first: dict = {}

    def setup(self) -> Round:
        tasks = sorted({task for task, _ in SYNTHETIC_RUNS})
        self.splits = {t: harness.make_splits(harness.TASKS[t], self.seed) for t in tasks}
        return Round()

    def run_round(self) -> Round:
        r = Round()
        checks = self.checks
        large = []
        for task, kind in SYNTHETIC_RUNS:
            what = f"{kind}/{task}"
            data = self.splits[task]
            cfg = harness.TrainConfig(seed=self.seed, model=kind, epochs=SYNTHETIC_EPOCHS,
                                      **harness.REFERENCE_CONFIGS[(task, kind)])
            model = harness.build_model(cfg)
            t0 = clock()
            result = harness.train(model, data["train"], cfg)
            r.train_s += clock() - t0
            r.train_steps += _steps(len(data["train"]), cfg)
            _check_losses(checks, result.loss_curve, cfg.epochs, what)

            t0 = clock()
            rmse = {s: harness.evaluate(model, data[s]) for s in ("small", "large")}
            r.eval_s += clock() - t0
            r.eval_items += len(data["small"]) + len(data["large"])
            checks(all(math.isfinite(v) for v in rmse.values()), f"{what}: rmse not finite")
            large.append(rmse["large"])
            _same_every_round(checks, self.first, what,
                              (result.loss_curve, model.store.values.tobytes()))

            if (task, kind) == ("add", "agn"):
                for ms, _ in data["small"] + data["large"]:
                    t0 = clock()
                    model.fold(ms)
                    r.latencies_s.append(clock() - t0)
        r.quality["rmse_large_geomean"] = math.exp(np.mean(np.log(large)))
        return r


class AnalogyTrain:
    """Trains on two corpora per round: the backward pass skips nodes whose
    adjoint is zero, so the cost of a step depends on the corpus, and the
    figures of a single corpus spread too much from seed to seed."""

    def __init__(self, seed: int, workdir: str, checks: Checks):
        self.seed = seed
        self.checks = checks
        self.first: dict = {}

    def setup(self) -> Round:
        self.corpora = []
        for corpus_seed in (2 * self.seed, 2 * self.seed + 1):
            table, relations, _ = analogy.build_synthetic_analogy_corpus(
                seed=corpus_seed, **ANALOGY_CORPUS)
            splits = analogy.prepare_analogy_splits(
                table, relations, seed=corpus_seed,
                max_examples_per_category=ANALOGY_TRAIN_CAP)
            self.corpora.append((corpus_seed, table, splits))
        return Round()

    def run_round(self) -> Round:
        r = Round()
        for corpus_seed, table, splits in self.corpora:
            self._train_and_score(r, corpus_seed, table, splits)
        return r

    def _train_and_score(self, r: Round, corpus_seed: int, table, splits) -> None:
        checks = self.checks
        what = f"wv_agn on corpus {corpus_seed}"
        train, test = splits["train"], splits["test"]
        cfg = harness.TrainConfig(seed=corpus_seed, model="agn", epochs=ANALOGY_EPOCHS,
                                  **ANALOGY_TRAIN)
        t0 = clock()
        model, losses = analogy.train_analogy("wv_agn", table, train, cfg)
        r.train_s += clock() - t0
        r.train_steps += _steps(len(train), cfg)
        _check_losses(checks, losses, cfg.epochs, what)
        _same_every_round(checks, self.first, what, (losses, model.store.values.tobytes()))

        # every split, both ways, so a round times ~20k queries; the test
        # split with exclude_abc off gives the accuracy
        queries = [(splits[split], ex) for split in ("test", "validation", "train")
                   for ex in (False, True)]
        t0 = clock()
        reports = [analogy.evaluate_analogy("wv_agn", model, table, q, exclude_abc=ex)
                   for q, ex in queries]
        r.eval_s += clock() - t0
        r.eval_items += sum(len(q) for q, _ in queries)
        for rep, (q, _) in zip(reports, queries):
            checks(rep["n"] == len(q) and 0.0 <= rep["accuracy"] <= 1.0,
                   f"{what}: retrieval report malformed")
        r.quality.setdefault("retrieval_accuracy", reports[0]["accuracy"])

        probe = test[:ANALOGY_PROBE]
        rows = [tuple(table.lookup(w)[None] for w in (e.a, e.b, e.c)) for e in probe]
        preds = []
        for a, b, c in rows:
            t0 = clock()
            preds.append(analogy.analogy_fn("wv_agn", a, b, c, model=model))
            r.latencies_s.append(clock() - t0)
        batch = analogy.analogy_fn("wv_agn", *(np.concatenate(col) for col in zip(*rows)),
                                   model=model)
        # predictions reach 1e7 in norm, so the tolerance is relative to it
        gap = np.linalg.norm(np.concatenate(preds) - batch, axis=1)
        checks(np.all(gap <= ROUND_TRIP_TOL * np.maximum(np.linalg.norm(batch, axis=1), 1.0)),
               f"{what}: single-query analogy_fn disagrees with the batched call")


def _write_word2vec(path: str, table) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for tok, row in zip(table.vocab, table.matrix):
            fh.write(tok + " " + " ".join(repr(float(v)) for v in row) + "\n")


def _write_relations(directory: str, relations) -> None:
    os.makedirs(directory)
    for cat, pairs in relations.items():
        with open(os.path.join(directory, f"{cat}.tsv"), "w", encoding="utf-8") as fh:
            for w1, alts in pairs:
                fh.write(f"{w1}\t{'/'.join(alts)}\n")


def _polys(rng, n: int):
    """(SymPoly2, expected result kind): planted canonical forms and random
    symmetric quadratics, which are not associative."""
    out = []
    for i in range(n):
        kind = ("constant", "additive", "bilinear", "not_associative")[i % 4]
        if kind == "constant":
            grid = [[rng.normal()]]
        elif kind == "additive":
            grid = [[rng.normal(), 1.0], [1.0, 0.0]]
        elif kind == "bilinear":
            beta, gamma = rng.normal(), rng.uniform(0.5, 2.0)
            grid = [[beta * (beta - 1.0) / gamma, beta], [beta, gamma]]
        else:
            g = rng.normal(size=(3, 3))
            grid = g + g.T
        out.append((algebra.SymPoly2(np.asarray(grid, dtype=np.float64)), kind))
    return out


class FrozenEval:
    def __init__(self, seed: int, workdir: str, checks: Checks):
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.first: dict = {}

    def setup(self) -> Round:
        """Also trains the agn/add model; its Adam steps are the round's
        training figures, since the timed phase trains nothing."""
        seed = self.seed
        trained = Round()
        rng = np.random.default_rng(seed)
        self.fold_models = {}
        for tag, combiner in (("agn", "sum"), ("asn", "product")):
            for k in FROZEN_MONO_SIZES:
                net = invertible.MonotonicNet.initialized(k, k, rng)
                self.fold_models[f"{tag}_k{k}"] = abelian.AbelianOp(net, combiner)
        flow = invertible.CouplingFlow(8, 3, 16, rng, init="random")
        self.fold_models["agn_flow"] = abelian.AbelianOp(flow, "sum")
        self.fold_models["deepsets"] = baseline.DeepSetsModel(1, 2, 8, 8, rng)
        sizes = rng.integers(2, 13, size=FROZEN_BATCH)
        self.batch1 = [rng.uniform(-5.0, 5.0, size=int(m)) for m in sizes]
        self.batch8 = [rng.normal(size=(int(m), 8)) for m in sizes]

        # the agn/add model behind the single folds and the bound check
        add_splits = harness.make_splits(harness.TASKS["add"], seed)
        cfg = harness.TrainConfig(seed=seed, model="agn", epochs=FROZEN_TRAIN_EPOCHS,
                                  **harness.REFERENCE_CONFIGS[("add", "agn")])
        self.add_model = harness.build_model(cfg)
        t0 = clock()
        result = harness.train(self.add_model, add_splits["train"], cfg)
        trained.train_s = clock() - t0
        trained.train_steps = _steps(len(add_splits["train"]), cfg)
        _check_losses(self.checks, result.loss_curve, cfg.epochs, "set-up agn/add")
        self.large_sets = [ms for ms, _ in add_splits["large"]]
        self.singles = [rng.uniform(-5.0, 5.0, size=int(m))
                        for m in rng.integers(2, 13, size=FROZEN_SINGLE_FOLDS)]

        # retrieval inputs, and the files the CLI reads
        self.table, relations, gt_flow = analogy.build_synthetic_analogy_corpus(
            seed=seed, **ANALOGY_CORPUS)
        self.test = analogy.prepare_analogy_splits(self.table, relations, seed=seed)["test"]
        self.gt_op = abelian.AbelianOp(gt_flow, "sum")
        files = os.path.join(self.workdir, "setup")
        shutil.rmtree(files, ignore_errors=True)
        os.makedirs(files)
        self.embeddings = os.path.join(files, "vectors.txt")
        self.relations = os.path.join(files, "relations")
        self.gt_checkpoint = os.path.join(files, "gt.abnn")
        _write_word2vec(self.embeddings, self.table)
        _write_relations(self.relations, relations)
        checkpoint.save_checkpoint(self.gt_op, self.gt_checkpoint)

        self.checkpoint_models = {
            "agn-mono": self.fold_models["agn_k32"],
            "asn-mono": self.fold_models["asn_k32"],
            "agn-flow": self.fold_models["agn_flow"],
            "asn-flow": abelian.AbelianOp(flow, "product"),
            "deepsets": self.fold_models["deepsets"],
            "mlp": analogy.MlpModel(8, 2, 16, rng),
        }
        self.polys = _polys(rng, 200)
        return trained

    def run_round(self) -> Round:
        r = Round()
        checks = self.checks
        round_dir = os.path.join(self.workdir, "round")
        os.makedirs(round_dir)
        try:
            self._fold_many(r)
            self._single_folds(r)
            out = abelian.size_generalization_check(
                self.add_model, harness.TASKS["add"].fold, -5.0, 5.0, a=4, b=12,
                seed=self.seed, large_sets=self.large_sets)
            checks(out["holds"], f"size-generalization bound does not hold: {out}")
            gt_accuracy = self._retrieval()
            self._checkpoints(r, round_dir)
            self._cli(round_dir, gt_accuracy)
            for poly, kind in self.polys:
                form = algebra.classify(poly)
                got = "not_associative" if isinstance(form, algebra.NotAssociative) else form.kind
                checks(got == kind, f"classify gave {got}, expected {kind}")
        finally:
            shutil.rmtree(round_dir)
        return r

    def _fold_many(self, r: Round) -> None:
        checks = self.checks
        for name, model in self.fold_models.items():
            batch = self.batch8 if name == "agn_flow" else self.batch1
            t0 = clock()
            out = model.fold_many(batch)
            r.eval_s += clock() - t0
            r.eval_items += len(batch)
            checks(out.shape == (len(batch), model.d) and np.all(np.isfinite(out)),
                   f"{name}: fold_many output malformed")
            single = np.stack([model.fold(ms) for ms in batch[:FOLD_AGREE]])
            checks(np.allclose(single, out[:FOLD_AGREE], rtol=ROUND_TRIP_TOL,
                               atol=ROUND_TRIP_TOL),
                   f"{name}: fold_many disagrees with fold")
            _same_every_round(checks, self.first, f"{name} fold_many", out.tobytes())

    def _single_folds(self, r: Round) -> None:
        model = self.add_model
        outs = []
        for ms in self.singles:
            t0 = clock()
            outs.append(model.fold(ms))
            r.latencies_s.append(clock() - t0)
        # phi(fold(X)) must equal the sum of phi over X
        phi = model.phi
        z = np.array([np.sum(phi.forward(ms)) for ms in self.singles])
        err = np.max(np.abs(phi.forward(np.concatenate(outs)) - z))
        self.checks(err < ROUND_TRIP_TOL, f"fold round trip error {err:.3g}")

    def _retrieval(self) -> float:
        checks = self.checks
        gt_accuracy = None
        for kind, model in (("wv", None), ("wv_agn", self.gt_op)):
            for exclude in (False, True):
                rep = analogy.evaluate_analogy(kind, model, self.table, self.test,
                                               exclude_abc=exclude)
                checks(rep["n"] == len(self.test), f"{kind} retrieval report malformed")
                if model is not None:
                    checks(rep["accuracy"] == 1.0,
                           f"ground-truth flow accuracy {rep['accuracy']} != 1.0")
                    if not exclude:
                        gt_accuracy = rep["accuracy"]
        return gt_accuracy

    def _checkpoints(self, r: Round, round_dir: str) -> None:
        checks = self.checks
        for kind, model in self.checkpoint_models.items():
            path = os.path.join(round_dir, f"{kind}.abnn")
            for _ in ("fresh", "overwrite"):
                checkpoint.save_checkpoint(model, path)
                loaded = checkpoint.load_checkpoint(path, expected_kind=kind)
                checks(loaded.kind == kind
                       and loaded.store.values.tobytes() == model.store.values.tobytes(),
                       f"{kind} checkpoint did not reload bit for bit")
                r.checkpoint_saves += 1
                r.checkpoint_bytes += os.path.getsize(path)

    def _cli(self, round_dir: str, gt_accuracy: float) -> None:
        out = os.path.join(round_dir, "cli")
        argv = ["analogy-eval", "--embeddings", self.embeddings,
                "--relations", self.relations, "--kind", "agn",
                "--model", self.gt_checkpoint, "--seed", str(self.seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        ok = self.checks(code == 0, f"abnn analogy-eval exited {code}")
        if ok:
            with open(os.path.join(out, "report.json")) as fh:
                accuracy = json.load(fh)["accuracy"]
            self.checks(accuracy == gt_accuracy,
                        f"CLI accuracy {accuracy} != in-process {gt_accuracy}")


WORKLOADS = {
    "synthetic-train": SyntheticTrain,
    "analogy-train": AnalogyTrain,
    "frozen-eval": FrozenEval,
}
