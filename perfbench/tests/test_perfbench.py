"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They check that tracing changes no result, that the exact counts repeat
between runs, that a vanished trace target is reported absent instead of
failing, that ``BENCHMARK.json`` names what the code prints, and that the
benchmark fails without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from abnn import analogy, harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _train_synthetic(task, kind, tracer):
    cfg = harness.TrainConfig(seed=SEED, model=kind, epochs=2,
                              **harness.REFERENCE_CONFIGS[(task, kind)])
    data = harness.make_splits(harness.TASKS[task], SEED)["train"]
    model = harness.build_model(cfg)
    if tracer:
        tracer.install("timed")
    try:
        result = harness.train(model, data, cfg)
    finally:
        if tracer:
            tracer.uninstall()
    return result.loss_curve, model.store.values.tobytes()


@pytest.mark.parametrize("task,kind", [("add", "agn"), ("mul", "asn"), ("add", "deepsets")])
def test_tracing_leaves_synthetic_training_bitwise_unchanged(task, kind):
    tracer = spans.Tracer(layers.TARGETS)
    assert _train_synthetic(task, kind, tracer) == _train_synthetic(task, kind, None)
    assert tracer.calls("timed", "adam_step") == 2 * 16
    assert tracer.calls("timed", "Tape.backward") == 2 * 16


def test_tracing_leaves_analogy_training_bitwise_unchanged():
    table, relations, _ = analogy.build_synthetic_analogy_corpus(
        seed=SEED, **workloads.ANALOGY_CORPUS)
    train = analogy.prepare_analogy_splits(table, relations, seed=SEED)["train"][:64]
    cfg = harness.TrainConfig(seed=SEED, model="agn", epochs=2, **workloads.ANALOGY_TRAIN)

    def fit(tracer):
        if tracer:
            tracer.install("timed")
        try:
            model, losses = analogy.train_analogy("wv_agn", table, train, cfg)
        finally:
            if tracer:
                tracer.uninstall()
        return losses, model.store.values.tobytes()

    tracer = spans.Tracer(layers.TARGETS)
    assert fit(tracer) == fit(None)
    assert tracer.calls("timed", "CouplingFlow.inverse_on_tape") > 0


def test_uninstall_restores_every_target():
    originals = {}
    for t in layers.TARGETS:
        owner, attr, fn = spans._resolve(t.where)
        originals[t.where] = fn
    tracer = spans.Tracer(layers.TARGETS)
    tracer.install("timed")
    tracer.uninstall()
    for t in layers.TARGETS:
        assert spans._resolve(t.where)[2] is originals[t.where]


def _run(workdir, workload, trace):
    workdir.mkdir()
    return run.run_benchmark(workload, SEED, 0.0, trace, str(workdir))


def test_exact_counts_repeat_between_runs(tmp_path):
    counts = []
    for i in range(2):
        result, summary = _run(tmp_path / str(i), "synthetic-train", True)
        assert result["correct"] and summary["absent"] == []
        m = result["metrics"]
        counts.append((m["numcore.tape.nodes_per_step"]["value"],
                       m["invertible.mono.forward_calls_per_inverse"]["value"]))
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0])


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    result, _ = _run(tmp_path / "run", "synthetic-train", False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_vanished_target_is_reported_absent(tmp_path):
    targets = [t for t in layers.TARGETS if t.name != "Tape.backward"]
    targets.append(spans.Target("abnn.numcore:NoSuchTape.backward", "Tape.backward"))
    targets.append(spans.Target("abnn.no_such_module:f", "Tape.backward"))
    tracer = spans.Tracer(targets)
    tracer.install("timed")
    tracer.uninstall()
    assert tracer.missing == {"Tape.backward"}
    ctx = layers.Context(tracer=tracer, traced_s=1.0, quality={}, checkpoint_bytes=0.0,
                         overhead_frac=0.0, predict_p99_ms=1.0)
    metrics = layers.per_layer_metrics(ctx)
    assert metrics["numcore.tape.nodes_per_step"]["value"] is None
    assert metrics["numcore.backward.ms_per_step"]["value"] is None
    assert metrics["numcore.adam.us_per_step"]["value"] == 0.0
    json.dumps(metrics)


def test_benchmark_json_names_what_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(m.name, m.unit) for m in layers.PER_LAYER]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frozen-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
