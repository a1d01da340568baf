"""Traced targets and the per-layer metrics computed from their spans.

``TARGETS`` are the public abnn functions and methods the traced run
wraps. ``PER_LAYER`` lists every per-layer metric with its unit, the
targets it needs (absent when one is gone), how it is computed, and the
end-to-end metric and workload it is expected to move. Times come from
the traced rounds of the timed phase unless the metric says set-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import Target, Tracer

TIMED, SETUP = "timed", "setup"


def _model_tag(op, *args, **kwargs) -> str | None:
    """agn_k3 / asn_k32 / agn_flow for an AbelianOp."""
    phi = getattr(op, "phi", None)
    combiner = getattr(op, "combiner", None)
    if phi is None or combiner is None:
        return None
    prefix = "agn" if combiner == "sum" else "asn"
    k = getattr(phi, "k_groups", None)
    return f"{prefix}_k{k}" if k is not None else f"{prefix}_{getattr(phi, 'kind', 'phi')}"


def _rows(self, x, *args, **kwargs) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _multisets(self, multisets, *args, **kwargs) -> int:
    return len(multisets)


def _save_tag(model, path, *args, **kwargs) -> str:
    return "overwrite" if os.path.exists(path) else "fresh"


TARGETS = [
    Target("abnn.numcore:Tape.backward", "Tape.backward",
           size=lambda tape, *a, **k: len(tape)),
    Target("abnn.harness:adam_step", "adam_step"),
    Target("abnn.analogy:adam_step", "adam_step"),
    Target("abnn.harness:mse_on_tape", "loss"),
    Target("abnn.analogy:cosine_on_tape", "loss"),
    Target("abnn.invertible:MonotonicNet.inverse_batch", "MonotonicNet.inverse_batch",
           tag=lambda net, *a, **k: f"k{getattr(net, 'k_groups', '')}",
           size=lambda net, ys, *a, **k: int(np.size(ys))),
    Target("abnn.invertible:MonotonicNet.forward", "MonotonicNet.forward", count_only=True),
    Target("abnn.invertible:MonotonicNet.active_units", "MonotonicNet.active_units"),
    Target("abnn.invertible:Mlp.forward_on_tape", "Mlp.forward_on_tape"),
    Target("abnn.invertible:CouplingFlow.forward_on_tape", "CouplingFlow.forward_on_tape"),
    Target("abnn.invertible:CouplingFlow.inverse_on_tape", "CouplingFlow.inverse_on_tape"),
    Target("abnn.invertible:CouplingFlow.forward", "CouplingFlow.forward", size=_rows),
    Target("abnn.invertible:CouplingFlow.inverse", "CouplingFlow.inverse", size=_rows),
    Target("abnn.abelian:AbelianOp.fold_batch_on_tape", "AbelianOp.fold_batch_on_tape"),
    Target("abnn.abelian:AbelianOp.fold_many", "AbelianOp.fold_many",
           tag=_model_tag, size=_multisets),
    Target("abnn.abelian:AbelianOp.fold", "AbelianOp.fold"),
    Target("abnn.abelian:size_generalization_check", "size_check"),
    Target("abnn.abelian:estimate_lipschitz", "estimate"),
    Target("abnn.abelian:estimate_inverse_lipschitz", "estimate"),
    Target("abnn.baseline:DeepSetsModel.fold_batch_on_tape", "DeepSetsModel.fold_batch_on_tape"),
    Target("abnn.baseline:DeepSetsModel.fold_many", "DeepSetsModel.fold_many",
           size=_multisets),
    Target("abnn.harness:make_splits", "make_splits"),
    Target("abnn.harness:train", "harness.train"),
    Target("abnn.harness:evaluate", "harness.evaluate"),
    Target("abnn.checkpoint:save_checkpoint", "save_checkpoint", tag=_save_tag),
    Target("abnn.checkpoint:load_checkpoint", "load_checkpoint"),
    Target("abnn.cli:load_checkpoint", "load_checkpoint"),
    Target("abnn.analogy:build_synthetic_analogy_corpus", "corpus"),
    Target("abnn.analogy:prepare_analogy_splits", "prepare_splits"),
    Target("abnn.analogy:evaluate_analogy", "evaluate_analogy",
           size=lambda kind, model, table, test, *a, **k: len(test)),
    Target("abnn.analogy:analogy_fn", "analogy_fn"),
    Target("abnn.analogy:load_embeddings", "load_embeddings"),
    Target("abnn.algebra:classify", "classify"),
    Target("abnn.cli:main", "cli.main"),
]


@dataclass
class Context:
    """What a per-layer metric reads: the tracer, the wall time of the
    traced rounds, workload figures averaged over those rounds, and the
    latency tail of the untraced rounds."""

    tracer: Tracer
    traced_s: float
    quality: dict
    checkpoint_bytes: float
    overhead_frac: float
    predict_p99_ms: float

    def per(self, a, b) -> float:
        return a / b if b else 0.0

    def s(self, name, phase=TIMED) -> float:
        return self.tracer.seconds(phase, name)

    def self_s(self, name) -> float:
        return self.tracer.self_seconds(TIMED, name)

    def calls(self, name, phase=TIMED) -> int:
        return self.tracer.calls(phase, name)

    def items(self, name) -> int:
        return self.tracer.items(TIMED, name)

    def edge(self, parent, name):
        return self.tracer.edge(TIMED, parent, name)

    @property
    def steps(self) -> int:
        return self.calls("adam_step")

    def ms_per_step(self, name) -> float:
        return 1e3 * self.per(self.s(name), self.steps)

    def ms_per_call(self, name, phase=TIMED) -> float:
        return 1e3 * self.per(self.s(name, phase), self.calls(name, phase))

    def us_per_item(self, name) -> float:
        return 1e6 * self.per(self.s(name), self.items(name))

    def share(self, name) -> float:
        return self.per(self.s(name), self.traced_s)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple
    value: Callable[[Context], float]
    moves: str  # end-to-end metric @ workload(s) it should move


IB = "MonotonicNet.inverse_batch"
SYN, ANA, FRZ = "synthetic-train", "analogy-train", "frozen-eval"

PER_LAYER = [
    LayerMetric("numcore.backward.ms_per_step", "ms", ("Tape.backward", "adam_step"),
                lambda c: c.ms_per_step("Tape.backward"),
                f"train_steps_per_s @ {ANA}, {SYN} (deepsets most)"),
    LayerMetric("numcore.backward.share", "ratio", ("Tape.backward",),
                lambda c: c.share("Tape.backward"), f"train_steps_per_s @ {ANA}, {SYN}"),
    LayerMetric("numcore.tape.nodes_per_step", "count", ("Tape.backward",),
                lambda c: c.per(c.items("Tape.backward"), c.calls("Tape.backward")),
                f"train_steps_per_s @ {ANA}, {SYN}"),
    LayerMetric("numcore.adam.us_per_step", "us", ("adam_step",),
                lambda c: 1e6 * c.per(c.s("adam_step"), c.steps),
                f"train_steps_per_s @ {SYN}, {ANA} (predicted too small to matter)"),
    LayerMetric("numcore.loss.ms_per_step", "ms", ("loss", "adam_step"),
                lambda c: c.ms_per_step("loss"),
                f"train_steps_per_s @ {SYN}, {ANA} (predicted too small to matter)"),
    LayerMetric("invertible.mono.inverse_batch.ms_per_call", "ms", (IB,),
                lambda c: c.ms_per_call(IB),
                f"train_steps_per_s @ {SYN}; eval_items_per_s, predict_p50_ms, wall_s @ {FRZ}"),
    LayerMetric("invertible.mono.inverse_batch.share", "ratio", (IB,),
                lambda c: c.share(IB), f"train_steps_per_s @ {SYN}; wall_s @ {FRZ}"),
    LayerMetric("invertible.mono.forward_calls_per_inverse", "count",
                (IB, "MonotonicNet.forward"),
                lambda c: c.per(c.edge(IB, "MonotonicNet.forward")[0], c.calls(IB)),
                f"train_steps_per_s @ {SYN}; eval_items_per_s, predict_p50_ms @ {FRZ}"),
    *[LayerMetric(f"invertible.mono.inverse_batch.us_per_target.k{k}", "us", (IB,),
                  lambda c, k=k: c.us_per_item(f"{IB}.k{k}"), f"eval_items_per_s @ {FRZ}")
      for k in (3, 6, 32)],
    LayerMetric("invertible.mono.active_units.ms_per_step", "ms",
                ("MonotonicNet.active_units", "adam_step"),
                lambda c: c.ms_per_step("MonotonicNet.active_units"),
                f"train_steps_per_s @ {SYN}"),
    LayerMetric("invertible.mlp.forward_on_tape.ms_per_step", "ms",
                ("Mlp.forward_on_tape", "adam_step"),
                lambda c: c.ms_per_step("Mlp.forward_on_tape"),
                f"train_steps_per_s @ {SYN} (deepsets), {ANA}"),
    LayerMetric("invertible.flow.forward_on_tape.ms_per_step", "ms",
                ("CouplingFlow.forward_on_tape", "adam_step"),
                lambda c: c.ms_per_step("CouplingFlow.forward_on_tape"),
                f"train_steps_per_s @ {ANA}"),
    LayerMetric("invertible.flow.inverse_on_tape.ms_per_step", "ms",
                ("CouplingFlow.inverse_on_tape", "adam_step"),
                lambda c: c.ms_per_step("CouplingFlow.inverse_on_tape"),
                f"train_steps_per_s @ {ANA}"),
    LayerMetric("invertible.flow.forward.us_per_row", "us", ("CouplingFlow.forward",),
                lambda c: c.us_per_item("CouplingFlow.forward"),
                f"eval_items_per_s @ {ANA}, {FRZ}; predict_p50_ms @ {ANA}"),
    LayerMetric("invertible.flow.inverse.us_per_row", "us", ("CouplingFlow.inverse",),
                lambda c: c.us_per_item("CouplingFlow.inverse"),
                f"eval_items_per_s @ {ANA}, {FRZ}; predict_p50_ms @ {ANA}"),
    LayerMetric("abelian.fold_batch_on_tape.self_ms_per_step", "ms",
                ("AbelianOp.fold_batch_on_tape", IB, "MonotonicNet.active_units", "adam_step"),
                lambda c: 1e3 * c.per(c.self_s("AbelianOp.fold_batch_on_tape"), c.steps),
                f"train_steps_per_s @ {SYN}"),
    *[LayerMetric(f"abelian.fold_many.us_per_multiset.{tag}", "us", ("AbelianOp.fold_many",),
                  lambda c, tag=tag: c.us_per_item(f"AbelianOp.fold_many.{tag}"),
                  f"eval_items_per_s @ {FRZ}")
      for tag in ("agn_k3", "agn_k6", "agn_k32", "asn_k3", "asn_k6", "asn_k32", "agn_flow")],
    LayerMetric("abelian.fold.us_per_call", "us", ("AbelianOp.fold",),
                lambda c: 1e6 * c.per(c.s("AbelianOp.fold"), c.calls("AbelianOp.fold")),
                f"predict_p50_ms, predict_p99_ms @ {FRZ}, {SYN}"),
    LayerMetric("abelian.size_check.s_per_call", "s", ("size_check",),
                lambda c: c.per(c.s("size_check"), c.calls("size_check")),
                f"wall_s @ {FRZ}"),
    LayerMetric("abelian.size_check.estimate_ms", "ms", ("size_check", "estimate"),
                lambda c: 1e3 * c.per(c.edge("size_check", "estimate")[1],
                                      c.calls("size_check")),
                f"wall_s @ {FRZ}"),
    LayerMetric("abelian.size_check.fold_share", "ratio", ("size_check", "AbelianOp.fold"),
                lambda c: c.per(c.edge("size_check", "AbelianOp.fold")[1], c.s("size_check")),
                f"wall_s @ {FRZ}"),
    LayerMetric("baseline.fold_batch_on_tape.self_ms_per_step", "ms",
                ("DeepSetsModel.fold_batch_on_tape", "Mlp.forward_on_tape", "adam_step"),
                lambda c: 1e3 * c.per(c.self_s("DeepSetsModel.fold_batch_on_tape"), c.steps),
                f"train_steps_per_s @ {SYN}"),
    LayerMetric("baseline.fold_many.us_per_multiset", "us", ("DeepSetsModel.fold_many",),
                lambda c: c.us_per_item("DeepSetsModel.fold_many"),
                f"eval_items_per_s @ {FRZ}"),
    LayerMetric("harness.make_splits.ms", "ms", ("make_splits",),
                lambda c: c.ms_per_call("make_splits", SETUP), f"setup_s @ {SYN}, {FRZ}"),
    LayerMetric("harness.evaluate.ms", "ms", ("harness.evaluate",),
                lambda c: c.ms_per_call("harness.evaluate"),
                f"eval_items_per_s, wall_s @ {SYN}"),
    LayerMetric("harness.train.unattributed_share", "ratio",
                ("harness.train", "AbelianOp.fold_batch_on_tape",
                 "DeepSetsModel.fold_batch_on_tape", "loss", "Tape.backward", "adam_step"),
                lambda c: c.per(c.self_s("harness.train"), c.s("harness.train")),
                f"train_steps_per_s @ {SYN}"),
    LayerMetric("checkpoint.save.ms", "ms", ("save_checkpoint",),
                lambda c: c.ms_per_call("save_checkpoint.fresh"), f"wall_s @ {FRZ}"),
    LayerMetric("checkpoint.save_overwrite.ms", "ms", ("save_checkpoint",),
                lambda c: c.ms_per_call("save_checkpoint.overwrite"), f"wall_s @ {FRZ}"),
    LayerMetric("checkpoint.load.ms", "ms", ("load_checkpoint",),
                lambda c: c.ms_per_call("load_checkpoint"), f"wall_s @ {FRZ}"),
    LayerMetric("checkpoint.bytes", "bytes", (),
                lambda c: c.checkpoint_bytes, f"wall_s @ {FRZ}"),
    LayerMetric("analogy.corpus.ms", "ms", ("corpus",),
                lambda c: c.ms_per_call("corpus", SETUP), f"setup_s @ {ANA}, {FRZ}"),
    LayerMetric("analogy.prepare_splits.ms", "ms", ("prepare_splits",),
                lambda c: c.ms_per_call("prepare_splits", SETUP), f"setup_s @ {ANA}, {FRZ}"),
    LayerMetric("analogy.evaluate.ms_per_query", "ms", ("evaluate_analogy",),
                lambda c: 1e3 * c.per(c.s("evaluate_analogy"), c.items("evaluate_analogy")),
                f"eval_items_per_s @ {ANA}; wall_s @ {FRZ}"),
    LayerMetric("analogy.analogy_fn.share", "ratio", ("evaluate_analogy", "analogy_fn"),
                lambda c: c.per(c.edge("evaluate_analogy", "analogy_fn")[1],
                                c.s("evaluate_analogy")),
                f"eval_items_per_s @ {ANA}; wall_s @ {FRZ}"),
    LayerMetric("analogy.load_embeddings.ms", "ms", ("load_embeddings",),
                lambda c: c.ms_per_call("load_embeddings"), f"wall_s @ {FRZ}"),
    LayerMetric("algebra.classify.us_per_poly", "us", ("classify",),
                lambda c: 1e6 * c.per(c.s("classify"), c.calls("classify")),
                f"wall_s @ {FRZ}"),
    LayerMetric("cli.analogy_eval.self_ms", "ms",
                ("cli.main", "load_embeddings", "prepare_splits", "load_checkpoint",
                 "evaluate_analogy"),
                lambda c: 1e3 * c.per(c.self_s("cli.main"), c.calls("cli.main")),
                f"wall_s @ {FRZ}"),
    LayerMetric("quality.rmse_large_geomean", "1", (),
                lambda c: c.quality.get("rmse_large_geomean", 0.0),
                f"none: model quality after the benchmark's short training @ {SYN}"),
    LayerMetric("quality.retrieval_accuracy", "ratio", (),
                lambda c: c.quality.get("retrieval_accuracy", 0.0),
                f"none: model quality after the benchmark's short training @ {ANA}"),
    LayerMetric("predict.p99_ms", "ms", (),
                lambda c: c.predict_p99_ms,
                "none: tail of predict_p50_ms's samples, from the untraced rounds; "
                "it is bimodal across seeds while the mono inverse may need extra "
                "refinement rounds, so it carries no bound"),
    LayerMetric("trace.overhead_frac", "ratio", (),
                lambda c: c.overhead_frac, "none: traced against untraced round wall time"),
]


def per_layer_metrics(ctx: Context) -> dict:
    """{name: {"value": number or None, "unit": unit}}; None marks a metric
    whose traced target no longer exists."""
    out = {}
    for m in PER_LAYER:
        absent = any(name in ctx.tracer.missing for name in m.needs)
        out[m.name] = {"value": None if absent else float(m.value(ctx)), "unit": m.unit}
    return out
