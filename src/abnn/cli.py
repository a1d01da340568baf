"""Command-line frontend.

Subcommands: ``synthetic`` (train and evaluate on a generated task),
``search`` (seeded random hyperparameter search), ``classify-poly``
(canonical-form classification of a symmetric coefficient grid),
``analogy-train`` / ``analogy-eval`` (word-analogy pipeline), and
``bound`` (the multiset size-generalization bound).

Option precedence is flags > config file > per-task reference defaults >
built-in defaults; every run echoes its resolved configuration to the
output directory so results can be reproduced from the echo alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import analogy as ana
from .algebra import NotAssociative, SymPoly2, classify
from .abelian import SizeGenBound, size_generalization_bound
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .harness import (
    REFERENCE_CONFIGS,
    TASKS,
    SearchSpace,
    TrainConfig,
    make_splits,
    random_search,
    run_experiment,
    write_results_csv,
    write_results_json,
)
from .numcore import DivergedError

_CONFIG_FIELDS = {f.name for f in fields(TrainConfig)}


def _fail(parser, message: str):
    parser.exit(2, f"error: {message}\n")


def _load_config_file(parser, path):
    if path is None:
        return {}
    if not os.path.exists(path):
        _fail(parser, f"config file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:  # a directory, no read permission
        _fail(parser, f"cannot read config file {path}: {err.strerror}")
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        _fail(parser, f"config file {path} is not valid JSON: {err}")
    if not isinstance(data, dict):
        _fail(parser, f"config file {path} must hold a JSON object, "
                      f"not {type(data).__name__}")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        _fail(parser, f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve_config(parser, args, model: str, task: str | None = None,
                    defaults: dict | None = None) -> TrainConfig:
    """flags > --config file > reference defaults for (task, model) > defaults."""
    merged: dict = dict(defaults or {})
    merged["model"] = model
    if task is not None:
        merged.update(REFERENCE_CONFIGS.get((task, model), {}))
    merged.update(_load_config_file(parser, args.config))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
    merged["model"] = model
    try:
        return TrainConfig(**merged)
    except (TypeError, ValueError) as err:
        _fail(parser, f"invalid config: {err}")


def _ensure_out(args, default_name: str) -> str:
    out = args.out or os.path.join("runs", default_name)
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(out: str, payload: dict) -> None:
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="run seed")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--config", default=None, help="JSON config file")


def _add_train_flags(sub):
    sub.add_argument("--epochs", type=int, default=None)
    sub.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--weight-decay", type=float, default=None, dest="weight_decay")
    sub.add_argument("--k-groups", type=int, default=None, dest="k_groups")
    sub.add_argument("--j-units", type=int, default=None, dest="j_units")
    sub.add_argument("--layers", type=int, default=None, dest="n_layers")
    sub.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim")
    sub.add_argument("--middle-dim", type=int, default=None, dest="middle_dim")


def cmd_synthetic(parser, args) -> int:
    for name in args.task.split(","):
        if name not in TASKS:
            _fail(parser, f"unknown task {name!r}; valid tasks: {', '.join(sorted(TASKS))}")
    models = args.model.split(",")
    for m in models:
        if m not in ("agn", "asn", "deepsets"):
            _fail(parser, f"unknown model {m!r}; valid models: agn, asn, deepsets")
    tasks = args.task.split(",")
    seed = _resolve_config(parser, args, models[0], tasks[0]).seed
    out = _ensure_out(args, f"synthetic-{'-'.join(tasks)}-seed{seed}")
    rows = []
    log = {}
    echo = {}
    for task_name in tasks:
        task = TASKS[task_name]
        for model_name in models:
            cfg = _resolve_config(parser, args, model_name, task_name)
            try:
                model, result = run_experiment(task, cfg)
            except DivergedError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            for split in ("small", "large"):
                rows.append((task_name, model_name, split, result.rmse[split],
                             seed, result.wall_clock_s))
            log[f"{task_name}/{model_name}"] = {
                "rmse": result.rmse,
                "loss_curve": result.loss_curve,
                "wall_clock_s": result.wall_clock_s,
                "config": result.config,
            }
            echo[f"{task_name}/{model_name}"] = result.config
            save_checkpoint(model, os.path.join(out, f"{task_name}-{model_name}.abnn"))
            print(f"{task_name} {model_name}: small rmse {result.rmse['small']:.6g}, "
                  f"large rmse {result.rmse['large']:.6g}")
    write_results_csv(os.path.join(out, "results.csv"), rows)
    write_results_json(os.path.join(out, "results.json"), log)
    _echo_config(out, echo)
    return 0


def cmd_search(parser, args) -> int:
    if args.task not in TASKS:
        _fail(parser, f"unknown task {args.task!r}; valid tasks: {', '.join(sorted(TASKS))}")
    if args.model not in ("agn", "asn", "deepsets"):
        _fail(parser, f"unknown model {args.model!r}")
    task = TASKS[args.task]
    base = _resolve_config(parser, args, args.model, args.task)
    seed = base.seed
    out = _ensure_out(args, f"search-{args.task}-{args.model}-seed{seed}")
    splits = make_splits(task, seed)
    try:
        best, log = random_search(SearchSpace(args.model), args.trials, base,
                                  splits["train"], splits["validation"],
                                  seed=seed, threads=args.threads)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "trials.csv"), "w") as fh:
        fh.write("trial,seed,k_groups,j_units,n_layers,hidden_dim,middle_dim,val_rmse\n")
        for i, (cfg, score) in enumerate(log):
            fh.write(f"{i},{cfg.seed},{cfg.k_groups},{cfg.j_units},"
                     f"{cfg.n_layers},{cfg.hidden_dim},{cfg.middle_dim},{score!r}\n")
    write_results_json(os.path.join(out, "best_config.json"), best.to_dict())
    _echo_config(out, {"base": base.to_dict(), "trials": args.trials,
                       "model": args.model, "task": args.task, "seed": seed})
    print(f"best validation rmse {min(s for _, s in log):.6g} "
          f"with config {best.to_dict()}")
    return 0


def _parse_grid(parser, text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        _fail(parser, f"cannot parse coefficient grid {text!r}")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        _fail(parser, "coefficient grid must be square "
                      "(rows separated by ';', entries by ',')")
    return np.array(rows)


def cmd_classify_poly(parser, args) -> int:
    grid = _parse_grid(parser, args.coeffs)
    poly = SymPoly2(grid)
    if not poly.is_symmetric():
        _fail(parser, "coefficient grid is not symmetric")
    form = classify(poly)
    if isinstance(form, NotAssociative):
        x, y, z = form.witness
        print(f"NotAssociative witness=({x:.6g},{y:.6g},{z:.6g}) "
              f"gap={form.witness_gap:.6g}")
        payload = {"result": "NotAssociative", "witness": [x, y, z],
                   "witness_gap": form.witness_gap}
    else:
        desc = {
            "constant": f"Constant alpha={form.alpha:.6g}",
            "additive": f"Additive alpha={form.alpha:.6g}",
            "bilinear": f"Bilinear beta={form.beta:.6g} gamma={form.gamma:.6g}",
        }[form.kind]
        print(desc)
        payload = {"result": form.kind, "alpha": form.alpha,
                   "beta": form.beta, "gamma": form.gamma}
    if args.out:
        out = _ensure_out(args, "classify-poly")
        write_results_json(os.path.join(out, "classification.json"), payload)
        _echo_config(out, {"coeffs": args.coeffs})
    return 0


def _load_analogy_inputs(parser, args, seed: int):
    if not os.path.exists(args.embeddings):
        _fail(parser, f"embeddings file not found: {args.embeddings}")
    if not os.path.exists(args.relations):
        _fail(parser, f"relations path not found: {args.relations}")
    try:
        table = ana.load_embeddings(args.embeddings, normalize=args.normalize)
        relations = ana.load_relation_pairs(args.relations)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(1) from None
    splits = ana.prepare_analogy_splits(table, relations, seed=seed)
    return table, splits


_KIND_MAP = {"wv": "wv", "mlp": "wv_mlp", "agn": "wv_agn"}
_CKPT_KIND = {"wv_mlp": "mlp", "wv_agn": "agn-flow"}


def cmd_analogy_train(parser, args) -> int:
    if args.kind not in ("mlp", "agn"):
        _fail(parser, f"unknown trainable kind {args.kind!r}; expected mlp or agn")
    kind = _KIND_MAP[args.kind]
    cfg = _resolve_config(parser, args, args.kind, defaults={"epochs": 100})
    seed = cfg.seed
    table, splits = _load_analogy_inputs(parser, args, seed)
    if not splits["train"]:
        print("error: no training examples survived vocabulary filtering",
              file=sys.stderr)
        return 1
    out = _ensure_out(args, f"analogy-train-{args.kind}-seed{seed}")
    try:
        model, losses = ana.train_analogy(kind, table, splits["train"], cfg)
    except DivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    val = ana.evaluate_analogy(kind, model, table, splits["validation"],
                               exclude_abc=args.exclude_abc)
    save_checkpoint(model, os.path.join(out, "model.abnn"))
    write_results_json(os.path.join(out, "training.json"), {
        "kind": kind, "loss_curve": losses,
        "validation_accuracy": val["accuracy"], "config": cfg.to_dict(),
    })
    _echo_config(out, {"kind": kind, "config": cfg.to_dict(),
                       "embeddings": args.embeddings,
                       "relations": args.relations,
                       "normalize": args.normalize,
                       "exclude_abc": args.exclude_abc})
    print(f"trained {kind}: final loss {losses[-1] if losses else float('nan'):.6g}, "
          f"validation accuracy {val['accuracy']:.4f}")
    return 0


def cmd_analogy_eval(parser, args) -> int:
    if args.kind not in _KIND_MAP:
        _fail(parser, f"unknown kind {args.kind!r}; expected wv, mlp, or agn")
    kind = _KIND_MAP[args.kind]
    seed = _resolve_config(parser, args, args.kind).seed
    table, splits = _load_analogy_inputs(parser, args, seed)
    model = None
    if kind != "wv":
        if args.model_path is None:
            _fail(parser, f"kind {args.kind} needs --model with a checkpoint")
        if not os.path.exists(args.model_path):
            _fail(parser, f"checkpoint not found: {args.model_path}")
        try:
            model = load_checkpoint(args.model_path, expected_kind=_CKPT_KIND[kind])
        except (CheckpointError, OSError) as err:
            _fail(parser, f"cannot load checkpoint {args.model_path}: {err}")
    test = splits["test"]
    if not test:
        print("error: no test examples survived vocabulary filtering",
              file=sys.stderr)
        return 1
    report = ana.evaluate_analogy(kind, model, table, test,
                                  exclude_abc=args.exclude_abc)
    out = _ensure_out(args, f"analogy-eval-{args.kind}-seed{seed}")
    write_results_json(os.path.join(out, "report.json"), report)
    _echo_config(out, {"kind": kind, "embeddings": args.embeddings,
                       "relations": args.relations, "seed": seed,
                       "normalize": args.normalize,
                       "exclude_abc": args.exclude_abc})
    print(f"{kind} accuracy {report['accuracy']:.4f} "
          f"({report['correct']}/{report['n']}, exclude_abc={args.exclude_abc})")
    return 0


def cmd_bound(parser, args) -> int:
    try:
        sg = SizeGenBound(epsilon=args.epsilon, a=args.a, b=args.b,
                          k1=args.k1, k2=args.k2)
        value = size_generalization_bound(sg)
    except ValueError as err:
        _fail(parser, str(err))
    print(f"{value!r}")
    if args.out:
        out = _ensure_out(args, "bound")
        write_results_json(os.path.join(out, "bound.json"), {
            "epsilon": args.epsilon, "a": args.a, "b": args.b,
            "k1": args.k1, "k2": args.k2, "bound": value})
        _echo_config(out, {"epsilon": args.epsilon, "a": args.a, "b": args.b,
                           "k1": args.k1, "k2": args.k2})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abnn",
        description="Abelian group/semigroup network experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synthetic", help="train and evaluate on synthetic tasks")
    s.add_argument("--task", required=True,
                   help="comma-separated tasks: " + ", ".join(sorted(TASKS)))
    s.add_argument("--model", default="agn",
                   help="comma-separated models: agn, asn, deepsets")
    _add_common(s)
    _add_train_flags(s)
    s.set_defaults(func=cmd_synthetic)

    s = subs.add_parser("search", help="seeded random hyperparameter search")
    s.add_argument("--task", required=True)
    s.add_argument("--model", default="agn")
    s.add_argument("--trials", type=int, default=16)
    s.add_argument("--threads", type=int, default=1,
                   help="parallel trial workers, at most the CPU count")
    _add_common(s)
    _add_train_flags(s)
    s.set_defaults(func=cmd_search)

    s = subs.add_parser("classify-poly",
                        help="classify a symmetric polynomial operation")
    s.add_argument("--coeffs", required=True,
                   help="grid alpha[i][j], rows ';'-separated, entries ','")
    _add_common(s)
    s.set_defaults(func=cmd_classify_poly)

    for name, func in (("analogy-train", cmd_analogy_train),
                       ("analogy-eval", cmd_analogy_eval)):
        s = subs.add_parser(name, help=f"{name.replace('-', ' ')} pipeline")
        s.add_argument("--embeddings", required=True,
                       help="word2vec text file (header 'count dim')")
        s.add_argument("--relations", required=True,
                       help="relation TSV file or directory of them")
        s.add_argument("--kind", required=True,
                       help="wv, mlp, or agn (wv is eval-only)")
        s.add_argument("--normalize", action="store_true",
                       help="L2-normalize embedding rows on load")
        s.add_argument("--exclude-abc", action="store_true", dest="exclude_abc",
                       help="drop the three query words from the candidates")
        if name == "analogy-eval":
            s.add_argument("--model", default=None, dest="model_path",
                           help="checkpoint produced by analogy-train")
        _add_common(s)
        _add_train_flags(s)
        s.set_defaults(func=func)

    s = subs.add_parser("bound", help="print the size-generalization bound")
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--b", type=int, required=True)
    s.add_argument("--k1", type=float, required=True)
    s.add_argument("--k2", type=float, required=True)
    _add_common(s)
    s.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
