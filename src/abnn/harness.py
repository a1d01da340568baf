"""Synthetic multiset experiments: data, training, search, and result export.

Five scalar binary operations serve as ground truth. Multisets of sizes
{2,3,4} with elements uniform on [-5, 5] make up the train/validation/
small-test splits; the large-test split uses sizes {10,11,12} to probe
size generalization. Everything is driven by one integer seed: data
streams, model init, and batch order derive from it, so a (seed, config)
pair pins the whole run bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, replace
from numbers import Integral, Real

import numpy as np

from .abelian import AbelianOp
from .baseline import DeepSetsModel
from .invertible import InversionError, MonotonicNet
from .numcore import DivergedError, Tape, adam_step, mse_on_tape

__all__ = [
    "SyntheticTask",
    "TASKS",
    "TrainConfig",
    "ExperimentResult",
    "generate_dataset",
    "make_splits",
    "build_model",
    "fit",
    "train",
    "evaluate",
    "SearchSpace",
    "random_search",
    "run_experiment",
    "write_results_csv",
    "write_results_json",
]

# derived rng streams; distinct tags keep data, init, and shuffling disjoint
_STREAM_INIT = 1
_STREAM_SHUFFLE = 2
_STREAM_SEARCH = 3

# per-(task, model) hyperparameters tuned at desk scale; the CLI applies
# them as defaults unless overridden
REFERENCE_CONFIGS = {
    ("add", "agn"): {"k_groups": 3, "j_units": 3},
    ("add1", "agn"): {"k_groups": 3, "j_units": 3},
    ("cbrt_sum_cubes", "agn"): {"k_groups": 6, "j_units": 6},
    ("mul", "asn"): {"k_groups": 4, "j_units": 4},
    ("bilinear_half", "asn"): {"k_groups": 2, "j_units": 2},
    ("add", "deepsets"): {"hidden_dim": 8, "middle_dim": 8},
    ("add1", "deepsets"): {"hidden_dim": 8, "middle_dim": 8},
    ("cbrt_sum_cubes", "deepsets"): {"hidden_dim": 8, "middle_dim": 8},
    ("mul", "deepsets"): {"hidden_dim": 8, "middle_dim": 8},
    ("bilinear_half", "deepsets"): {"hidden_dim": 8, "middle_dim": 8},
}


@dataclass(frozen=True)
class SyntheticTask:
    """A scalar Abelian binary operation and its sampling protocol."""

    name: str
    target_op: callable
    poly_grid: tuple | None  # coefficient grid when the op is polynomial
    element_range: tuple[float, float] = (-5.0, 5.0)
    train_sizes: tuple[int, ...] = (2, 3, 4)
    large_sizes: tuple[int, ...] = (10, 11, 12)

    def fold(self, values) -> float:
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        acc = values[0]
        for v in values[1:]:
            acc = self.target_op(acc, v)
        return float(acc)


TASKS = {
    t.name: t
    for t in [
        SyntheticTask("add", lambda x, y: x + y, ((0.0, 1.0), (1.0, 0.0))),
        SyntheticTask("add1", lambda x, y: x + y + 1.0, ((1.0, 1.0), (1.0, 0.0))),
        SyntheticTask("cbrt_sum_cubes",
                      lambda x, y: np.cbrt(x**3 + y**3), None),
        SyntheticTask("mul", lambda x, y: x * y, ((0.0, 0.0), (0.0, 1.0))),
        SyntheticTask("bilinear_half",
                      lambda x, y: x + y + x * y / 2.0,
                      ((0.0, 1.0), (1.0, 0.5))),
    ]
}


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    weight_decay: float = 0.0
    model: str = "agn"  # agn | asn | deepsets
    k_groups: int = 6
    j_units: int = 6
    n_layers: int = 2
    hidden_dim: int = 16
    middle_dim: int = 16

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = {"int": Integral, "float": Real, "str": str}[f.type]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{f.name} must be {f.type}, "
                                f"got {type(value).__name__} {value!r}")
        for name, least in (("epochs", 0), ("seed", 0), ("batch_size", 1),
                            ("k_groups", 1), ("j_units", 1), ("n_layers", 1),
                            ("hidden_dim", 1), ("middle_dim", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentResult:
    rmse: dict[str, float] = field(default_factory=dict)
    loss_curve: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0
    config: dict = field(default_factory=dict)
    seed: int = 0


def generate_dataset(task: SyntheticTask, n: int, size_set, seed):
    """n (multiset, target) pairs; sizes uniform over size_set, elements
    uniform over the task's element range, targets exact left folds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = sorted(size_set)
    lo, hi = task.element_range
    out = []
    for _ in range(n):
        m = sizes[rng.integers(len(sizes))]
        ms = rng.uniform(lo, hi, size=m)
        out.append((ms, np.array([task.fold(ms)])))
    return out


def make_splits(task: SyntheticTask, seed: int) -> dict:
    """train/validation/small/large as disjoint child streams of one seed."""
    children = np.random.SeedSequence(seed).spawn(4)
    return {
        "train": generate_dataset(task, 500, task.train_sizes, children[0]),
        "validation": generate_dataset(task, 100, task.train_sizes, children[1]),
        "small": generate_dataset(task, 100, task.train_sizes, children[2]),
        "large": generate_dataset(task, 100, task.large_sizes, children[3]),
    }


def build_model(cfg: TrainConfig, d: int = 1):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_INIT]))
    if cfg.model == "agn":
        return AbelianOp(MonotonicNet.initialized(cfg.k_groups, cfg.j_units, rng), "sum")
    if cfg.model == "asn":
        return AbelianOp(MonotonicNet.initialized(cfg.k_groups, cfg.j_units, rng), "product")
    if cfg.model == "deepsets":
        return DeepSetsModel(d, cfg.n_layers, cfg.hidden_dim, cfg.middle_dim, rng)
    raise ValueError(f"unknown model {cfg.model!r}; expected agn, asn, or deepsets")


def fit(model, batch_loss, n: int, cfg: TrainConfig, stream: int) -> list[float]:
    """Minibatch Adam over ``n`` examples; returns the mean loss per epoch.

    Every epoch visits the examples in an order drawn from the seed stream
    ``[cfg.seed, stream]``. ``batch_loss(tape, params, idx)`` records the
    mean loss of the examples ``idx`` on ``tape``, given the handle of the
    staged ``model.store``, and returns the loss handle. A
    non-finite loss or gradient, or a phi that stops being invertible,
    raises :class:`DivergedError` with the loss curve so far and the epoch
    in its diagnostics.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        try:
            for s in range(0, n, cfg.batch_size):
                idx = order[s : s + cfg.batch_size]
                tape = Tape()
                loss = batch_loss(tape, tape.stage_params(model.store), idx)
                lval = float(tape.val(loss))
                if not math.isfinite(lval):
                    raise DivergedError(f"diverged: non-finite loss at epoch {epoch}")
                tape.backward(loss)
                adam_step(model.store, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps,
                          cfg.weight_decay)
                epoch_loss += lval * len(idx)
        except DivergedError as err:
            err.diagnostics.setdefault("loss_curve", losses)
            err.diagnostics.setdefault("epoch", epoch)
            raise
        except InversionError as err:
            # parameters degenerated until phi stopped being invertible
            raise DivergedError(
                f"diverged: {err}",
                diagnostics={"loss_curve": losses, "epoch": epoch},
            ) from err
        losses.append(epoch_loss / n)
    return losses


def train(model, data, cfg: TrainConfig) -> ExperimentResult:
    """Minibatch Adam on mean squared error; loss recorded per epoch.

    Deterministic given (cfg.seed, cfg): batch order comes from a seed
    stream independent of data generation and init.
    """
    if len(data) == 0:
        raise ValueError("training data is empty")
    multisets = [ms for ms, _ in data]
    targets = np.stack([t for _, t in data])

    def batch_loss(tape, params, idx):
        preds = model.fold_batch_on_tape(tape, params, [multisets[i] for i in idx])
        return mse_on_tape(tape, preds, targets[idx])

    t0 = time.perf_counter()
    losses = fit(model, batch_loss, len(data), cfg, _STREAM_SHUFFLE)
    return ExperimentResult(
        loss_curve=losses,
        wall_clock_s=time.perf_counter() - t0,
        config=cfg.to_dict(),
        seed=cfg.seed,
    )


def evaluate(model, data) -> float:
    """Root of the mean (over examples, then dimensions) squared error."""
    if len(data) == 0:
        raise ValueError("evaluation data is empty")
    preds = model.fold_many([ms for ms, _ in data])
    targets = np.stack([t for _, t in data])
    return float(np.sqrt(np.mean(np.square(preds - targets))))


@dataclass
class SearchSpace:
    """Ranges (inclusive) sampled by the random hyperparameter search."""

    model: str = "agn"
    k_range: tuple[int, int] = (2, 32)
    j_range: tuple[int, int] = (2, 32)
    layers_range: tuple[int, int] = (2, 8)
    hidden_range: tuple[int, int] = (2, 32)
    middle_range: tuple[int, int] = (2, 32)

    def sample(self, base: TrainConfig, rng, seed: int) -> TrainConfig:
        def pick(lo_hi):
            return int(rng.integers(lo_hi[0], lo_hi[1] + 1))

        if self.model in ("agn", "asn"):
            return replace(base, model=self.model, seed=seed,
                           k_groups=pick(self.k_range), j_units=pick(self.j_range))
        return replace(base, model=self.model, seed=seed,
                       n_layers=pick(self.layers_range),
                       hidden_dim=pick(self.hidden_range),
                       middle_dim=pick(self.middle_range))


def _run_trial(args):
    cfg, train_data, val_data = args
    model = build_model(cfg)
    try:
        train(model, train_data, cfg)
    except DivergedError:
        return math.inf
    return evaluate(model, val_data)


def random_search(space: SearchSpace, trials: int, base: TrainConfig,
                  train_data, val_data, seed: int, threads: int = 1):
    """Best config over seeded random draws from the space.

    Trial i trains with seed ``seed + i``; ties keep the first-seen
    config. At most ``min(threads, os.cpu_count())`` worker processes run.
    Returns (best config, list of (config, validation rmse)).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SEARCH]))
    configs = [space.sample(base, rng, seed + i) for i in range(trials)]
    jobs = [(cfg, train_data, val_data) for cfg in configs]
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scores = list(pool.map(_run_trial, jobs))
    else:
        scores = [_run_trial(j) for j in jobs]
    if all(math.isinf(s) for s in scores):
        raise RuntimeError(
            "all trials diverged; seeds " + ", ".join(str(c.seed) for c in configs))
    best = min(range(trials), key=lambda i: (scores[i], i))
    return configs[best], list(zip(configs, scores))


def run_experiment(task: SyntheticTask, cfg: TrainConfig):
    """Generate splits, train one model, evaluate all splits."""
    splits = make_splits(task, cfg.seed)
    model = build_model(cfg)
    result = train(model, splits["train"], cfg)
    result.rmse = {
        "small": evaluate(model, splits["small"]),
        "large": evaluate(model, splits["large"]),
        "validation": evaluate(model, splits["validation"]),
    }
    return model, result


def write_results_csv(path, rows) -> None:
    """Rows of (task, model, split, rmse, seed, wall_clock_s)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "model", "split", "rmse", "seed", "wall_clock_s"])
        for task, model, split, rmse, seed, wall in rows:
            writer.writerow([task, model, split, repr(float(rmse)), seed,
                             repr(float(wall))])


def write_results_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
