"""Word-analogy pipeline over fixed embeddings.

Three analogy functions predict d from a:b = c:d — plain vector
arithmetic ``b - a + c``, a trained feedforward map of that difference,
and the group form ``phi^{-1}(phi(b) - phi(a) + phi(c))`` with a trained
coupling-flow phi. Training minimizes negative cosine against the first
acceptable answer; evaluation retrieves the nearest vocabulary vector by
cosine, optionally excluding the three query words from the candidates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .abelian import AbelianOp
from .harness import TrainConfig, fit
from .invertible import CouplingFlow, Mlp
# adam_step is not called here (harness.fit runs the updates); the name stays
# because the benchmark in perfbench/ traces abnn.analogy:adam_step
from .numcore import ParamStore, Tape, adam_step, cosine_on_tape  # noqa: F401

__all__ = [
    "AnalogyExample",
    "EmbeddingTable",
    "MlpModel",
    "load_embeddings",
    "load_relation_pairs",
    "prepare_analogy_splits",
    "analogy_fn",
    "build_analogy_model",
    "train_analogy",
    "evaluate_analogy",
    "build_synthetic_analogy_corpus",
]

KINDS = ("wv", "wv_mlp", "wv_agn")


@dataclass
class AnalogyExample:
    a: str
    b: str
    c: str
    d_candidates: list[str]
    category: str = ""

    def __post_init__(self):
        if not self.d_candidates:
            raise ValueError("need at least one acceptable answer")


class EmbeddingTable:
    """Ordered vocabulary with a row per token, optionally L2 normalized."""

    def __init__(self, vocab, matrix, normalized: bool):
        self.vocab = list(vocab)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.normalized = normalized
        self.index = {tok: i for i, tok in enumerate(self.vocab)}
        if len(self.index) != len(self.vocab):
            raise ValueError("duplicate token in vocabulary")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token) -> bool:
        return token in self.index

    def lookup(self, token: str) -> np.ndarray:
        return self.matrix[self.index[token]]


def load_embeddings(path, normalize: bool) -> EmbeddingTable:
    """Read word2vec text format: header "count dim", then token + floats."""
    vocab: list[str] = []
    rows: list[np.ndarray] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"line 1: malformed header {header.strip()!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line 1: malformed header {header.strip()!r}") from None
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise ValueError(
                    f"line {lineno}: expected {dim + 1} columns, got {len(fields)}")
            token = fields[0]
            if token in seen:
                raise ValueError(
                    f"line {lineno}: duplicate token {token!r} "
                    f"(first at line {seen[token]})")
            seen[token] = lineno
            try:
                vec = np.array([float(v) for v in fields[1:]])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value") from None
            if normalize:
                norm = np.linalg.norm(vec)
                if norm == 0.0:
                    raise ValueError(f"line {lineno}: zero vector cannot be normalized")
                vec = vec / norm
            vocab.append(token)
            rows.append(vec)
    if len(vocab) != count:
        raise ValueError(
            f"header declared {count} rows, file holds {len(vocab)}")
    return EmbeddingTable(vocab, np.stack(rows), normalize)


def load_relation_pairs(path) -> dict[str, list[tuple[str, list[str]]]]:
    """TSV relation files: ``word1<TAB>word2[/alt...]`` per line.

    A directory loads every .tsv inside as one subcategory per file; a
    single file becomes one subcategory named after it.
    """
    files: list[tuple[str, str]] = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".tsv") or name.endswith(".txt"):
                cat = os.path.splitext(name)[0]
                files.append((cat, os.path.join(path, name)))
        if not files:
            raise ValueError(f"no relation files in directory {path}")
    else:
        files.append((os.path.splitext(os.path.basename(path))[0], path))
    out: dict[str, list[tuple[str, list[str]]]] = {}
    for cat, fpath in files:
        pairs = []
        with open(fpath, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValueError(
                        f"{fpath} line {lineno}: expected 'word1<TAB>word2[/alt...]'")
                alts = [w for w in fields[1].split("/") if w]
                if not alts:
                    raise ValueError(f"{fpath} line {lineno}: no answer words")
                pairs.append((fields[0], alts))
        out[cat] = pairs
    return out


def prepare_analogy_splits(table: EmbeddingTable, relations, seed: int,
                           ratios=(0.6, 0.2, 0.2),
                           max_examples_per_category: int | None = None):
    """Split pairs 60/20/20 per subcategory, then form all ordered pair
    combinations within each split.

    Pairs fall out when the first word or every alternative answer is
    missing from the vocabulary. Returns {"train": [...], "validation":
    [...], "test": [...]}.
    """
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be three fractions summing to 1")
    rng = np.random.default_rng(seed)
    splits = {"train": [], "validation": [], "test": []}
    for cat in sorted(relations):
        usable = []
        for w1, alts in relations[cat]:
            in_vocab = [w for w in alts if w in table]
            if w1 in table and in_vocab:
                usable.append((w1, in_vocab))
        if len(usable) < 2:
            continue
        order = rng.permutation(len(usable))
        n_train = int(round(ratios[0] * len(usable)))
        n_val = int(round(ratios[1] * len(usable)))
        buckets = {
            "train": [usable[i] for i in order[:n_train]],
            "validation": [usable[i] for i in order[n_train : n_train + n_val]],
            "test": [usable[i] for i in order[n_train + n_val :]],
        }
        for name, pairs in buckets.items():
            examples = []
            for i, (a, b_alts) in enumerate(pairs):
                for j, (c, d_alts) in enumerate(pairs):
                    if i == j:
                        continue
                    examples.append(AnalogyExample(
                        a=a, b=b_alts[0], c=c, d_candidates=list(d_alts),
                        category=cat))
            if (max_examples_per_category is not None
                    and len(examples) > max_examples_per_category):
                keep = rng.permutation(len(examples))[:max_examples_per_category]
                examples = [examples[k] for k in sorted(keep)]
            splits[name].extend(examples)
    return splits


class MlpModel:
    """Trainable feedforward map of b - a + c (the naive learned baseline)."""

    kind = "mlp"

    def __init__(self, d: int, n_layers: int, hidden_dim: int, rng):
        self.d = d
        self.n_layers = n_layers
        self.hidden_dim = hidden_dim
        dims = [d] + [hidden_dim] * (n_layers - 1) + [d]
        from .invertible import mlp_param_count

        self.store = ParamStore(mlp_param_count(dims))
        self.net = Mlp(self.store, 0, dims, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward_np(x)

    def stage(self, tape: Tape):
        from .invertible import Staged

        return Staged(tape, tape.stage_params(self.store))


def _check_dims(*vecs):
    dims = {np.asarray(v).shape[-1] for v in vecs}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch across operands: {sorted(dims)}")


def analogy_fn(kind: str, a, b, c, model=None) -> np.ndarray:
    """Predict the vector of d for a:b = c:d. Batched over leading axes."""
    if kind not in KINDS:
        raise ValueError(f"unknown analogy kind {kind!r}; expected one of {KINDS}")
    a, b, c = (np.asarray(v, dtype=np.float64) for v in (a, b, c))
    _check_dims(a, b, c)
    if kind == "wv":
        return b - a + c
    if model is None:
        raise ValueError(f"{kind} requires a trained model")
    if kind == "wv_mlp":
        return model.forward(b - a + c)
    phi = model.phi
    return phi.inverse(phi.forward(b) - phi.forward(a) + phi.forward(c))


def build_analogy_model(kind: str, d: int, cfg: TrainConfig):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    if kind == "wv_mlp":
        return MlpModel(d, cfg.n_layers, cfg.hidden_dim, rng)
    if kind == "wv_agn":
        flow = CouplingFlow(d, cfg.n_layers, cfg.hidden_dim, rng,
                            init="near_identity")
        return AbelianOp(flow, "sum")
    raise ValueError(f"kind {kind!r} has no trainable model")


def train_analogy(kind: str, table: EmbeddingTable, train_examples,
                  cfg: TrainConfig | None = None):
    """Adam on mean negative cosine between f(a,b,c) and the first answer."""
    if kind == "wv":
        raise ValueError("wv has no trainable parameters")
    if not train_examples:
        raise ValueError("training data is empty")
    if cfg is None:
        cfg = TrainConfig(epochs=100)
    model = build_analogy_model(kind, table.dim, cfg)
    A = np.stack([table.lookup(e.a) for e in train_examples])
    B = np.stack([table.lookup(e.b) for e in train_examples])
    C = np.stack([table.lookup(e.c) for e in train_examples])
    D = np.stack([table.lookup(e.d_candidates[0]) for e in train_examples])

    def batch_loss(tape, staged, idx):
        if kind == "wv_mlp":
            outs = model.net.forward_on_tape(
                staged, [tape.consts(B[i] - A[i] + C[i]) for i in idx])
        else:
            phi = model.phi
            pbac = phi.forward_on_tape(
                staged, [tape.consts(v[i]) for i in idx for v in (B, A, C)])
            outs = phi.inverse_on_tape(staged, [
                [tape.add(tape.sub(vb, va), vc)
                 for vb, va, vc in zip(*pbac[3 * r : 3 * r + 3])]
                for r in range(len(idx))])
        return tape.mean_of([tape.neg(cosine_on_tape(tape, out, D[i]))
                             for out, i in zip(outs, idx)])

    return model, fit(model, batch_loss, len(train_examples), cfg, stream=12)


def evaluate_analogy(kind: str, model, table: EmbeddingTable, test,
                     exclude_abc: bool) -> dict:
    """Top-1 retrieval accuracy over the vocabulary, with per-example ranks.

    An example counts as correct when the highest-cosine token (ties to
    the lowest vocabulary index) is among its acceptable answers. With
    ``exclude_abc`` the three query words leave the candidate pool first.
    """
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


def build_synthetic_analogy_corpus(n_relations: int, pairs_per_relation: int,
                                   d: int, seed: int, flow_layers: int = 2,
                                   hidden_dim: int = 16,
                                   subnet_scale: float = 1.0,
                                   offset_scale: float = 1.0,
                                   base_scale: float = 1.0):
    """Embeddings whose analogies are exact under a hidden coupling flow.

    Every relation is a fixed offset in the flow's latent space; each pair
    (w1, w2) satisfies latent(w2) = latent(w1) + offset, so the group
    analogy function with the hidden flow retrieves w2 exactly while plain
    vector arithmetic does not. ``base_scale`` spreads the latent word
    positions; ``offset_scale`` the relation offsets.

    Returns (table, relations dict, ground-truth flow).
    """
    rng = np.random.default_rng(seed)
    flow = CouplingFlow(d, flow_layers, hidden_dim, rng, init="random",
                        subnet_scale=subnet_scale)
    vocab = []
    vectors = []
    relations: dict[str, list[tuple[str, list[str]]]] = {}
    for r in range(n_relations):
        offset = rng.normal(scale=offset_scale, size=d)
        pairs = []
        for p in range(pairs_per_relation):
            u = rng.normal(scale=base_scale, size=d)
            w1, w2 = f"r{r:02d}p{p:03d}a", f"r{r:02d}p{p:03d}b"
            vocab.extend([w1, w2])
            vectors.append(flow.inverse(u))
            vectors.append(flow.inverse(u + offset))
            pairs.append((w1, [w2]))
        relations[f"rel{r:02d}"] = pairs
    table = EmbeddingTable(vocab, np.stack(vectors), normalized=False)
    return table, relations, flow
