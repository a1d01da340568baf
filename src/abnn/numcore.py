"""Reverse-mode tape, parameter store, Adam updates, and loss functions.

Every trainable model in this package records a whole batch on a
:class:`Tape` and gets exact gradients from one backward sweep. Each map
exposes one batched tape method per direction, taking and returning a list
of id rows. Scalar primitives carry the lattice units, coupling updates,
combiners and losses; a dense MLP is one vector-valued block whose
gradient is a numpy vector-Jacobian product. Frozen-parameter math
(evaluation, inversion) bypasses the tape and uses numpy directly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tape",
    "ParamStore",
    "DivergedError",
    "DanglingNodeError",
    "adam_step",
    "mse_loss",
    "cosine",
]

_EXP_MAX = 709.0  # exp() overflows double beyond this


class DanglingNodeError(ValueError):
    """Raised when a node id does not refer to a node on the tape."""


class DivergedError(RuntimeError):
    """Raised when a training step produces non-finite values.

    Carries whatever partial diagnostics the caller attached (bad slot
    indices, the loss curve so far) in :attr:`diagnostics`.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ParamStore:
    """Flat array of trainable scalars with gradient and Adam moment slots."""

    def __init__(self, size: int):
        self.values = np.zeros(size, dtype=np.float64)
        self.grads = np.zeros(size, dtype=np.float64)
        self.m = np.zeros(size, dtype=np.float64)
        self.v = np.zeros(size, dtype=np.float64)
        self.step_count = 0

    def __len__(self) -> int:
        return len(self.values)

    def zero_grads(self) -> None:
        self.grads[:] = 0.0


# Node layouts (val, a, b, da, db):
#   leaf/const : (v, -1, -1, 0.0, 0.0)
#   unary      : (v, a, -1, da, 0.0)
#   binary     : (v, a,  b, da, db)
#   affine     : (v, xs, ws, bias_id, None)   -- fused dot product + bias;
#                xs/ws are tuples of node ids, db=None marks the layout.
# A block's outputs are leaves; the block's vector-Jacobian product runs
# once the sweep has passed all of them (see ``block``).
class Tape:
    """Ordered record of scalar primitives and vector blocks with
    reverse-mode replay.

    Node ids are ints in creation order. A tape is built fresh for every
    training step and thrown away after ``backward``.
    """

    def __init__(self):
        self._nodes = []
        self._staged = []  # (base node id, ParamStore)
        self._blocks = []  # (first output id, output count, vjp)

    def __len__(self) -> int:
        return len(self._nodes)

    def val(self, a: int) -> float:
        return self._nodes[a][0]

    def vals(self, ids) -> list[float]:
        nodes = self._nodes
        return [nodes[a][0] for a in ids]

    # -- leaves ----------------------------------------------------------

    def const(self, v: float) -> int:
        self._nodes.append((float(v), -1, -1, 0.0, 0.0))
        return len(self._nodes) - 1

    def consts(self, values) -> list[int]:
        nodes = self._nodes
        base = len(nodes)
        nodes.extend((float(v), -1, -1, 0.0, 0.0) for v in values)
        return list(range(base, len(nodes)))

    def stage_params(self, store: ParamStore) -> int:
        """Copy a store's values onto the tape as leaves.

        Returns the node id of slot 0; slot i lives at ``base + i``.
        ``backward`` accumulates adjoints of these leaves into
        ``store.grads``.
        """
        base = len(self._nodes)
        self._nodes.extend(
            (float(v), -1, -1, 0.0, 0.0) for v in store.values
        )
        self._staged.append((base, store))
        return base

    # -- arithmetic primitives --------------------------------------------

    def add(self, a: int, b: int) -> int:
        nodes = self._nodes
        nodes.append((nodes[a][0] + nodes[b][0], a, b, 1.0, 1.0))
        return len(nodes) - 1

    def sub(self, a: int, b: int) -> int:
        nodes = self._nodes
        nodes.append((nodes[a][0] - nodes[b][0], a, b, 1.0, -1.0))
        return len(nodes) - 1

    def mul(self, a: int, b: int) -> int:
        nodes = self._nodes
        va = nodes[a][0]
        vb = nodes[b][0]
        nodes.append((va * vb, a, b, vb, va))
        return len(nodes) - 1

    def div(self, a: int, b: int) -> int:
        nodes = self._nodes
        vb = nodes[b][0]
        v = nodes[a][0] / vb
        nodes.append((v, a, b, 1.0 / vb, -v / vb))
        return len(nodes) - 1

    def neg(self, a: int) -> int:
        nodes = self._nodes
        nodes.append((-nodes[a][0], a, -1, -1.0, 0.0))
        return len(nodes) - 1

    def square(self, a: int) -> int:
        nodes = self._nodes
        va = nodes[a][0]
        nodes.append((va * va, a, -1, 2.0 * va, 0.0))
        return len(nodes) - 1

    def exp(self, a: int) -> int:
        nodes = self._nodes
        va = nodes[a][0]
        v = math.exp(va) if va < _EXP_MAX else math.inf
        nodes.append((v, a, -1, v, 0.0))
        return len(nodes) - 1

    def sqrt(self, a: int) -> int:
        nodes = self._nodes
        v = math.sqrt(nodes[a][0])
        nodes.append((v, a, -1, 0.5 / v if v > 0.0 else 0.0, 0.0))
        return len(nodes) - 1

    # Ties route the gradient to the first argument.
    def maximum(self, a: int, b: int) -> int:
        nodes = self._nodes
        va = nodes[a][0]
        vb = nodes[b][0]
        if va >= vb:
            nodes.append((va, a, b, 1.0, 0.0))
        else:
            nodes.append((vb, a, b, 0.0, 1.0))
        return len(nodes) - 1

    def minimum(self, a: int, b: int) -> int:
        nodes = self._nodes
        va = nodes[a][0]
        vb = nodes[b][0]
        if va <= vb:
            nodes.append((va, a, b, 1.0, 0.0))
        else:
            nodes.append((vb, a, b, 0.0, 1.0))
        return len(nodes) - 1

    def affine(self, xs, ws, bias: int) -> int:
        """Fused ``sum(w_i * x_i) + bias`` over node ids.

        One node instead of 2n. Gradients flow into the inputs, the
        weights, and the bias.
        """
        nodes = self._nodes
        acc = nodes[bias][0]
        for x, w in zip(xs, ws):
            acc += nodes[x][0] * nodes[w][0]
        nodes.append((acc, tuple(xs), tuple(ws), bias, None))
        return len(nodes) - 1

    def block(self, values, vjp) -> list[int]:
        """Vector-valued primitive whose values were computed outside the tape.

        ``values`` become leaf nodes. During ``backward``, once the sweep
        has passed all of them, ``vjp(adjoints)`` receives their adjoints as
        an array and returns ``(ids, grads)`` pairs to add into earlier
        nodes; ``ids`` is a sequence of node ids, best a ``range``.
        """
        ids = self.consts(values)
        if ids:
            self._blocks.append((ids[0], len(ids), vjp))
        return ids

    def mean_of(self, ids) -> int:
        w = self.const(1.0 / len(ids))
        return self.affine(ids, [w] * len(ids), self.const(0.0))

    # -- reverse sweep ------------------------------------------------------

    def backward(self, output: int) -> None:
        """Accumulate d(output)/d(theta) into every staged store's grads."""
        n = len(self._nodes)
        if not isinstance(output, int) or not 0 <= output < n:
            raise DanglingNodeError(f"dangling node id {output!r}")
        adj = [0.0] * n
        adj[output] = 1.0
        hi = output + 1
        for start, m, vjp in reversed(self._blocks):
            if start > output:
                continue
            self._sweep(adj, start + m, hi)
            hi = start
            g = np.asarray(adj[start : start + m])
            if not g.any():
                continue
            for ids, grads in vjp(g):
                if isinstance(ids, range) and ids.step == 1:
                    lo, up = ids.start, ids.stop
                    adj[lo:up] = (np.asarray(adj[lo:up]) + grads).tolist()
                else:
                    for x, gx in zip(ids, grads.tolist()):
                        adj[x] += gx
        self._sweep(adj, 0, hi)
        for base, store in self._staged:
            store.grads += adj[base : base + len(store.values)]

    def _sweep(self, adj: list, lo: int, hi: int) -> None:
        """Reverse pass over the scalar nodes ``hi-1`` down to ``lo``."""
        nodes = self._nodes
        for i in range(hi - 1, lo - 1, -1):
            g = adj[i]
            if g == 0.0:
                continue
            _, a, b, da, db = nodes[i]
            if db is None:  # affine: a=xs, b=ws, da=bias id
                adj[da] += g
                for x, w in zip(a, b):
                    adj[x] += nodes[w][0] * g
                    adj[w] += nodes[x][0] * g
            elif a >= 0:
                adj[a] += da * g
                if b >= 0:
                    adj[b] += db * g


def adam_step(
    params: ParamStore,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> ParamStore:
    """Bias-corrected Adam update in place; zeroes grads, bumps step_count.

    ``weight_decay`` adds an L2 term to the gradient before the moment
    updates (classic Adam-with-decay, not decoupled).
    """
    g = params.grads
    if not np.all(np.isfinite(g)):
        bad = np.flatnonzero(~np.isfinite(g))
        raise DivergedError(
            f"diverged: non-finite gradient in {bad.size} slot(s)",
            diagnostics={"bad_slots": bad[:16].tolist(), "step": params.step_count},
        )
    if weight_decay != 0.0:
        g = g + weight_decay * params.values
    t = params.step_count + 1
    params.m *= beta1
    params.m += (1.0 - beta1) * g
    params.v *= beta2
    params.v += (1.0 - beta2) * np.square(g)
    m_hat = params.m / (1.0 - beta1**t)
    v_hat = params.v / (1.0 - beta2**t)
    params.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    params.step_count = t
    params.zero_grads()
    return params


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over batch and dimensions of squared error."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean(np.square(pred - target)))


def cosine(v1: np.ndarray, v2: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors."""
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if v1.shape != v2.shape:
        raise ValueError(f"shape mismatch: {v1.shape} vs {v2.shape}")
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("zero vector")
    return float(np.dot(v1, v2) / (n1 * n2))


def mse_on_tape(tape: Tape, preds, targets) -> int:
    """MSE node over a batch of predictions.

    ``preds`` is a list of per-example lists of node ids; ``targets`` an
    array of matching shape.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if len(preds) != len(targets):
        raise ValueError(f"shape mismatch: {len(preds)} vs {len(targets)}")
    sq = []
    for nodes_i, t_i in zip(preds, np.atleast_2d(targets)):
        if len(nodes_i) != len(t_i):
            raise ValueError("shape mismatch in example dimensions")
        for a, t in zip(nodes_i, t_i):
            sq.append(tape.square(tape.sub(a, tape.const(t))))
    return tape.mean_of(sq)


def cosine_on_tape(tape: Tape, v_nodes, w_const: np.ndarray) -> int:
    """Cosine-similarity node between tape vector ``v_nodes`` and a constant."""
    w = np.asarray(w_const, dtype=np.float64)
    if len(v_nodes) != len(w):
        raise ValueError(f"shape mismatch: {len(v_nodes)} vs {len(w)}")
    wn = float(np.linalg.norm(w))
    if wn == 0.0:
        raise ValueError("zero vector")
    w_ids = tape.consts(w)
    dot = tape.affine(v_nodes, w_ids, tape.const(0.0))
    sq_norm = tape.affine(v_nodes, v_nodes, tape.const(0.0))
    if tape.val(sq_norm) == 0.0:
        raise ValueError("zero vector")
    denom = tape.mul(tape.sqrt(sq_norm), tape.const(wn))
    return tape.div(dot, denom)
