"""Reverse-mode tape, parameter store, Adam updates, and loss functions.

Every trainable model in this package records a whole batch on a
:class:`Tape` and gets exact gradients from one backward pass. Tape values
are numpy arrays behind int handles, and every recorded operation is a
block: an array computed in numpy plus a hand-written vector-Jacobian
product. An MLP batch, a coupling-flow pass, a whole Abelian fold, the
DeepSets pooling and both losses are one block each. Frozen-parameter
math (evaluation, inversion) bypasses the tape and uses numpy directly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape", "ParamStore", "DivergedError", "DanglingNodeError", "adam_step",
           "mse_loss", "cosine", "mse_on_tape", "cosine_on_tape"]


class DanglingNodeError(ValueError):
    """Raised when a handle does not refer to a value on the tape."""


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
        self.values, self.grads, self.m, self.v = (np.zeros(size) for _ in range(4))
        self.step_count = 0

    def __len__(self) -> int:
        return len(self.values)

    def zero_grads(self) -> None:
        self.grads[:] = 0.0


class Tape:
    """Values recorded for one training step, and reverse-mode replay.

    Every value is a float64 array behind an int handle: a constant, a
    staged parameter store, or the output of a block. A tape is built
    fresh for every training step and thrown away after ``backward``.
    """

    def __init__(self):
        self._vals, self._vjps = [], []
        self._staged = []  # (handle, ParamStore)

    def __len__(self) -> int:
        """Number of values (arrays) recorded."""
        return len(self._vals)

    def val(self, h: int) -> np.ndarray:
        return self._vals[h]

    def consts(self, values) -> int:
        """A constant array; gradients reaching it are dropped."""
        return self.block(np.array(values, dtype=np.float64), None)

    def stage_params(self, store: ParamStore) -> int:
        """A copy of a store's values; backward adds its adjoint to the grads."""
        h = self.consts(store.values)
        self._staged.append((h, store))
        return h

    def block(self, values, vjp) -> int:
        """Record an array computed outside the tape, in C order so that
        reductions over it run in one order whatever its layout was.

        During ``backward``, ``vjp(g)`` receives the adjoint ``g`` of
        ``values`` and returns ``(handle, grad)`` pairs for earlier values,
        or ``(handle, grad, index)`` to add into ``val(handle)[index]``.
        """
        self._vals.append(np.asarray(values, dtype=np.float64, order="C"))
        self._vjps.append(vjp)
        return len(self._vals) - 1

    def backward(self, output: int) -> None:
        """Accumulate d(output)/d(theta) into every staged store's grads.

        Blocks run in reverse recording order. Each adjoint starts at zeros
        and takes its contributions in that order, the order a scalar
        reverse sweep would add them in.
        """
        if not isinstance(output, int) or not 0 <= output < len(self._vals):
            raise DanglingNodeError(f"dangling node id {output!r}")
        adj = [None] * len(self._vals)
        adj[output] = np.ones_like(self._vals[output])
        for h in range(output, -1, -1):
            g, vjp = adj[h], self._vjps[h]
            if vjp is None or g is None or not g.any():
                continue
            for h_in, g_in, *index in vjp(g):
                if adj[h_in] is None:
                    adj[h_in] = np.zeros_like(self._vals[h_in])
                adj[h_in][index[0] if index else ...] += g_in
        for h, store in self._staged:
            if adj[h] is not None:
                store.grads += adj[h]


def adam_step(params: ParamStore, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, weight_decay: float = 0.0) -> ParamStore:
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
    pred, target = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean(np.square(pred - target)))


def cosine(v1: np.ndarray, v2: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors."""
    v1, v2 = np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    if v1.shape != v2.shape:
        raise ValueError(f"shape mismatch: {v1.shape} vs {v2.shape}")
    n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("zero vector")
    return float(np.dot(v1, v2) / (n1 * n2))


def mse_on_tape(tape: Tape, pred: int, targets) -> int:
    """Mean squared error of the value ``pred`` against constant targets of
    the same shape, as one block.

    The terms are summed one at a time in row-major order, and the gradient
    is ``2 (pred - targets) / n``.
    """
    p, t = tape.val(pred), np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    d = p - t
    w = 1.0 / d.size
    return tape.block(np.cumsum((d * d).ravel() * w)[-1],
                      lambda g: [(pred, (2.0 * d) * (w * g))])


def cosine_on_tape(tape: Tape, v: int, targets) -> int:
    """Mean cosine similarity between the rows of the value ``v`` and
    constant target rows, as one block.

    Its vector-Jacobian product is
    ``(w_i / (|v_i| |w_i|) - cos_i v_i / |v_i|^2) / n`` per row.
    """
    x = tape.val(v)
    w = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape != w.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {w.shape}")
    vn, wn = np.linalg.norm(x, axis=1), np.linalg.norm(w, axis=1)
    if np.any(vn == 0.0) or np.any(wn == 0.0):
        raise ValueError("zero vector")
    cos = np.einsum("ij,ij->i", x, w) / (vn * wn)

    def vjp(g):
        dv = w / (vn * wn)[:, None] - (cos / vn**2)[:, None] * x
        return [(v, (g / len(w)) * dv)]

    return tape.block(cos.mean(), vjp)
