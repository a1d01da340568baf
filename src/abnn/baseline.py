"""DeepSets comparison model: outer(sum of inner(x) over the multiset).

Sum pooling between the two feedforward blocks makes the output
permutation invariant; summation runs in a canonical element order so it
is invariant bit for bit.
"""

from __future__ import annotations

import numpy as np

from .abelian import EmptyMultisetError, require_finite
from .invertible import Mlp, Staged
from .numcore import ParamStore, Tape

__all__ = ["DeepSetsModel"]


class DeepSetsModel:
    """Permutation-invariant multiset model with sum pooling.

    ``n_layers`` linear layers in each block (ReLU between), widths
    ``hidden_dim`` inside and ``middle_dim`` at the pooled interface.
    """

    kind = "deepsets"

    def __init__(self, d: int, n_layers: int, hidden_dim: int, middle_dim: int, rng):
        if n_layers < 1:
            raise ValueError("need at least one layer per block")
        self.d = d
        self.n_layers = n_layers
        self.hidden_dim = hidden_dim
        self.middle_dim = middle_dim
        inner_dims = [d] + [hidden_dim] * (n_layers - 1) + [middle_dim]
        outer_dims = [middle_dim] + [hidden_dim] * (n_layers - 1) + [d]
        from .invertible import mlp_param_count

        inner_size = mlp_param_count(inner_dims)
        self.store = ParamStore(inner_size + mlp_param_count(outer_dims))
        self.inner = Mlp(self.store, 0, inner_dims, rng)
        self.outer = Mlp(self.store, inner_size, outer_dims, rng)

    def _canonical(self, X: np.ndarray) -> np.ndarray:
        """Multiset rows sorted lexicographically; fixes the summation order."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if X.shape[0] == 0:
            raise EmptyMultisetError("empty multiset")
        if X.shape[1] != self.d:
            raise ValueError(f"dimension mismatch: expected {self.d}, got {X.shape[1]}")
        require_finite(X)
        return X[np.lexsort(X.T[::-1])]

    def forward(self, X) -> np.ndarray:
        X = self._canonical(X)
        feats = self.inner.forward_np(X)
        pooled = feats[0].copy()
        for i in range(1, len(feats)):
            pooled += feats[i]
        return self.outer.forward_np(pooled)

    def fold(self, X) -> np.ndarray:
        return self.forward(X)

    def fold_many(self, multisets) -> np.ndarray:
        out = np.empty((len(multisets), self.d))
        by_size: dict[int, list[int]] = {}
        for i, ms in enumerate(multisets):
            by_size.setdefault(len(ms), []).append(i)
        for m, idx in by_size.items():
            block = np.stack([self._canonical(multisets[i]) for i in idx])
            feats = self.inner.forward_np(block.reshape(-1, self.d))
            feats = feats.reshape(len(idx), m, self.middle_dim)
            pooled = feats[:, 0].copy()
            for e in range(1, m):
                pooled += feats[:, e]
            out[idx] = self.outer.forward_np(pooled)
        return out

    def selection_margin(self, X) -> float:
        """Distance of the nearest hidden ReLU pre-activation from zero."""
        X = self._canonical(X)
        margin = min(self.inner.relu_margin(row) for row in X)
        pooled = self.inner.forward_np(X).sum(axis=0)
        return min(margin, self.outer.relu_margin(pooled))

    # -- training path ---------------------------------------------------------

    def stage(self, tape: Tape) -> Staged:
        return Staged(tape, tape.stage_params(self.store))

    def fold_batch_on_tape(self, staged: Staged, multisets) -> list[list[int]]:
        """Every element through the inner block at once, one sum-pooling
        block in canonical order, then the outer block on the pooled rows."""
        tape = staged.tape
        sets = [self._canonical(X) for X in multisets]
        if not sets:
            return []
        d, width = self.d, self.middle_dim
        elems = tape.consts(np.concatenate(sets).ravel())
        feats = self.inner.forward_on_tape(
            staged, [elems[r * d : (r + 1) * d] for r in range(len(elems) // d)])
        flat = [x for f in feats for x in f]
        counts = [len(X) for X in sets]
        starts = np.cumsum([0] + counts[:-1])
        pooled = np.add.reduceat(np.asarray(tape.vals(flat)).reshape(-1, width),
                                 starts, axis=0)

        def vjp(g):
            return [(flat, np.repeat(g.reshape(pooled.shape), counts, axis=0).ravel())]

        ids = tape.block(pooled.ravel(), vjp)
        return self.outer.forward_on_tape(
            staged, [ids[i * width : (i + 1) * width] for i in range(len(sets))])
