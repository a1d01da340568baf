"""DeepSets comparison model: outer(sum of inner(x) over the multiset).

Sum pooling between the two feedforward blocks makes the output
permutation invariant; summation runs in a canonical element order so it
is invariant bit for bit.
"""

from __future__ import annotations

import numpy as np

from .abelian import EmptyMultisetError, require_finite
from .invertible import Mlp, stack_param_count
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
        self.store = ParamStore(self.param_count(d, n_layers, hidden_dim, middle_dim))
        self.inner = Mlp(self.store, 0, inner_dims, rng)
        self.outer = Mlp(self.store, self.inner.size, outer_dims, rng)

    @staticmethod
    def param_count(d: int, n_layers: int, hidden_dim: int, middle_dim: int) -> int:
        """Store size of a model with this structure; ``__init__`` allocates it."""
        return (stack_param_count(d, hidden_dim, n_layers, middle_dim)
                + stack_param_count(middle_dim, hidden_dim, n_layers, d))

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
        return self.fold_many([X])[0]

    def fold(self, X) -> np.ndarray:
        return self.fold_many([X])[0]

    def fold_many(self, multisets) -> np.ndarray:
        """The model on a list of multisets as (n, d) rows."""
        if len(multisets) == 0:
            return np.empty((0, self.d))
        return self._fold(multisets, np.asarray, Mlp.forward_np,
                          lambda feats, starts, counts: np.add.reduceat(feats, starts, axis=0))

    def _fold(self, multisets, stage, run, pool):
        """The fold body of ``fold_many`` and ``fold_batch_on_tape``.

        Every multiset is sorted canonically and ``stage`` takes all their
        elements as one array. ``run(mlp, x)`` applies the inner block to
        them, ``pool(feats, starts, counts)`` sums each multiset's rows by
        ``np.add.reduceat``, and ``run`` applies the outer block to the sums.
        """
        sets = [self._canonical(X) for X in multisets]
        counts = [len(X) for X in sets]
        feats = run(self.inner, stage(np.concatenate(sets)))
        return run(self.outer, pool(feats, np.cumsum([0] + counts[:-1]), counts))

    def selection_margin(self, X) -> float:
        """Distance of the nearest hidden ReLU pre-activation from zero."""
        X = self._canonical(X)
        margin = min(self.inner.relu_margin(row) for row in X)
        pooled = self.inner.forward_np(X).sum(axis=0)
        return min(margin, self.outer.relu_margin(pooled))

    # -- training path ---------------------------------------------------------

    def fold_batch_on_tape(self, tape: Tape, params: int, multisets) -> int:
        """The fold of ``fold_many`` as three tape blocks: the inner block on
        every element at once, the sum pooling, and the outer block."""

        def pool(feats, starts, counts):
            return tape.block(np.add.reduceat(tape.val(feats), starts, axis=0),
                              lambda g: [(feats, np.repeat(g, counts, axis=0))])

        return self._fold(multisets, tape.consts,
                          lambda mlp, x: mlp.forward_on_tape(tape, params, x), pool)
