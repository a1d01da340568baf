"""Abelian group and semigroup operations built from invertible maps.

An :class:`AbelianOp` conjugates a combiner through a bijection phi:
``x o y = phi^{-1}(phi(x) + phi(y))`` with the sum combiner (a group:
identity and inverses exist) or ``phi^{-1}(phi(x) * phi(y))`` with the
elementwise product (a semigroup). Folding the combiner over a multiset
gives a permutation-invariant model whose error on large multisets is
bounded by the Lipschitz constants of phi and its inverse; the bound and
its empirical check live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .invertible import Staged
from .numcore import Tape

__all__ = [
    "AbelianOp",
    "NotAGroupError",
    "EmptyMultisetError",
    "SizeGenBound",
    "LipschitzEstimate",
    "size_generalization_bound",
    "estimate_lipschitz",
    "estimate_inverse_lipschitz",
    "size_generalization_check",
]

SUM = "sum"
PRODUCT = "product"


def map_forward(phi, v: np.ndarray) -> np.ndarray:
    """phi on an array of (..., d) vectors; a d=1 net maps the scalars."""
    if phi.d == 1:
        return np.asarray(phi.forward(v[..., 0]))[..., None]
    return phi.forward(v)


def map_inverse(phi, z: np.ndarray) -> np.ndarray:
    """phi^{-1} on an array of (..., d) vectors."""
    if phi.d == 1:
        return phi.inverse_batch(z[..., 0])[..., None]
    return phi.inverse(z)


def require_finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite element: NaN or infinity in the input")
    return x


class NotAGroupError(ValueError):
    """Identity/inverse requested from a semigroup-only operation."""


class EmptyMultisetError(ValueError):
    """Fold over an empty multiset (no identity is guaranteed to exist)."""


class AbelianOp:
    """Binary operation phi^{-1}(phi(x) combiner phi(y)) and its multiset fold.

    ``phi`` is a MonotonicNet (d=1) or CouplingFlow (d>=2). The sum
    combiner yields a commutative group; the elementwise product only a
    commutative semigroup, so identity/inverse raise for it.
    """

    def __init__(self, phi, combiner: str):
        if combiner not in (SUM, PRODUCT):
            raise ValueError(f"unknown combiner {combiner!r}")
        self.phi = phi
        self.combiner = combiner
        self.d = phi.d

    @property
    def store(self):
        return self.phi.store

    @property
    def kind(self) -> str:
        tag = "agn" if self.combiner == SUM else "asn"
        return f"{tag}-{self.phi.kind}"

    # -- input normalization: vectors always travel as (..., d) arrays -------

    def _as_vectors(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            x = x[None]
        if x.shape[-1] != self.d:
            raise ValueError(f"dimension mismatch: expected {self.d}, got {x.shape[-1]}")
        return require_finite(x)

    def _as_multiset(self, X) -> np.ndarray:
        """Normalize to (m, d); a flat array is a 1-D multiset when d=1,
        otherwise a single vector. Callers check finiteness once over all
        the multisets of a call."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None] if self.d == 1 else X[None, :]
        if X.ndim != 2 or X.shape[-1] != self.d:
            raise ValueError(f"dimension mismatch: expected (m, {self.d}), got {X.shape}")
        return X

    def _combine_vals(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b if self.combiner == SUM else a * b

    # -- the operation --------------------------------------------------------

    def combine(self, x, y) -> np.ndarray:
        """x o y; broadcasts over leading batch axes."""
        x = self._as_vectors(x)
        y = self._as_vectors(y)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        phi = self.phi
        return map_inverse(phi, self._combine_vals(map_forward(phi, x), map_forward(phi, y)))

    def identity_element(self) -> np.ndarray:
        if self.combiner != SUM:
            raise NotAGroupError("not a group: product combiner has no identity")
        return map_inverse(self.phi, np.zeros((1, self.d)))[0]

    def inverse_element(self, x) -> np.ndarray:
        if self.combiner != SUM:
            raise NotAGroupError("not a group: product combiner has no inverses")
        x = self._as_vectors(x)
        return map_inverse(self.phi, -map_forward(self.phi, x))

    def fold(self, X) -> np.ndarray:
        """Combiner applied across phi of every element, then phi^{-1}.

        Left fold in stored order; commutativity makes the order
        semantically irrelevant but fixing it keeps results reproducible.
        """
        X = require_finite(self._as_multiset(X))
        if X.shape[0] == 0:
            raise EmptyMultisetError("empty multiset")
        f = map_forward(self.phi, X)
        acc = f[0]
        for i in range(1, len(f)):
            acc = self._combine_vals(acc, f[i])
        return map_inverse(self.phi, acc[None])[0]

    def fold_many(self, multisets) -> np.ndarray:
        """Vectorized fold over a list of multisets; groups equal sizes."""
        n = len(multisets)
        out = np.empty((n, self.d))
        by_size: dict[int, list[int]] = {}
        for i, ms in enumerate(multisets):
            by_size.setdefault(len(ms), []).append(i)
        for m, idx in by_size.items():
            if m == 0:
                raise EmptyMultisetError("empty multiset")
            block = require_finite(np.stack([self._as_multiset(multisets[i]) for i in idx]))
            f = map_forward(self.phi, block)  # (g, m, d)
            acc = f[:, 0]
            for e in range(1, m):
                acc = self._combine_vals(acc, f[:, e])
            out[idx] = map_inverse(self.phi, acc)
        return out

    # -- tape (training) paths -------------------------------------------------

    def stage(self, tape: Tape) -> Staged:
        return self.phi.stage(tape)

    def fold_batch_on_tape(self, staged: Staged, multisets) -> list[list[int]]:
        """Record folds for a whole batch: phi on every element row, the
        combiner over each multiset in stored order, then phi^{-1} on all
        the combined rows."""
        if any(len(ms) == 0 for ms in multisets):
            raise EmptyMultisetError("empty multiset")
        sets = [self._as_multiset(ms) for ms in multisets]
        tape = staged.tape
        d = self.d
        elems = tape.consts(require_finite(np.concatenate(sets)).ravel())
        phis = self.phi.forward_on_tape(
            staged, [elems[r : r + d] for r in range(0, len(elems), d)])
        combine = tape.add if self.combiner == SUM else tape.mul
        zs = []
        pos = 0
        for X in sets:
            zs.append([reduce(combine, col) for col in zip(*phis[pos : pos + len(X)])])
            pos += len(X)
        return self.phi.inverse_on_tape(staged, zs)


# -- Lipschitz estimation and the size-generalization bound -------------------


class LipschitzEstimate(NamedTuple):
    """Sampled Lipschitz constants; max-ratio estimates are lower bounds."""

    k1: float
    k2: float
    lower_bound: bool = True


def _sample_box(lo, hi, n, d, rng):
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (d,))
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (d,))
    return rng.uniform(lo, hi, size=(n, d))


def estimate_lipschitz(map_like, lo, hi, samples: int, rng) -> LipschitzEstimate:
    """Lower-bound K1 (of the map) and K2 (of its inverse) on a box.

    Max ratio ||f(u)-f(v)|| / ||u-v|| over sampled pairs, and the
    reciprocal ratio over the image pairs for the inverse.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    d = map_like.d
    u = _sample_box(lo, hi, samples, d, rng)
    v = _sample_box(lo, hi, samples, d, rng)
    fu = map_forward(map_like, u)
    fv = map_forward(map_like, v)
    num = np.linalg.norm(fu - fv, axis=-1)
    den = np.linalg.norm(u - v, axis=-1)
    ok = (den > 0) & (num > 0)
    k1 = float(np.max(num[ok] / den[ok]))
    k2 = float(np.max(den[ok] / num[ok]))
    return LipschitzEstimate(k1, k2)


def estimate_inverse_lipschitz(map_like, z_lo, z_hi, samples: int, rng) -> float:
    """Lower-bound the Lipschitz constant of the inverse map on a z-box."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    d = map_like.d
    u = _sample_box(z_lo, z_hi, samples, d, rng)
    v = _sample_box(z_lo, z_hi, samples, d, rng)
    gu = map_inverse(map_like, u)
    gv = map_inverse(map_like, v)
    num = np.linalg.norm(gu - gv, axis=-1)
    den = np.linalg.norm(u - v, axis=-1)
    ok = den > 0
    return float(np.max(num[ok] / den[ok]))


@dataclass
class SizeGenBound:
    """Inputs of the multiset error bound.

    epsilon bounds the model error on multisets of size <= a; k1 and k2
    are Lipschitz constants of phi and its inverse over the reachable
    region; the bound then covers multisets of size b.
    """

    epsilon: float
    a: int
    b: int
    k1: float
    k2: float

    def __post_init__(self):
        if self.a < 2:
            raise ValueError("small-size threshold a must be >= 2")
        if self.b < self.a:
            raise ValueError("evaluation size b must be >= a")
        if self.k1 * self.k2 < 1.0:
            raise ValueError(
                "k1 * k2 < 1 is impossible for mutually inverse maps")


def _ceil_log(a: int, b: int) -> int:
    """Smallest n with a**n >= b, in exact integer arithmetic."""
    n, p = 0, 1
    while p < b:
        p *= a
        n += 1
    return n


def size_generalization_bound(sg: SizeGenBound) -> float:
    """epsilon * ((a K1 K2)^ceil(log_a b) - 1) / (a K1 K2 - 1)."""
    c = sg.a * sg.k1 * sg.k2
    if c <= 1.0:
        raise ValueError("degenerate Lipschitz product: a * k1 * k2 <= 1")
    n = _ceil_log(sg.a, sg.b)
    return sg.epsilon * (c**n - 1.0) / (c - 1.0)


def size_generalization_check(
    op: AbelianOp,
    target_fold,
    base_lo: float,
    base_hi: float,
    a: int,
    b: int,
    seed: int,
    large_sets=None,
    inflate: float = 1.5,
    n_small: int = 4000,
    n_large: int = 1000,
) -> dict:
    """Empirical test of the size bound for a trained 1-D sum-combiner op.

    The recursion behind the bound splits a size-b multiset into a parts
    and re-folds their exact values, so epsilon and K1 must cover elements
    up to folds of ceil(b/a) base elements, not just the base box. The
    sampled Lipschitz products are lower bounds, hence the inflation
    factor.

    Returns a dict with epsilon, k1, k2, the assembled bound, the measured
    max error on size-b multisets, and whether the bound holds.
    """
    if op.d != 1 or op.combiner != SUM:
        raise ValueError("check applies to 1-D sum-combiner operations")
    rng = np.random.default_rng(seed)

    # reachable element interval: base box plus folds of up to ceil(b/a) elements
    sub = math.ceil(b / a)
    lo, hi = float(base_lo), float(base_hi)
    probe = rng.uniform(base_lo, base_hi, size=(2000, sub))
    for m in range(2, sub + 1):
        vals = np.array([target_fold(row[:m]) for row in probe])
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    sizes = rng.integers(2, a + 1, size=n_small)
    eps = 0.0
    for m in sizes:
        ms = rng.uniform(lo, hi, size=int(m))
        err = abs(float(op.fold(ms)[0]) - float(target_fold(ms)))
        eps = max(eps, err)

    k1 = estimate_lipschitz(op.phi, lo, hi, 4000, rng).k1
    edge = op.phi.forward(np.array([lo, hi]))
    z_lo, z_hi = b * min(edge.min(), 0.0), b * max(edge.max(), 0.0)
    k2 = estimate_inverse_lipschitz(op.phi, z_lo, z_hi, 4000, rng)

    sg = SizeGenBound(epsilon=eps, a=a, b=b, k1=k1, k2=k2 * inflate)
    bound = size_generalization_bound(sg)

    if large_sets is None:
        large_sets = [rng.uniform(base_lo, base_hi, size=b) for _ in range(n_large)]
    measured = max(
        abs(float(op.fold(ms)[0]) - float(target_fold(np.asarray(ms, dtype=np.float64).reshape(-1))))
        for ms in large_sets
    )
    return {
        "epsilon": eps,
        "k1": k1,
        "k2": k2,
        "inflate": inflate,
        "bound": bound,
        "measured": measured,
        "holds": measured <= bound,
    }
