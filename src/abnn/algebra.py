"""Associative symmetric polynomials in two variables.

A symmetric polynomial binary operation is associative exactly when it is
a constant, a shifted addition ``alpha + x + y``, or the bilinear family
``beta(beta-1)/gamma + beta(x+y) + gamma*x*y``. This module checks
associativity by exact expansion of ``(x*y)*z`` against ``x*(y*z)``,
and classifies associative inputs into those canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "SymPoly2",
    "AssociativityResult",
    "CanonicalForm",
    "NotAssociative",
    "MAX_DEGREE",
    "is_associative",
    "classify",
]

MAX_DEGREE = 4
COEFF_TOL = 1e-12


class SymPoly2:
    """Two-variable polynomial ``x*y = sum alpha[i,j] x^i y^j``."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient grid must be square")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def is_symmetric(self, tol: float = COEFF_TOL) -> bool:
        return bool(np.max(np.abs(self.coeffs - self.coeffs.T)) <= tol)

    def __call__(self, x, y):
        return npoly.polyval2d(x, y, self.coeffs)


@dataclass
class AssociativityResult:
    ok: bool
    witness: tuple[float, float, float] | None = None
    witness_gap: float = 0.0
    max_coeff_gap: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class NotAssociative:
    """Classification outcome for a non-associative input, with a witness."""

    witness: tuple[float, float, float]
    witness_gap: float


@dataclass
class CanonicalForm:
    """One of the three associative symmetric shapes.

    constant: x*y = alpha;  additive: x*y = alpha + x + y;
    bilinear: x*y = beta(beta-1)/gamma + beta(x+y) + gamma*x*y.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "additive", "bilinear"):
            raise ValueError(f"unknown canonical kind {self.kind!r}")
        if self.kind == "bilinear":
            if self.gamma == 0.0:
                raise ValueError("bilinear form requires gamma != 0")
            want = self.beta * (self.beta - 1.0) / self.gamma
            if abs(self.alpha - want) > 1e-9 * max(1.0, abs(want)):
                raise ValueError("bilinear constant term must be beta(beta-1)/gamma")
        if self.kind == "additive":
            self.beta = 1.0
            self.gamma = 0.0
        if self.kind == "constant":
            self.beta = 0.0
            self.gamma = 0.0

    @classmethod
    def constant(cls, alpha: float) -> "CanonicalForm":
        return cls("constant", alpha=float(alpha))

    @classmethod
    def additive(cls, alpha: float) -> "CanonicalForm":
        return cls("additive", alpha=float(alpha))

    @classmethod
    def bilinear(cls, beta: float, gamma: float) -> "CanonicalForm":
        beta, gamma = float(beta), float(gamma)
        return cls("bilinear", alpha=beta * (beta - 1.0) / gamma,
                   beta=beta, gamma=gamma)


def _poly2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for ia in range(a.shape[0]):
        for ja in range(a.shape[1]):
            if a[ia, ja] != 0.0:
                out[ia : ia + b.shape[0], ja : ja + b.shape[1]] += a[ia, ja] * b
    return out


def _pad_to(arr: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[tuple(slice(0, s) for s in arr.shape)] = arr
    return out


def _expand_sides(p: SymPoly2):
    """Trivariate coefficient tensors of (x*y)*z and x*(y*z)."""
    c = p.coeffs
    n = p.degree
    u_pows = [np.ones((1, 1))]
    for _ in range(n):
        u_pows.append(_poly2_mul(u_pows[-1], c))
    big = n * n + 1
    left = np.zeros((big, big, n + 1))
    right = np.zeros((n + 1, big, big))
    for i in range(n + 1):
        for j in range(n + 1):
            if c[i, j] == 0.0:
                continue
            ui = u_pows[i]
            left[: ui.shape[0], : ui.shape[1], j] += c[i, j] * ui
            uj = u_pows[j]
            right[i, : uj.shape[0], : uj.shape[1]] += c[i, j] * uj
    shape = tuple(np.maximum(left.shape, right.shape))
    return _pad_to(left, shape), _pad_to(right, shape)


def _witness(p: SymPoly2) -> tuple[tuple[float, float, float], float]:
    """Max-discrepancy triple among 100 seeded samples in [-2, 2]^3."""
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.0, 2.0, size=(100, 3))
    gaps = np.abs(p(p(pts[:, 0], pts[:, 1]), pts[:, 2])
                  - p(pts[:, 0], p(pts[:, 1], pts[:, 2])))
    i = int(np.argmax(gaps))
    return tuple(float(v) for v in pts[i]), float(gaps[i])


def is_associative(p: SymPoly2, tol: float = COEFF_TOL) -> AssociativityResult:
    """Exact check that (x*y)*z and x*(y*z) agree as polynomials.

    On failure the result carries the worst of 100 sampled triples as a
    concrete counterexample.
    """
    if p.degree > MAX_DEGREE:
        raise ValueError(f"degree {p.degree} exceeds the expansion bound {MAX_DEGREE}")
    left, right = _expand_sides(p)
    gap = float(np.max(np.abs(left - right)))
    if gap <= tol:
        return AssociativityResult(True, max_coeff_gap=gap)
    witness, wgap = _witness(p)
    return AssociativityResult(False, witness=witness, witness_gap=wgap,
                               max_coeff_gap=gap)


def classify(p: SymPoly2, tol: float = 1e-9):
    """CanonicalForm for associative symmetric input, else NotAssociative."""
    if not p.is_symmetric():
        raise ValueError("not symmetric")
    res = is_associative(p)
    if not res:
        return NotAssociative(witness=res.witness, witness_gap=res.witness_gap)
    c = p.coeffs
    high = c.copy()
    high[: min(2, c.shape[0]), : min(2, c.shape[1])] = 0.0
    if np.max(np.abs(high)) > tol:
        # the characterization forbids this for associative symmetric input
        raise RuntimeError("associative polynomial with terms above first order")
    alpha = float(c[0, 0])
    beta = float(c[1, 0]) if c.shape[0] > 1 else 0.0
    gamma = float(c[1, 1]) if c.shape[0] > 1 else 0.0
    if abs(gamma) > tol:
        return CanonicalForm.bilinear(beta, gamma)
    if abs(beta - 1.0) <= tol:
        return CanonicalForm.additive(alpha)
    if abs(beta) <= tol:
        return CanonicalForm.constant(alpha)
    raise RuntimeError("associative polynomial outside the three canonical forms")
