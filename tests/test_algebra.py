import numpy as np
import pytest

from abnn.algebra import (
    CanonicalForm,
    NotAssociative,
    SymPoly2,
    classify,
    is_associative,
)


def poly(grid):
    return SymPoly2(np.array(grid, dtype=np.float64))


ADDITION = poly([[0.0, 1.0], [1.0, 0.0]])                    # x + y
BILINEAR_EXAMPLE = poly([[3.0, 3.0], [3.0, 2.0]])            # 3 + 3(x+y) + 2xy
BROKEN_CONSTANT = poly([[1.0, 1.0], [1.0, 1.0]])             # 1 + x + y + xy
HALF_BILINEAR = poly([[0.0, 1.0], [1.0, 0.5]])               # x + y + xy/2
SQUARES = poly([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # x^2 + y^2


def random_symmetric_poly(rng, degree=3):
    """Sparse random symmetric grid; rarely associative by accident."""
    n = degree + 1
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                c[i, j] = c[j, i] = rng.uniform(-2.0, 2.0)
    return SymPoly2(c)


def planted_associative(rng, degree=3):
    """A known-associative instance embedded in a degree-`degree` grid."""
    n = degree + 1
    c = np.zeros((n, n))
    kind = rng.integers(3)
    if kind == 0:
        c[0, 0] = rng.uniform(-2, 2)
    elif kind == 1:
        c[0, 0] = rng.uniform(-2, 2)
        c[1, 0] = c[0, 1] = 1.0
    else:
        beta = rng.uniform(-2, 2)
        gamma = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        c[0, 0] = beta * (beta - 1.0) / gamma
        c[1, 0] = c[0, 1] = beta
        c[1, 1] = gamma
    return SymPoly2(c)


class TestIsAssociative:
    def test_addition(self):
        assert is_associative(ADDITION)

    def test_bilinear_with_matching_constant(self):
        # alpha*gamma = beta(beta-1): 3*2 = 3*2
        res = is_associative(BILINEAR_EXAMPLE)
        assert res.ok
        # numeric spot check on sampled triples agrees
        rng = np.random.default_rng(1)
        x, y, z = rng.uniform(-2, 2, size=(3, 100))
        p = BILINEAR_EXAMPLE
        assert np.max(np.abs(p(p(x, y), z) - p(x, p(y, z)))) < 1e-10

    def test_wrong_constant_fails_with_witness(self):
        # beta=1, gamma=1 forces constant 0, not 1
        res = is_associative(BROKEN_CONSTANT)
        assert not res.ok
        x, y, z = res.witness
        p = BROKEN_CONSTANT
        gap = abs(p(p(x, y), z) - p(x, p(y, z)))
        assert gap == pytest.approx(res.witness_gap)
        assert gap > 1e-6

    def test_degree_bound(self):
        with pytest.raises(ValueError, match="degree"):
            is_associative(SymPoly2(np.zeros((7, 7))))

    def test_witness_is_max_discrepancy_of_sample(self):
        res = is_associative(SQUARES)
        assert not res.ok
        assert res.witness_gap > 0.0


class TestClassify:
    def test_constant(self):
        form = classify(poly([[5.0]]))
        assert isinstance(form, CanonicalForm)
        assert form.kind == "constant"
        assert form.alpha == pytest.approx(5.0)

    def test_additive(self):
        form = classify(poly([[1.0, 1.0], [1.0, 0.0]]))
        assert form.kind == "additive"
        assert form.alpha == pytest.approx(1.0)

    def test_bilinear_half(self):
        form = classify(HALF_BILINEAR)
        assert form.kind == "bilinear"
        assert form.beta == pytest.approx(1.0)
        assert form.gamma == pytest.approx(0.5)
        assert form.alpha == pytest.approx(0.0)  # beta(beta-1)/gamma

    def test_squares_rejected_with_witness(self):
        out = classify(SQUARES)
        assert isinstance(out, NotAssociative)
        x, y, z = out.witness
        p = SQUARES
        assert abs(p(p(x, y), z) - p(x, p(y, z))) > 1e-6

    def test_asymmetric_is_an_error(self):
        with pytest.raises(ValueError, match="not symmetric"):
            classify(poly([[0.0, 1.0], [0.0, 0.0]]))

    def test_agreement_with_is_associative(self):
        rng = np.random.default_rng(2)
        n_assoc = 0
        for i in range(2000):
            p = planted_associative(rng) if i % 5 == 0 else random_symmetric_poly(rng)
            res = is_associative(p)
            out = classify(p)
            assert res.ok == isinstance(out, CanonicalForm)
            if res.ok:
                n_assoc += 1
                gap = out.alpha * out.gamma - out.beta * (out.beta - 1.0)
                assert abs(gap) < 1e-9
                # at most first order in each variable
                c = p.coeffs
                if c.shape[0] > 2:
                    assert np.max(np.abs(c[2:, :])) <= 1e-12
                    assert np.max(np.abs(c[:, 2:])) <= 1e-12
        assert n_assoc >= 2000 // 5  # every planted one was found
