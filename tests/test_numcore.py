import math

import numpy as np
import pytest

from abnn.numcore import (
    DanglingNodeError,
    DivergedError,
    ParamStore,
    Tape,
    adam_step,
    cosine,
    cosine_on_tape,
    mse_loss,
    mse_on_tape,
)

from gradcheck import assert_grad_close, central_diff


def grad_of(f, values):
    """Run f on a fresh tape over staged params, return store.grads."""
    store = ParamStore(len(values))
    store.values[:] = values
    tape = Tape()
    base = tape.stage_params(store)
    out = f(tape, [base + i for i in range(len(values))])
    tape.backward(out)
    return store.grads.copy()


class TestBackward:
    def test_square(self):
        g = grad_of(lambda t, p: t.square(p[0]), [3.0])
        assert g[0] == pytest.approx(6.0, abs=1e-12)

    def test_constant_is_unreachable(self):
        g = grad_of(lambda t, p: t.const(4.25), [3.0])
        assert g[0] == 0.0

    def test_product_plus_exp(self):
        # f(t1, t2) = t1*t2 + exp(t1) at (1, 2)
        def f(t, p):
            return t.add(t.mul(p[0], p[1]), t.exp(p[0]))

        g = grad_of(f, [1.0, 2.0])
        assert g[0] == pytest.approx(2.0 + math.exp(1.0), abs=1e-12)
        assert g[1] == pytest.approx(1.0, abs=1e-12)
        # and against the independent oracle
        fd = central_diff(lambda x: x[0] * x[1] + math.exp(x[0]), [1.0, 2.0], h=1e-6)
        assert_grad_close(g, fd)

    def test_dangling_node(self):
        tape = Tape()
        tape.const(1.0)
        with pytest.raises(DanglingNodeError, match="dangling node"):
            tape.backward(17)

    def test_grads_accumulate_across_stages(self):
        store = ParamStore(1)
        store.values[:] = [2.0]
        tape = Tape()
        b1 = tape.stage_params(store)
        b2 = tape.stage_params(store)
        out = tape.mul(b1, b2)  # f = theta * theta via two stagings
        tape.backward(out)
        assert store.grads[0] == pytest.approx(4.0)

    def test_block_chains_with_scalar_nodes(self):
        # f = u*w + exp(u + w) with u = p0^2 and w = p1*p2; the pair
        # (u*w, u + w) is one block over a scalar node, and w is a block
        # whose product rule adds into the staged range
        def f(t, p):
            u = t.square(p[0])
            v1, v2 = t.val(p[1]), t.val(p[2])
            (w,) = t.block([v1 * v2],
                           lambda g: [(range(p[1], p[2] + 1), g * np.array([v2, v1]))])
            vu, vw = t.val(u), t.val(w)
            prod, total = t.block(
                [vu * vw, vu + vw],
                lambda g: [([u, w], np.array([g[0] * vw + g[1], g[0] * vu + g[1]]))])
            return t.add(prod, t.exp(total))

        values = [1.3, -0.7, 0.4]
        fd = central_diff(lambda x: x[0] ** 2 * x[1] * x[2]
                          + math.exp(x[0] ** 2 + x[1] * x[2]), values, h=1e-6)
        assert_grad_close(grad_of(f, values), fd)


def tanh_from_exp(t, u):
    """tanh(u) = (1 - e^(-2u)) / (1 + e^(-2u)) from the tape's primitives."""
    e = t.exp(t.neg(t.add(u, u)))
    one = t.const(1.0)
    return t.div(t.sub(one, e), t.add(one, e))


def maximum(t, a, b):
    """max(a, b) as a one-output block; a tie routes the gradient to a."""
    pick = a if t.val(a) >= t.val(b) else b
    (out,) = t.block([t.val(pick)], lambda g: [([pick], g)])
    return out


def minimum(t, a, b):
    """min(a, b) as a one-output block; a tie routes the gradient to a."""
    pick = a if t.val(a) <= t.val(b) else b
    (out,) = t.block([t.val(pick)], lambda g: [([pick], g)])
    return out


def sqrt(t, a):
    """sqrt(a) as a one-output block with derivative 1 / (2 sqrt(a))."""
    v = math.sqrt(t.val(a))
    (out,) = t.block([v], lambda g: [([a], g * 0.5 / v)])
    return out


class TestPrimitiveGradients:
    """Reverse-mode vs central differences for composite chains of scalar
    nodes and one-output blocks."""

    COMPOSITES = {
        "rational": lambda t, p: t.div(t.add(t.mul(p[0], p[1]), t.const(3.0)),
                                       t.add(t.square(p[2]), t.const(1.5))),
        "tanh_relu": lambda t, p: t.add(tanh_from_exp(t, t.mul(p[0], p[1])),
                                        maximum(t, p[2], t.const(0.0))),
        "minmax": lambda t, p: minimum(t, maximum(t, p[0], p[1]),
                                       t.add(p[2], t.const(0.25))),
        "sqrt_chain": lambda t, p: sqrt(t, t.add(t.square(p[0]),
                                                 t.add(t.square(p[1]),
                                                       t.square(p[2])))),
        "affine": lambda t, p: t.exp(t.affine(p[:2], p[1:], t.const(0.1))),
    }

    NUMPY_EQUIV = {
        "rational": lambda x: (x[0] * x[1] + 3.0) / (x[2] ** 2 + 1.5),
        "tanh_relu": lambda x: math.tanh(x[0] * x[1]) + max(x[2], 0.0),
        "minmax": lambda x: min(max(x[0], x[1]), x[2] + 0.25),
        "sqrt_chain": lambda x: math.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2),
        "affine": lambda x: math.exp(x[0] * x[1] + x[1] * x[2] + 0.1),
    }

    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    def test_matches_finite_differences(self, name):
        rng = np.random.default_rng(42)
        build = self.COMPOSITES[name]
        ref = self.NUMPY_EQUIV[name]
        checked = 0
        while checked < 100:
            x = rng.uniform(-2.0, 2.0, size=3)
            if name == "minmax" and (abs(x[0] - x[1]) < 1e-3
                                     or abs(max(x[0], x[1]) - x[2] - 0.25) < 1e-3):
                continue  # keep away from selection ties
            if name == "tanh_relu" and abs(x[2]) < 1e-3:
                continue
            g = grad_of(lambda t, p: build(t, p), x)
            fd = central_diff(ref, x, h=1e-5)
            assert_grad_close(g, fd)
            checked += 1


class TestAdam:
    def test_zero_gradient_leaves_values(self):
        store = ParamStore(3)
        store.values[:] = [1.0, -2.0, 0.5]
        before = store.values.copy()
        adam_step(store)
        assert np.array_equal(store.values, before)
        assert store.step_count == 1

    def test_first_step_magnitude(self):
        # hand-run recurrences at t=1 with g=1:
        # m_hat = v_hat = 1, so delta = -lr / (1 + eps)
        store = ParamStore(1)
        store.values[:] = [0.7]
        store.grads[:] = [1.0]
        adam_step(store, lr=1e-3)
        expected = 0.7 - 1e-3 / (1.0 + 1e-8)
        assert store.values[0] == pytest.approx(expected, abs=1e-15)
        assert np.all(store.grads == 0.0)

    def test_second_identical_gradient_no_larger(self):
        # t=2 with the same g: m_hat = v_hat = 1 again, same step size
        store = ParamStore(1)
        store.grads[:] = [0.3]
        v0 = float(store.values[0])
        adam_step(store, lr=1e-3)
        d1 = abs(store.values[0] - v0)
        v1 = float(store.values[0])
        store.grads[:] = [0.3]
        adam_step(store, lr=1e-3)
        d2 = abs(store.values[0] - v1)
        assert d2 <= d1 + 1e-8

    def test_nonfinite_gradient_raises(self):
        store = ParamStore(2)
        store.grads[:] = [1.0, math.nan]
        with pytest.raises(DivergedError, match="diverged"):
            adam_step(store)

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(7)
            store = ParamStore(5)
            store.values[:] = rng.normal(size=5)
            for _ in range(50):
                store.grads[:] = rng.normal(size=5)
                adam_step(store, lr=3e-3, weight_decay=1e-4)
            return store.values.copy()

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_weight_decay_pulls_toward_zero(self):
        store = ParamStore(1)
        store.values[:] = [5.0]
        adam_step(store, weight_decay=0.1)
        assert store.values[0] < 5.0


class TestMseLoss:
    def test_identical(self):
        assert mse_loss([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_single_example(self):
        assert mse_loss([[1.0]], [[3.0]]) == pytest.approx(4.0)

    def test_batch_average(self):
        assert mse_loss([[0.0], [2.0]], [[1.0], [0.0]]) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_loss([[1.0, 2.0]], [[1.0]])

    def test_tape_version_matches(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        tape = Tape()
        nodes = [[tape.const(v) for v in row] for row in pred]
        loss = mse_on_tape(tape, nodes, target)
        assert tape.val(loss) == pytest.approx(mse_loss(pred, target), rel=1e-12)

    def test_tape_gradient(self):
        rng = np.random.default_rng(3)
        target = rng.normal(size=(2, 2))

        def f(t, p):
            return mse_on_tape(t, [[p[0], p[1]], [p[2], p[3]]], target)

        x = rng.normal(size=4)
        g = grad_of(f, x)
        fd = central_diff(
            lambda v: mse_loss(v.reshape(2, 2), target), x)
        assert_grad_close(g, fd)


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariant(self):
        assert cosine([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_positive_scaling_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=6)
            c = float(rng.uniform(0.01, 100.0))
            assert cosine(v, c * v) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v, w = rng.normal(size=(2, 5))
            assert cosine(v, w) == pytest.approx(cosine(w, v), abs=1e-14)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_tape_version_and_gradient(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=4)

        def f(t, p):
            return cosine_on_tape(t, [p], w[None])  # a one-row batch

        x = rng.normal(size=4)
        tape = Tape()
        store = ParamStore(4)
        store.values[:] = x
        base = tape.stage_params(store)
        node = f(tape, [base + i for i in range(4)])
        assert tape.val(node) == pytest.approx(cosine(x, w), rel=1e-12)

        g = grad_of(f, x)
        fd = central_diff(lambda v: cosine(v, w), x)
        assert_grad_close(g, fd)

    def test_tape_batch_is_the_mean_of_row_cosines(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(5, 3))

        def f(t, p):
            return cosine_on_tape(t, [p[r * 3 : (r + 1) * 3] for r in range(5)], w)

        x = rng.normal(size=15)
        tape = Tape()
        node = f(tape, tape.consts(x))
        want = np.mean([cosine(v, u) for v, u in zip(x.reshape(5, 3), w)])
        assert tape.val(node) == pytest.approx(want, rel=1e-12)

        g = grad_of(f, x)
        fd = central_diff(
            lambda v: np.mean([cosine(r, u) for r, u in zip(v.reshape(5, 3), w)]), x)
        assert_grad_close(g, fd)

    def test_tape_zero_row_is_an_error(self):
        tape = Tape()
        rows = [tape.consts([1.0, 2.0]), tape.consts([0.0, 0.0])]
        with pytest.raises(ValueError, match="zero vector"):
            cosine_on_tape(tape, rows, np.ones((2, 2)))
