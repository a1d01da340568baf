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

from gradcheck import assert_grad_close, central_diff, reshaped


def vector_grad_of(f, values):
    """Run f on a fresh tape over one staged parameter vector, return
    store.grads."""
    store = ParamStore(len(values))
    store.values[:] = values
    tape = Tape()
    tape.backward(f(tape, tape.stage_params(store)))
    return store.grads.copy()


def grad_of(f, values):
    """As vector_grad_of, with f taking one scalar handle per parameter."""
    return vector_grad_of(lambda t, h: f(t, [pick(t, h, i) for i in range(len(values))]),
                          values)


# Scalar operations as one-output blocks, to build composite chains.


def pick(t, h, i):
    return t.block(t.val(h)[i], lambda g: [(h, g, i)])


def add(t, a, b):
    return t.block(t.val(a) + t.val(b), lambda g: [(a, g), (b, g)])


def sub(t, a, b):
    return t.block(t.val(a) - t.val(b), lambda g: [(a, g), (b, -g)])


def mul(t, a, b):
    va, vb = t.val(a), t.val(b)
    return t.block(va * vb, lambda g: [(a, g * vb), (b, g * va)])


def div(t, a, b):
    va, vb = t.val(a), t.val(b)
    v = va / vb
    return t.block(v, lambda g: [(a, g / vb), (b, -g * v / vb)])


def neg(t, a):
    return t.block(-t.val(a), lambda g: [(a, -g)])


def square(t, a):
    va = t.val(a)
    return t.block(va * va, lambda g: [(a, 2.0 * va * g)])


def exp(t, a):
    v = np.exp(t.val(a))
    return t.block(v, lambda g: [(a, g * v)])


def affine(t, xs, ws, bias):
    """``sum(w_i * x_i) + bias`` over scalar handles."""
    vx = [t.val(x) for x in xs]
    vw = [t.val(w) for w in ws]
    return t.block(sum(x * w for x, w in zip(vx, vw)) + t.val(bias),
                   lambda g: ([(bias, g)] + [(x, g * w) for x, w in zip(xs, vw)]
                              + [(w, g * x) for x, w in zip(vx, ws)]))


class TestBackward:
    def test_square(self):
        g = grad_of(lambda t, p: square(t, p[0]), [3.0])
        assert g[0] == pytest.approx(6.0, abs=1e-12)

    def test_constant_is_unreachable(self):
        g = grad_of(lambda t, p: t.consts(4.25), [3.0])
        assert g[0] == 0.0

    def test_product_plus_exp(self):
        # f(t1, t2) = t1*t2 + exp(t1) at (1, 2)
        def f(t, p):
            return add(t, mul(t, p[0], p[1]), exp(t, p[0]))

        g = grad_of(f, [1.0, 2.0])
        assert g[0] == pytest.approx(2.0 + math.exp(1.0), abs=1e-12)
        assert g[1] == pytest.approx(1.0, abs=1e-12)
        # and against the independent oracle
        fd = central_diff(lambda x: x[0] * x[1] + math.exp(x[0]), [1.0, 2.0], h=1e-6)
        assert_grad_close(g, fd)

    def test_dangling_node(self):
        tape = Tape()
        tape.consts(1.0)
        with pytest.raises(DanglingNodeError, match="dangling node"):
            tape.backward(17)

    def test_grads_accumulate_across_stages(self):
        store = ParamStore(1)
        store.values[:] = [2.0]
        tape = Tape()
        b1 = pick(tape, tape.stage_params(store), 0)
        b2 = pick(tape, tape.stage_params(store), 0)
        out = mul(tape, b1, b2)  # f = theta * theta via two stagings
        tape.backward(out)
        assert store.grads[0] == pytest.approx(4.0)

    def test_block_chains_with_scalar_nodes(self):
        # f = u*w + exp(u + w) with u = p0^2 and w = p1*p2; the pair
        # (u*w, u + w) is one two-output block over one-output blocks, read
        # back through index contributions
        def f(t, p):
            u = square(t, p[0])
            v1, v2 = t.val(p[1]), t.val(p[2])
            w = t.block(v1 * v2, lambda g: [(p[1], g * v2), (p[2], g * v1)])
            vu, vw = t.val(u), t.val(w)
            pair = t.block([vu * vw, vu + vw],
                           lambda g: [(u, g[0] * vw + g[1]), (w, g[0] * vu + g[1])])
            return add(t, pick(t, pair, 0), exp(t, pick(t, pair, 1)))

        values = [1.3, -0.7, 0.4]
        fd = central_diff(lambda x: x[0] ** 2 * x[1] * x[2]
                          + math.exp(x[0] ** 2 + x[1] * x[2]), values, h=1e-6)
        assert_grad_close(grad_of(f, values), fd)

    def test_contributions_add_in_reverse_block_order(self):
        # three blocks add 1, 1e16 and -1e16 into slot 0 through a slice;
        # backward visits the last block first, so the adjoint is
        # (-1e16 + 1e16) + 1 = 1, where recording order would give 0
        store = ParamStore(2)
        tape = Tape()
        params = tape.stage_params(store)
        parts = [tape.block(0.0, lambda g, k=k: [(params, np.array([k]) * g, slice(0, 1))])
                 for k in (1.0, 1e16, -1e16)]
        out = tape.block(0.0, lambda g: [(h, g) for h in parts])
        tape.backward(out)
        assert store.grads.tolist() == [1.0, 0.0]


def tanh_from_exp(t, u):
    """tanh(u) = (1 - e^(-2u)) / (1 + e^(-2u)) from one-output blocks."""
    e = exp(t, neg(t, add(t, u, u)))
    one = t.consts(1.0)
    return div(t, sub(t, one, e), add(t, one, e))


def maximum(t, a, b):
    """max(a, b) as a one-output block; a tie routes the gradient to a."""
    pick = a if t.val(a) >= t.val(b) else b
    return t.block(t.val(pick), lambda g: [(pick, g)])


def minimum(t, a, b):
    """min(a, b) as a one-output block; a tie routes the gradient to a."""
    pick = a if t.val(a) <= t.val(b) else b
    return t.block(t.val(pick), lambda g: [(pick, g)])


def sqrt(t, a):
    """sqrt(a) as a one-output block with derivative 1 / (2 sqrt(a))."""
    v = math.sqrt(t.val(a))
    return t.block(v, lambda g: [(a, g * 0.5 / v)])


class TestPrimitiveGradients:
    """Reverse-mode vs central differences for composite chains of
    one-output blocks."""

    COMPOSITES = {
        "rational": lambda t, p: div(t, add(t, mul(t, p[0], p[1]), t.consts(3.0)),
                                     add(t, square(t, p[2]), t.consts(1.5))),
        "tanh_relu": lambda t, p: add(t, tanh_from_exp(t, mul(t, p[0], p[1])),
                                      maximum(t, p[2], t.consts(0.0))),
        "minmax": lambda t, p: minimum(t, maximum(t, p[0], p[1]),
                                       add(t, p[2], t.consts(0.25))),
        "sqrt_chain": lambda t, p: sqrt(t, add(t, square(t, p[0]),
                                               add(t, square(t, p[1]),
                                                   square(t, p[2])))),
        "affine": lambda t, p: exp(t, affine(t, p[:2], p[1:], t.consts(0.1))),
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
        loss = mse_on_tape(tape, tape.consts(pred), target)
        assert tape.val(loss) == pytest.approx(mse_loss(pred, target), rel=1e-12)

    def test_tape_gradient(self):
        rng = np.random.default_rng(3)
        target = rng.normal(size=(2, 2))

        def f(t, p):
            return mse_on_tape(t, reshaped(t, p, (2, 2)), target)

        x = rng.normal(size=4)
        g = vector_grad_of(f, x)
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
            return cosine_on_tape(t, reshaped(t, p, (1, 4)), w[None])  # a one-row batch

        x = rng.normal(size=4)
        tape = Tape()
        node = f(tape, tape.consts(x))
        assert tape.val(node) == pytest.approx(cosine(x, w), rel=1e-12)

        g = vector_grad_of(f, x)
        fd = central_diff(lambda v: cosine(v, w), x)
        assert_grad_close(g, fd)

    def test_tape_batch_is_the_mean_of_row_cosines(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(5, 3))

        def f(t, p):
            return cosine_on_tape(t, reshaped(t, p, (5, 3)), w)

        x = rng.normal(size=15)
        tape = Tape()
        node = f(tape, tape.consts(x))
        want = np.mean([cosine(v, u) for v, u in zip(x.reshape(5, 3), w)])
        assert tape.val(node) == pytest.approx(want, rel=1e-12)

        g = vector_grad_of(f, x)
        fd = central_diff(
            lambda v: np.mean([cosine(r, u) for r, u in zip(v.reshape(5, 3), w)]), x)
        assert_grad_close(g, fd)

    def test_tape_zero_row_is_an_error(self):
        tape = Tape()
        rows = tape.consts([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero vector"):
            cosine_on_tape(tape, rows, np.ones((2, 2)))
