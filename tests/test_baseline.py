import numpy as np
import pytest

from abnn.abelian import EmptyMultisetError
from abnn.baseline import DeepSetsModel
from abnn.numcore import Tape

from gradcheck import assert_grad_close, central_diff


def identity_blocks(model: DeepSetsModel):
    """Wire both blocks so the model computes the plain sum (d=1)."""
    for mlp in (model.inner, model.outer):
        for i in range(len(mlp._layers)):
            mlp.weight(i)[:] = 0.0
            mlp.bias(i)[:] = 0.0
        mlp.weight(0)[0, 0] = 1.0
        mlp.weight(0)[1, 0] = -1.0
        for i in range(1, len(mlp._layers) - 1):
            mlp.weight(i)[0, 0] = 1.0
            mlp.weight(i)[1, 1] = 1.0
        mlp.weight(len(mlp._layers) - 1)[0, 0] = 1.0
        mlp.weight(len(mlp._layers) - 1)[0, 1] = -1.0


class TestDeepSetsForward:
    def test_identity_blocks_sum(self):
        rng = np.random.default_rng(0)
        model = DeepSetsModel(1, 2, 4, 4, rng)
        identity_blocks(model)
        assert model.forward([1.0, 2.0, 3.0])[0] == pytest.approx(6.0)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(1)
        model = DeepSetsModel(3, 3, 8, 8, rng)
        X = rng.normal(size=(4, 3))
        ref = model.forward(X)
        for _ in range(10):
            assert np.array_equal(model.forward(X[rng.permutation(4)]), ref)

    def test_empty_multiset(self):
        rng = np.random.default_rng(2)
        model = DeepSetsModel(2, 2, 4, 4, rng)
        with pytest.raises(EmptyMultisetError, match="empty multiset"):
            model.forward(np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_element(self, bad):
        rng = np.random.default_rng(4)
        model = DeepSetsModel(2, 2, 4, 4, rng)
        X = np.ones((3, 2))
        X[1, 0] = bad
        tape = Tape()
        staged = model.stage(tape)
        for call in (lambda: model.forward(X), lambda: model.fold(X),
                     lambda: model.fold_many([np.ones((3, 2)), X]),
                     lambda: model.fold_batch_on_tape(staged, [X])):
            with pytest.raises(ValueError, match="non-finite element"):
                call()

    def test_fold_many_matches_forward(self):
        rng = np.random.default_rng(3)
        model = DeepSetsModel(2, 2, 6, 5, rng)
        sets = [rng.normal(size=(rng.integers(1, 5), 2)) for _ in range(20)]
        batch = model.fold_many(sets)
        single = np.stack([model.forward(ms) for ms in sets])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


class TestDeepSetsTape:
    def test_tape_matches_numpy(self):
        rng = np.random.default_rng(4)
        model = DeepSetsModel(2, 2, 6, 5, rng)
        X = rng.normal(size=(3, 2))
        tape = Tape()
        staged = model.stage(tape)
        (ids,) = model.fold_batch_on_tape(staged, [X])
        np.testing.assert_allclose(tape.vals(ids), model.forward(X), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 25:  # acceptance runs the full 100
            model = DeepSetsModel(2, 2, 5, 4, rng)
            X = rng.normal(size=(3, 2))
            probe = rng.normal(size=2)
            if model.selection_margin(X) < 3e-4:
                continue
            tape = Tape()
            staged = model.stage(tape)
            (ids,) = model.fold_batch_on_tape(staged, [X])
            proj = tape.affine(ids, tape.consts(probe), tape.const(0.0))
            tape.backward(proj)
            g = model.store.grads.copy()
            model.store.zero_grads()

            theta0 = model.store.values.copy()

            def f(theta):
                model.store.values[:] = theta
                y = model.forward(X)
                model.store.values[:] = theta0
                return float(probe @ y)

            assert_grad_close(g, central_diff(f, theta0))
            checked += 1
