import math

import numpy as np
import pytest

from abnn.abelian import (
    AbelianOp,
    FOLD_CHUNK,
    EmptyMultisetError,
    LipschitzEstimate,
    NotAGroupError,
    SizeGenBound,
    estimate_lipschitz,
    estimate_inverse_lipschitz,
    size_generalization_bound,
)
from abnn.baseline import DeepSetsModel
from abnn.invertible import CouplingFlow, MonotonicNet
from abnn.numcore import Tape, mse_on_tape

from gradcheck import assert_grad_close, central_diff, project
from test_invertible import make_mono


def identity_phi():
    return make_mono([[0.0]], [[0.0]])


def shift_phi():
    # phi(x) = x + 1
    return make_mono([[0.0]], [[1.0]])


def random_ops(rng, n_each=3):
    """A spread of group/semigroup ops over both map families."""
    ops = []
    for _ in range(n_each):
        ops.append(AbelianOp(MonotonicNet.initialized(3, 3, rng), "sum"))
        ops.append(AbelianOp(MonotonicNet.initialized(3, 3, rng), "product"))
        ops.append(AbelianOp(CouplingFlow(4, 3, 8, rng, init="random"), "sum"))
        ops.append(AbelianOp(CouplingFlow(4, 3, 8, rng, init="random"), "product"))
    return ops


class TestCombine:
    def test_identity_phi_sum_is_addition(self):
        op = AbelianOp(identity_phi(), "sum")
        assert op.combine(2.0, 3.0)[0] == pytest.approx(5.0, abs=1e-10)

    def test_identity_phi_product_is_multiplication(self):
        op = AbelianOp(identity_phi(), "product")
        assert op.combine(2.0, 3.0)[0] == pytest.approx(6.0, abs=1e-10)

    def test_shift_phi_sum_is_add_plus_one(self):
        # phi(x)=x+1 conjugates + into x + y + 1
        op = AbelianOp(shift_phi(), "sum")
        assert op.combine(2.0, 3.0)[0] == pytest.approx(6.0, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        op = AbelianOp(CouplingFlow(4, 2, 6, rng), "sum")
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.combine(np.zeros(3), np.zeros(3))


class TestGroupLaws:
    def test_identity_element_identity_phi(self):
        op = AbelianOp(identity_phi(), "sum")
        assert op.identity_element()[0] == pytest.approx(0.0, abs=1e-10)

    def test_identity_element_shift_phi(self):
        op = AbelianOp(shift_phi(), "sum")
        assert op.identity_element()[0] == pytest.approx(-1.0, abs=1e-10)

    def test_inverse_element_identity_phi(self):
        op = AbelianOp(identity_phi(), "sum")
        assert op.inverse_element(5.0)[0] == pytest.approx(-5.0, abs=1e-10)

    def test_inverse_element_shift_phi(self):
        op = AbelianOp(shift_phi(), "sum")
        inv = op.inverse_element(3.0)
        assert inv[0] == pytest.approx(-5.0, abs=1e-10)
        # 3 o (-5) = 3 - 5 + 1 = -1 = e
        assert op.combine(3.0, inv)[0] == pytest.approx(-1.0, abs=1e-9)

    def test_identity_is_self_inverse(self):
        rng = np.random.default_rng(1)
        for op in random_ops(rng, n_each=1):
            if op.combiner != "sum":
                continue
            e = op.identity_element()
            assert np.allclose(op.inverse_element(e), e, atol=1e-7)

    def test_product_combiner_has_no_identity(self):
        op = AbelianOp(identity_phi(), "product")
        with pytest.raises(NotAGroupError, match="not a group"):
            op.identity_element()
        with pytest.raises(NotAGroupError, match="not a group"):
            op.inverse_element(2.0)

    def test_group_laws_random_ops(self):
        rng = np.random.default_rng(2)
        for op in random_ops(rng, n_each=1):
            if op.combiner != "sum":
                continue
            e = op.identity_element()
            x = rng.uniform(-2, 2, size=(200, op.d))
            ex = np.broadcast_to(e, x.shape)
            assert np.max(np.abs(op.combine(x, ex) - x)) < 1e-6
            folded = op.combine(x, op.inverse_element(x))
            assert np.max(np.abs(folded - e)) < 1e-6


class TestAlgebraicLaws:
    def test_commutativity(self):
        rng = np.random.default_rng(3)
        for op in random_ops(rng, n_each=1):
            x = rng.uniform(-2, 2, size=(1000, op.d))
            y = rng.uniform(-2, 2, size=(1000, op.d))
            diff = np.abs(op.combine(x, y) - op.combine(y, x))
            assert np.max(diff) < 1e-8

    def test_associativity(self):
        rng = np.random.default_rng(4)
        for op in random_ops(rng, n_each=1):
            x, y, z = (rng.uniform(-2, 2, size=(1000, op.d)) for _ in range(3))
            left = op.combine(op.combine(x, y), z)
            right = op.combine(x, op.combine(y, z))
            assert np.max(np.abs(left - right)) < 1e-6


class TestFold:
    def test_identity_phi_sum(self):
        op = AbelianOp(identity_phi(), "sum")
        assert op.fold([1.0, 2.0, 3.0])[0] == pytest.approx(6.0, abs=1e-9)

    def test_identity_phi_product(self):
        op = AbelianOp(identity_phi(), "product")
        assert op.fold([2.0, 3.0, 4.0])[0] == pytest.approx(24.0, abs=1e-8)

    def test_singleton_round_trips(self):
        rng = np.random.default_rng(5)
        for op in random_ops(rng, n_each=1):
            x = rng.uniform(-2, 2, size=op.d)
            assert np.allclose(op.fold(x[None] if op.d > 1 else x), x, atol=1e-8)

    def test_empty_multiset(self):
        op = AbelianOp(identity_phi(), "sum")
        with pytest.raises(EmptyMultisetError, match="empty multiset"):
            op.fold(np.zeros((0, 1)))
        with pytest.raises(EmptyMultisetError, match="empty multiset"):
            op.fold_many([np.zeros((0, 1))])

    @pytest.mark.parametrize("family", ["mono", "flow", "deepsets"])
    def test_fold_many_of_no_multisets_and_of_an_empty_one(self, family):
        rng = np.random.default_rng(12)
        model = {"mono": lambda: AbelianOp(MonotonicNet.initialized(3, 3, rng), "sum"),
                 "flow": lambda: AbelianOp(CouplingFlow(4, 2, 6, rng), "product"),
                 "deepsets": lambda: DeepSetsModel(3, 2, 4, 4, rng)}[family]()
        out = model.fold_many([])
        assert out.shape == (0, model.d)
        with pytest.raises(EmptyMultisetError, match="empty multiset"):
            model.fold_many([np.ones((2, model.d)), np.zeros((0, model.d))])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for op in random_ops(rng, n_each=1):
            ms = rng.uniform(-2, 2, size=(8, op.d))
            ref = op.fold(ms)
            for _ in range(10):
                assert np.max(np.abs(op.fold(ms[rng.permutation(8)]) - ref)) < 1e-6

    def test_fold_pair_matches_combine(self):
        rng = np.random.default_rng(7)
        for op in random_ops(rng, n_each=1):
            x = rng.uniform(-2, 2, size=op.d)
            y = rng.uniform(-2, 2, size=op.d)
            pair = np.stack([x, y])
            assert np.max(np.abs(op.fold(pair) - op.combine(x, y))) < 1e-8

    def test_fold_many_matches_fold(self):
        rng = np.random.default_rng(8)
        for op in random_ops(rng, n_each=1):
            sets = [rng.uniform(-2, 2, size=(rng.integers(1, 6), op.d))
                    for _ in range(20)]
            batch = op.fold_many(sets)
            single = np.stack([op.fold(ms) for ms in sets])
            assert np.allclose(batch, single, atol=1e-9)

    @pytest.mark.parametrize("combiner", ["sum", "product"])
    def test_mono_fold_many_is_fold_bitwise_across_chunks(self, combiner):
        # padding with the combiner's identity changes no bit of a fold
        rng = np.random.default_rng(13)
        op = AbelianOp(MonotonicNet.initialized(4, 4, rng), combiner)
        sets = [rng.uniform(-2, 2, size=rng.integers(1, 13))
                for _ in range(2 * FOLD_CHUNK + 5)]
        single = np.stack([op.fold(ms) for ms in sets])
        assert op.fold_many(sets).tobytes() == single.tobytes()


class TestNonFiniteElements:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("combiner", ["sum", "product"])
    def test_every_entry_point_rejects(self, bad, combiner):
        rng = np.random.default_rng(9)
        for op in (AbelianOp(MonotonicNet.initialized(3, 3, rng), combiner),
                   AbelianOp(CouplingFlow(4, 2, 6, rng, init="random"), combiner)):
            good = np.ones((2, op.d))
            poisoned = good.copy()
            poisoned[0, -1] = bad
            calls = [lambda: op.combine(poisoned[0], good[1]),
                     lambda: op.combine(good[1], poisoned[0]),
                     lambda: op.fold(poisoned),
                     lambda: op.fold_many([good, poisoned])]
            if combiner == "sum":
                calls.append(lambda: op.inverse_element(poisoned[0]))
            for call in calls:
                with pytest.raises(ValueError, match="non-finite element"):
                    call()

    def test_scalar_fold_names_the_problem(self):
        op = AbelianOp(MonotonicNet.initialized(3, 3, np.random.default_rng(10)), "sum")
        for bad in ([np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="non-finite element"):
                op.fold(bad)


def near_tie(net, xs, margin=1e-3):
    """Whether a point lies within ``margin`` of an active-unit tie, where
    finite differences would straddle two pieces."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64)).ravel()
    units = net.effective_weights() * xs[:, None, None] + net.bias
    group_vals = units.max(axis=2)
    inner = np.sort(units[np.arange(len(xs)), group_vals.argmin(axis=1)], axis=1)
    groups = np.sort(group_vals, axis=1)
    close = np.zeros(len(xs), dtype=bool)
    if groups.shape[1] > 1:
        close |= groups[:, 1] - groups[:, 0] < margin
    if inner.shape[1] > 1:
        close |= inner[:, -1] - inner[:, -2] < margin
    return bool(close.any())


class ScalarTape:
    """Float-by-float reference: one node per scalar, each with its inputs
    and local derivatives, swept in reverse creation order."""

    def __init__(self):
        self.nodes = []  # (value, ((input node, local derivative), ...))

    def add_node(self, v, *parents):
        self.nodes.append((v, parents))
        return len(self.nodes) - 1

    def val(self, i):
        return self.nodes[i][0]

    def adjoints(self, out):
        adj = [0.0] * len(self.nodes)
        adj[out] = 1.0
        for i in range(out, -1, -1):
            if adj[i] != 0.0:
                for a, d in self.nodes[i][1]:
                    adj[a] += d * adj[i]
        return adj


def scalar_fold_mse(op, sets, targets):
    """MSE of a mono fold batch and its parameter gradient, recorded one
    scalar at a time: phi through each element's active unit, the combiner
    as a left fold, phi^{-1} through the unit active at the solution, and
    the mean of squared errors as one fused sum."""
    net, t = op.phi, ScalarTape()
    theta = [t.add_node(v) for v in net.store.values.tolist()]
    n, s = net.k_groups * net.j_units, theta[-1]
    units = {}

    def unit(k, j):
        k, j = int(k), int(j)
        if (k, j) not in units:  # w = s * exp(w~), made at first use
            flat = k * net.j_units + j
            v = t.val(theta[flat])
            e = t.add_node(math.exp(v), (theta[flat], math.exp(v)))
            w = t.add_node(t.val(s) * t.val(e), (s, t.val(e)), (e, t.val(s)))
            units[(k, j)] = (w, theta[n + flat])
        return units[(k, j)]

    def mul(a, b):
        return t.add_node(t.val(a) * t.val(b), (a, t.val(b)), (b, t.val(a)))

    def add(a, b):
        return t.add_node(t.val(a) + t.val(b), (a, 1.0), (b, 1.0))

    elems = [t.add_node(x) for ms in sets for x in ms]
    phis = []
    for x in elems:
        w, b = unit(*net.active_units(t.val(x)))
        phis.append(add(mul(w, x), b))
    zs, pos = [], 0
    for ms in sets:
        acc = phis[pos]
        for p in phis[pos + 1 : pos + len(ms)]:
            acc = add(acc, p) if op.combiner == "sum" else mul(acc, p)
        zs.append(acc)
        pos += len(ms)
    preds = []
    for z in zs:
        w, b = unit(*net.active_units(net.inverse_batch(t.val(z))))
        u = t.add_node(t.val(z) - t.val(b), (z, 1.0), (b, -1.0))
        v = t.val(u) / t.val(w)
        preds.append(t.add_node(v, (u, 1.0 / t.val(w)), (w, -v / t.val(w))))
    sq = []
    for p, y in zip(preds, targets.ravel().tolist()):
        d = t.add_node(t.val(p) - y, (p, 1.0))
        sq.append(t.add_node(t.val(d) * t.val(d), (d, 2.0 * t.val(d))))
    w, loss = 1.0 / len(sq), 0.0
    for q in sq:
        loss += t.val(q) * w
    out = t.add_node(loss, *[(q, w) for q in sq])
    adj = t.adjoints(out)
    return loss, [adj[i] for i in theta]


class TestFoldOnTape:
    @pytest.mark.parametrize("combiner", ["sum", "product"])
    def test_mono_values_match_numpy(self, combiner):
        rng = np.random.default_rng(9)
        op = AbelianOp(MonotonicNet.initialized(3, 3, rng), combiner)
        sets = [rng.uniform(-3, 3, size=rng.integers(1, 5)) for _ in range(16)]
        tape = Tape()
        out = op.fold_batch_on_tape(tape, tape.stage_params(op.store), sets)
        want = op.fold_many(sets)[:, 0]
        np.testing.assert_allclose(tape.val(out)[:, 0], want, atol=1e-9)

    @pytest.mark.parametrize("combiner", ["sum", "product"])
    def test_flow_values_match_numpy(self, combiner):
        rng = np.random.default_rng(10)
        op = AbelianOp(CouplingFlow(4, 2, 6, rng, init="random"), combiner)
        sets = [rng.uniform(-2, 2, size=(rng.integers(1, 4), 4)) for _ in range(6)]
        tape = Tape()
        out = op.fold_batch_on_tape(tape, tape.stage_params(op.store), sets)
        np.testing.assert_allclose(tape.val(out), op.fold_many(sets), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("combiner", ["sum", "product"])
    def test_mono_fold_gradient(self, combiner):
        # end-to-end gradient through phi, the combiner, and the inversion:
        # three draws of net and multiset for every size from 2 to 12
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 33:
            op = AbelianOp(MonotonicNet.initialized(2, 2, rng), combiner)
            ms = rng.uniform(-2, 2, size=2 + checked % 11)
            if near_tie(op.phi, np.append(ms, op.fold(ms))):
                continue
            tape = Tape()
            tape.backward(op.fold_batch_on_tape(tape, tape.stage_params(op.store), [ms]))
            g = op.store.grads.copy()
            op.store.zero_grads()

            theta0 = op.store.values.copy()

            def f(theta):
                op.store.values[:] = theta
                y = float(op.fold(ms)[0])
                op.store.values[:] = theta0
                return y

            assert_grad_close(g, central_diff(f, theta0))
            checked += 1

    @pytest.mark.parametrize("combiner", ["sum", "product"])
    def test_mono_fold_and_mse_match_the_scalar_reference_bitwise(self, combiner):
        # the block's summation order is the scalar sweep's, so the loss
        # and every gradient slot agree to the last bit, for ten batches
        rng = np.random.default_rng(15)
        for _ in range(10):
            op = AbelianOp(MonotonicNet.initialized(4, 4, rng), combiner)
            sets = [rng.uniform(-2, 2, size=rng.integers(1, 6)) for _ in range(32)]
            targets = rng.normal(size=(32, 1))
            tape = Tape()
            out = op.fold_batch_on_tape(tape, tape.stage_params(op.store), sets)
            loss = mse_on_tape(tape, out, targets)
            tape.backward(loss)
            want_loss, want_grads = scalar_fold_mse(op, sets, targets)
            assert float(tape.val(loss)) == want_loss
            assert op.store.grads.tolist() == want_grads

    def test_flow_fold_gradient(self):
        rng = np.random.default_rng(12)
        op = AbelianOp(CouplingFlow(4, 2, 6, rng, init="random"), "sum")
        ms = rng.uniform(-1, 1, size=(3, 4))
        probe = rng.normal(size=4)
        tape = Tape()
        out = op.fold_batch_on_tape(tape, tape.stage_params(op.store), [ms])
        tape.backward(project(tape, out, probe))
        g = op.store.grads.copy()
        op.store.zero_grads()

        theta0 = op.store.values.copy()

        def f(theta):
            op.store.values[:] = theta
            y = float(probe @ op.fold(ms))
            op.store.values[:] = theta0
            return y

        assert_grad_close(g, central_diff(f, theta0))


class TestSizeGenBound:
    def test_direct_formula(self):
        sg = SizeGenBound(epsilon=0.1, a=2, b=4, k1=1.0, k2=1.0)
        assert size_generalization_bound(sg) == pytest.approx(0.3)

    def test_base_case_equals_epsilon(self):
        sg = SizeGenBound(epsilon=0.1, a=2, b=2, k1=1.0, k2=1.0)
        assert size_generalization_bound(sg) == pytest.approx(0.1)

    def test_hand_evaluated(self):
        sg = SizeGenBound(epsilon=0.01, a=3, b=10, k1=2.0, k2=1.0)
        assert size_generalization_bound(sg) == pytest.approx(0.43)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SizeGenBound(epsilon=0.1, a=1, b=4, k1=1.0, k2=1.0)
        with pytest.raises(ValueError):
            SizeGenBound(epsilon=0.1, a=4, b=2, k1=1.0, k2=1.0)
        with pytest.raises(ValueError):
            SizeGenBound(epsilon=0.1, a=2, b=4, k1=0.5, k2=1.0)

    def test_degenerate_product(self):
        sg = SizeGenBound.__new__(SizeGenBound)  # bypass validation
        sg.epsilon, sg.a, sg.b, sg.k1, sg.k2 = 0.1, 2, 4, 0.5, 1.0
        with pytest.raises(ValueError, match="degenerate Lipschitz product"):
            size_generalization_bound(sg)


class TestLipschitzEstimates:
    def test_identity_map_exact(self):
        rng = np.random.default_rng(13)
        est = estimate_lipschitz(identity_phi(), -3.0, 3.0, 500, rng)
        assert est == LipschitzEstimate(1.0, 1.0, True)

    def test_linear_map(self):
        rng = np.random.default_rng(14)
        net = make_mono([[np.log(2.0)]], [[0.0]])  # f(x) = 2x
        est = estimate_lipschitz(net, -3.0, 3.0, 500, rng)
        assert est.k1 == pytest.approx(2.0, abs=1e-12)
        assert est.k2 == pytest.approx(0.5, abs=1e-12)
        assert est.lower_bound

    def test_monotonic_net_vs_exact_slopes(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            net = MonotonicNet.initialized(3, 3, rng)
            lo_s, hi_s = net.slope_range(-5.0, 5.0)
            est = estimate_lipschitz(net, -5.0, 5.0, 4000, rng)
            assert est.k1 <= hi_s + 1e-12  # estimate is a lower bound
            assert est.k1 > 0.8 * hi_s  # and not wildly below the truth
            assert est.k2 <= 1.0 / lo_s + 1e-12

    def test_inverse_estimate_on_z_box(self):
        rng = np.random.default_rng(16)
        net = make_mono([[np.log(2.0)]], [[0.0]])
        k2 = estimate_inverse_lipschitz(net, -10.0, 10.0, 500, rng)
        assert k2 == pytest.approx(0.5, abs=1e-9)

    def test_sample_floor(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            estimate_lipschitz(identity_phi(), -1.0, 1.0, 1, rng)


class TestSizeGenerationCheck:
    def test_linear_phi_bound_holds(self):
        from abnn.abelian import size_generalization_check
        from abnn.harness import TASKS

        # an exactly linear map folds sums exactly, so measured error is
        # roundoff and the assembled bound dominates it
        op = AbelianOp(make_mono([[np.log(2.0)]], [[0.0]]), "sum")
        out = size_generalization_check(
            op, TASKS["add"].fold, -5.0, 5.0, a=4, b=12, seed=0,
            n_small=200, n_large=50)
        assert out["holds"]
        assert out["k1"] == pytest.approx(2.0, abs=1e-9)
        assert out["k2"] == pytest.approx(0.5, abs=1e-9)
        assert out["measured"] <= out["bound"]
        assert out["epsilon"] < 1e-8

    @pytest.mark.parametrize("given_large", [False, True])
    def test_batched_folds_match_the_fold_loop(self, monkeypatch, given_large):
        # the same samples in the same order, folded one multiset at a time
        from abnn.abelian import size_generalization_check
        from abnn.harness import TASKS, make_splits

        op = AbelianOp(MonotonicNet.initialized(3, 3, np.random.default_rng(3)), "sum")
        large = [ms for ms, _ in make_splits(TASKS["add"], 5)["large"]] if given_large else None

        def check():
            return size_generalization_check(op, TASKS["add"].fold, -5.0, 5.0, a=4, b=12,
                                             seed=5, large_sets=large, n_small=500,
                                             n_large=100)

        got = check()
        monkeypatch.setattr(op, "fold_many",
                            lambda sets: np.stack([op.fold(ms) for ms in sets]))
        assert check() == got

    def test_rejects_wrong_shape(self):
        from abnn.abelian import size_generalization_check
        from abnn.harness import TASKS

        op = AbelianOp(identity_phi(), "product")
        with pytest.raises(ValueError, match="sum-combiner"):
            size_generalization_check(op, TASKS["mul"].fold, -5, 5, 4, 12, 0)
