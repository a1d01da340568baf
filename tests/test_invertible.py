import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abnn.abelian import map_forward, map_inverse
from abnn.invertible import CouplingFlow, InversionError, Mlp, MonotonicNet
from abnn.numcore import ParamStore, Tape

from gradcheck import assert_grad_close, central_diff


def make_mono(w_tilde, bias, s=1.0):
    """MonotonicNet with explicit parameter grids."""
    w = np.atleast_2d(np.asarray(w_tilde, dtype=np.float64))
    b = np.atleast_2d(np.asarray(bias, dtype=np.float64))
    net = MonotonicNet(w.shape[0], w.shape[1])
    net.store.values[: w.size] = w.ravel()
    net.store.values[w.size : 2 * w.size] = b.ravel()
    net.store.values[-1] = s
    return net


class TestMonotonicForward:
    def test_identity_configuration(self):
        net = make_mono([[0.0]], [[0.0]])
        assert net.forward(2.0) == pytest.approx(2.0)

    def test_dominated_branch(self):
        net = make_mono([[0.0, 0.0]], [[0.0, 1.0]])
        assert net.forward(0.0) == pytest.approx(1.0)

    def test_two_group_min(self):
        # f(x) = min(2x, x + 3)
        net = make_mono([[math.log(2.0)], [0.0]], [[0.0], [3.0]])
        assert net.forward(5.0) == pytest.approx(8.0)
        assert net.forward(0.0) == pytest.approx(0.0)

    def test_strict_monotonicity(self):
        rng = np.random.default_rng(5)
        for sgn in (1.0, -1.0):
            for _ in range(5):
                net = MonotonicNet.initialized(3, 4, rng)
                net.store.values[-1] = sgn
                xs = rng.uniform(-30, 30, size=(1000, 2))
                x1 = np.minimum(xs[:, 0], xs[:, 1])
                x2 = np.maximum(xs[:, 0], xs[:, 1])
                keep = x2 - x1 > 1e-9
                diff = net.forward(x2[keep]) - net.forward(x1[keep])
                assert np.all(np.sign(diff) == sgn)

    def test_continuous_piecewise_linear(self):
        rng = np.random.default_rng(6)
        net = MonotonicNet.initialized(4, 3, rng)
        xs = np.linspace(-10, 10, 5001)
        ys = net.forward(xs)
        # no jumps anywhere near the grid spacing times the max slope
        max_slope = net.slope_range(-10, 10)[1]
        assert np.max(np.abs(np.diff(ys))) <= max_slope * (xs[1] - xs[0]) + 1e-12


class TestMonotonicInverse:
    def test_identity_configuration(self):
        net = make_mono([[0.0]], [[0.0]])
        assert net.inverse_batch(7.0) == pytest.approx(7.0, abs=1e-10)

    def test_piecewise_analytic(self):
        net = make_mono([[math.log(2.0)], [0.0]], [[0.0], [3.0]])
        assert net.inverse_batch(8.0) == pytest.approx(5.0, abs=1e-10)

    def test_round_trip_1000_points(self):
        rng = np.random.default_rng(7)
        net = MonotonicNet.initialized(4, 4, rng)
        xs = rng.uniform(-20, 20, size=1000)
        back = net.inverse_batch(net.forward(xs))
        assert np.max(np.abs(back - xs)) < 1e-9

    def test_decreasing_net_round_trip(self):
        rng = np.random.default_rng(8)
        net = MonotonicNet.initialized(3, 3, rng)
        net.store.values[-1] = -1.0
        xs = rng.uniform(-20, 20, size=200)
        back = net.inverse_batch(net.forward(xs))
        assert np.max(np.abs(back - xs)) < 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k=st.integers(1, 32), j=st.integers(1, 32), sign=st.sampled_from([1.0, -1.0]),
           seed=st.integers(0, 2**32 - 1),
           xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
    def test_closed_form_is_the_active_piece_solve(self, k, j, sign, seed, xs):
        net = MonotonicNet.initialized(k, j, np.random.default_rng(seed))
        net.store.values[-1] = sign
        xs = np.asarray(xs)
        ys = net.forward(xs)
        back = net.inverse_batch(ys)
        # bitwise the affine solve on the piece active at the answer
        ka, ja = net.active_units(back)
        piece = (ys - net.bias[ka, ja]) / net.effective_weights()[ka, ja]
        assert np.array_equal(back.view(np.int64), piece.view(np.int64))
        assert np.max(np.abs(back - xs)) < 1e-9

    def test_target_without_finite_preimage_is_an_error(self):
        net = make_mono([[-700.0]], [[0.0]])  # slope ~1e-304: 1e10 maps past 1e308
        for y in (1e10, np.nan, np.inf):
            with pytest.raises(InversionError, match="inversion out of range"):
                net.inverse_batch(y)

    def test_degenerate_sign_is_an_error(self):
        net = make_mono([[0.0]], [[0.0]], s=0.0)
        with pytest.raises(InversionError, match="inversion out of range"):
            net.inverse_batch(1.0)

    def test_flat_net_is_an_error(self):
        net = make_mono([[-800.0]], [[0.5]])  # slope underflows to 0
        with pytest.raises(InversionError, match="inversion out of range"):
            net.inverse_batch(3.0)


class TestMonotonicSlopes:
    def test_slope_range_matches_sampled_secants(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            net = MonotonicNet.initialized(3, 3, rng)
            lo_s, hi_s = net.slope_range(-10.0, 10.0)
            xs = np.sort(rng.uniform(-10, 10, size=400))
            secants = np.abs(np.diff(net.forward(xs)) / np.diff(xs))
            assert np.max(secants) <= hi_s + 1e-9
            assert np.min(secants) >= lo_s - 1e-9

    def test_segment_slope_attained(self):
        # with a kink, both slopes appear exactly
        net = make_mono([[math.log(2.0)], [0.0]], [[0.0], [3.0]])
        lo_s, hi_s = net.slope_range(-10.0, 10.0)
        assert lo_s == pytest.approx(1.0)
        assert hi_s == pytest.approx(2.0)


class TestMonotonicTape:
    def test_tape_forward_matches_numpy(self):
        rng = np.random.default_rng(10)
        net = MonotonicNet.initialized(3, 4, rng)
        xs = rng.uniform(-8, 8, size=20)
        tape = Tape()
        staged = net.stage(tape)
        outs = net.forward_on_tape(staged, [[tape.const(x)] for x in xs])
        got = [tape.val(out) for (out,) in outs]
        np.testing.assert_allclose(got, net.forward(xs), rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            net = MonotonicNet.initialized(2, 3, rng)
            net.store.values[: net.store.values.size] += rng.normal(
                scale=0.1, size=net.store.values.size)
            x = float(rng.uniform(-5, 5))
            units = net.effective_weights() * x + net.bias
            group_vals = units.max(axis=1)
            k_star = int(group_vals.argmin())
            sorted_groups = np.sort(group_vals)
            sorted_units = np.sort(units[k_star])
            if (sorted_groups[1] - sorted_groups[0] < 1e-3
                    or sorted_units[-1] - sorted_units[-2] < 1e-3):
                continue  # near a selection tie; finite differences would straddle it
            tape = Tape()
            staged = net.stage(tape)
            ((out,),) = net.forward_on_tape(staged, [[tape.const(x)]])
            tape.backward(out)
            g = net.store.grads.copy()
            net.store.zero_grads()

            theta0 = net.store.values.copy()

            def f(theta):
                net.store.values[:] = theta
                y = net.forward(x)
                net.store.values[:] = theta0
                return y

            fd = central_diff(f, theta0)
            assert_grad_close(g, fd)
            checked += 1

    def test_inverse_on_tape_value_and_gradient(self):
        rng = np.random.default_rng(13)
        net = MonotonicNet.initialized(2, 2, rng)
        y = 1.7
        tape = Tape()
        staged = net.stage(tape)
        ((out,),) = net.inverse_on_tape(staged, [[tape.const(y)]])
        assert net.forward(tape.val(out)) == pytest.approx(y, abs=1e-9)
        tape.backward(out)
        g = net.store.grads.copy()
        net.store.zero_grads()

        theta0 = net.store.values.copy()

        def f(theta):
            net.store.values[:] = theta
            x = float(net.inverse_batch(y))
            net.store.values[:] = theta0
            return x

        fd = central_diff(f, theta0)
        assert_grad_close(g, fd)


def identity_subnet(mlp: Mlp):
    """Wire a [1, h, h, 1] ReLU block to compute the identity exactly."""
    h = mlp.dims[1]
    for i in range(3):
        mlp.weight(i)[:] = 0.0
        mlp.bias(i)[:] = 0.0
    mlp.weight(0)[0, 0] = 1.0
    mlp.weight(0)[1, 0] = -1.0
    mlp.weight(1)[0, 0] = 1.0
    mlp.weight(1)[1, 1] = 1.0
    mlp.weight(2)[0, 0] = 1.0
    mlp.weight(2)[0, 1] = -1.0


class TestCouplingFlow:
    def make_identity_flow(self, d=2, n_layers=1, hidden=4):
        rng = np.random.default_rng(0)
        perms = [np.arange(d) for _ in range(n_layers)]
        return CouplingFlow(d, n_layers, hidden, rng, init="near_identity",
                            permutations=perms)

    def test_identity_flow(self):
        flow = self.make_identity_flow(d=3, n_layers=2)
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(flow.forward(x), x, atol=0)
        assert np.allclose(flow.inverse(x), x, atol=0)

    def test_shift_only_layer(self):
        flow = self.make_identity_flow(d=2, n_layers=1)
        identity_subnet(flow.shift_nets[0])
        out = flow.forward(np.array([1.0, 2.0]))
        assert out == pytest.approx([1.0, 3.0])
        back = flow.inverse(np.array([1.0, 3.0]))
        assert back == pytest.approx([1.0, 2.0])

    def test_constant_scale_layer(self):
        flow = self.make_identity_flow(d=2, n_layers=1)
        flow.scale_nets[0].bias(2)[:] = math.log(2.0)
        out = flow.forward(np.array([1.0, 2.0]))
        assert out == pytest.approx([1.0, 4.0])

    def test_pass_through_block(self):
        rng = np.random.default_rng(21)
        flow = CouplingFlow(6, 1, 8, rng, init="random")
        x = rng.normal(size=6)
        out = flow.forward(x)
        k = flow.split
        assert np.array_equal(out[:k], x[flow.perms[0]][:k])

    def test_round_trip_random_flow(self):
        rng = np.random.default_rng(22)
        flow = CouplingFlow(8, 4, 16, rng, init="random")
        x = rng.normal(size=(100, 8))
        err = np.abs(flow.inverse(flow.forward(x)) - x).max()
        assert err < 1e-9

    def test_dimension_mismatch(self):
        flow = self.make_identity_flow(d=4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            flow.forward(np.zeros(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            flow.inverse(np.zeros((5, 5)))

    def test_batched_equals_elementwise(self):
        rng = np.random.default_rng(23)
        flow = CouplingFlow(5, 3, 8, rng, init="random")
        xs = rng.normal(size=(7, 5))
        batched = flow.forward(xs)
        roundtrip = flow.inverse(batched)
        for i, x in enumerate(xs):
            # BLAS may reorder accumulation between shapes, so not bitwise
            np.testing.assert_allclose(flow.forward(x), batched[i], rtol=1e-13)
        assert np.allclose(roundtrip, xs, atol=1e-10)


class TestCouplingTape:
    def test_tape_forward_matches_numpy(self):
        rng = np.random.default_rng(30)
        flow = CouplingFlow(4, 3, 8, rng, init="random")
        x = rng.normal(size=4)
        tape = Tape()
        staged = flow.stage(tape)
        (out_ids,) = flow.forward_on_tape(staged, [tape.consts(x)])
        np.testing.assert_allclose(tape.vals(out_ids), flow.forward(x), rtol=1e-12)

    def test_tape_inverse_matches_numpy(self):
        rng = np.random.default_rng(31)
        flow = CouplingFlow(4, 3, 8, rng, init="random")
        y = rng.normal(size=4)
        tape = Tape()
        staged = flow.stage(tape)
        (out_ids,) = flow.inverse_on_tape(staged, [tape.consts(y)])
        np.testing.assert_allclose(tape.vals(out_ids), flow.inverse(y), rtol=1e-12)

    # the flow cases are named by direction alone
    @pytest.mark.parametrize("kind,direction", [
        pytest.param("flow", "forward", id="forward"),
        pytest.param("flow", "inverse", id="inverse"),
        pytest.param("mono", "forward", id="mono-forward"),
        pytest.param("mono", "inverse", id="mono-inverse"),
    ])
    def test_batch_matches_row_by_row(self, kind, direction):
        rng = np.random.default_rng(33)
        net = (CouplingFlow(4, 3, 8, rng, init="random") if kind == "flow"
               else MonotonicNet.initialized(3, 3, rng))
        xs = rng.normal(size=(5, net.d))
        probe = rng.normal(size=(5, net.d))

        def run(rows):
            tape = Tape()
            staged = net.stage(tape)
            batch = [tape.consts(x) for x in xs[rows]]
            outs = (net.forward_on_tape(staged, batch) if direction == "forward"
                    else net.inverse_on_tape(staged, batch))
            projs = [tape.affine(o, tape.consts(p), tape.const(0.0))
                     for o, p in zip(outs, probe[rows])]
            tape.backward(tape.affine(projs, tape.consts(np.ones(len(projs))),
                                      tape.const(0.0)))
            grads = net.store.grads.copy()
            net.store.zero_grads()
            return np.array([tape.vals(o) for o in outs]), grads

        vals, grads = run(slice(None))
        single = [run(slice(i, i + 1)) for i in range(len(xs))]
        want = map_forward(net, xs) if direction == "forward" else map_inverse(net, xs)
        np.testing.assert_allclose(vals, want, rtol=1e-12)
        np.testing.assert_allclose(grads, sum(g for _, g in single), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_gradient_matches_finite_differences(self, direction):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 25:  # the acceptance suite runs the full 100
            flow = CouplingFlow(4, 2, 6, rng, init="random")
            x = rng.normal(size=4)
            probe = rng.normal(size=4)
            if flow.selection_margin(x, direction) < 3e-4:
                continue  # on a ReLU kink or clamp edge; derivative undefined

            tape = Tape()
            staged = flow.stage(tape)
            batch = [tape.consts(x)]
            (out,) = (flow.forward_on_tape(staged, batch) if direction == "forward"
                      else flow.inverse_on_tape(staged, batch))
            # scalar projection so there is one output to differentiate
            proj = tape.affine(out, tape.consts(probe), tape.const(0.0))
            tape.backward(proj)
            g = flow.store.grads.copy()
            flow.store.zero_grads()

            theta0 = flow.store.values.copy()

            def f(theta):
                flow.store.values[:] = theta
                y = (flow.forward(x) if direction == "forward" else flow.inverse(x))
                flow.store.values[:] = theta0
                return float(probe @ y)

            fd = central_diff(f, theta0)
            assert_grad_close(g, fd)
            checked += 1
