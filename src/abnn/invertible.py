"""Trainable bijections of R^d.

Two families:

* :class:`MonotonicNet` for d=1 — a min-over-groups of max-over-units lattice
  of affine functions whose slopes all share the sign of a learned
  coefficient, hence strictly monotonic and piecewise linear. Inverted in
  closed form: the inverse is the max-min (min-max when decreasing) lattice
  of the inverted unit lines.
* :class:`CouplingFlow` for d>=2 — a stack of affine coupling layers with
  frozen random permutations in between. Inverted analytically.

Both keep their weights in a flat :class:`~abnn.numcore.ParamStore`. For
training, each map has one numpy pass with its vector-Jacobian product per
direction, ``forward_with_vjp`` and ``inverse_with_vjp``; an :class:`Mlp`
has only the forward. An MLP batch and a whole flow pass are recorded on a
:class:`~abnn.numcore.Tape` as one block each by ``forward_on_tape`` and
``inverse_on_tape``, which take and return handles of (n, d) values. The
monotone net's VJPs return per-point (unit, term) arrays that
:meth:`MonotonicNet.param_grads` sums in one ordered pass, so that an
Abelian fold through it is one block with scalar-sweep gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .numcore import ParamStore, Tape

__all__ = ["InversionError", "Mlp", "MonotonicNet", "CouplingFlow"]

_EXP_MAX = 709.0  # exp() overflows double beyond this


class InversionError(RuntimeError):
    """Inversion failed: the map is not a bijection (a zero or non-finite
    slope) or a target has no finite preimage."""


def _block(tape: Tape, params: int, x: int, out, vjp, where=slice(None)) -> int:
    """Record ``out`` as one block over the input value ``x``; ``vjp(g)``
    returns (parameter grads for ``params[where]``, input grads)."""

    def block_vjp(g):
        grads, g_in = vjp(g)
        return [(params, grads, where), (x, g_in)]

    return tape.block(out, block_vjp)


def mlp_param_count(dims) -> int:
    return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


def stack_param_count(n_in: int, width: int, n_layers: int, n_out: int) -> int:
    """``mlp_param_count([n_in] + [width] * (n_layers - 1) + [n_out])`` in
    closed form, so checking a checkpoint header allocates nothing."""
    if n_layers == 1:
        return n_out * (n_in + 1)
    return width * (n_in + 1) + (n_layers - 2) * width * (width + 1) + n_out * (width + 1)


class Mlp:
    """Feedforward block (ReLU hidden, linear output) slotted into a shared store.

    ``dims`` lists layer widths, e.g. ``[4, 32, 32, 4]`` is three linear
    layers. Weights use He-uniform fan-in init; ``zero_last`` zeroes the
    final layer so the block starts as the zero function.
    """

    def __init__(self, store: ParamStore, base: int, dims, rng, zero_last=False,
                 scale=1.0, last_scale=1.0):
        self.store = store
        self.base = base
        self.dims = list(dims)
        self._layers = []  # (w_start, b_start, n_out, n_in, is_last)
        s = base
        n_layers = len(dims) - 1
        for i in range(n_layers):
            n_in, n_out = dims[i], dims[i + 1]
            w_start, b_start = s, s + n_out * n_in
            last = i == n_layers - 1
            self._layers.append((w_start, b_start, n_out, n_in, last))
            if last and zero_last:
                store.values[w_start : b_start + n_out] = 0.0
            else:
                bound = scale * math.sqrt(6.0 / n_in)
                if last:
                    bound *= last_scale
                store.values[w_start:b_start] = rng.uniform(-bound, bound, n_out * n_in)
                store.values[b_start : b_start + n_out] = 0.0
            s = b_start + n_out

    @property
    def size(self) -> int:
        return mlp_param_count(self.dims)

    def weight(self, i: int) -> np.ndarray:
        w_start, b_start, n_out, n_in, _ = self._layers[i]
        return self.store.values[w_start:b_start].reshape(n_out, n_in)

    def bias(self, i: int) -> np.ndarray:
        _, b_start, n_out, _, _ = self._layers[i]
        return self.store.values[b_start : b_start + n_out]

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        for i in range(len(self._layers)):
            h = h @ self.weight(i).T + self.bias(i)
            if not self._layers[i][4]:
                np.maximum(h, 0.0, out=h)
        return h

    def relu_margin(self, x: np.ndarray) -> float:
        """Smallest |pre-activation| of any hidden unit at x.

        Gradient checks use this to stay away from ReLU kinks, where a
        subgradient and a straddling finite difference legitimately differ.
        """
        h = np.asarray(x, dtype=np.float64)
        margin = math.inf
        for i in range(len(self._layers)):
            h = h @ self.weight(i).T + self.bias(i)
            if not self._layers[i][4]:
                margin = min(margin, float(np.min(np.abs(h))))
                np.maximum(h, 0.0, out=h)
        return margin

    def forward_with_vjp(self, h: np.ndarray):
        """The MLP on a batch of rows and its vector-Jacobian product.

        Returns ``(out, vjp)``; ``vjp(g)`` maps the adjoint of ``out`` to
        ``(param_grads, input_grads)``, the first over this block's
        ``size`` slots in store order.
        """
        weights, acts, masks = [], [], []
        for i in range(len(self._layers)):
            w = self.weight(i).copy()
            weights.append(w)
            acts.append(h)
            h = h @ w.T + self.bias(i)
            if not self._layers[i][4]:
                masks.append(h > 0.0)
                np.maximum(h, 0.0, out=h)
        first = self.base

        def vjp(g):
            grads = np.empty(self.size)
            for i in range(len(self._layers) - 1, -1, -1):
                w_start, b_start, n_out, _, last = self._layers[i]
                if not last:
                    g = g * masks[i]
                grads[w_start - first : b_start - first] = (g.T @ acts[i]).ravel()
                grads[b_start - first : b_start - first + n_out] = g.sum(axis=0)
                g = g @ weights[i]
            return grads, g

        return h, vjp

    def forward_on_tape(self, tape: Tape, params: int, x: int) -> int:
        """The MLP on the rows of the value ``x`` as one tape block, with
        gradients into the inputs and this block's slots of ``params``."""
        out, vjp = self.forward_with_vjp(tape.val(x))
        return _block(tape, params, x, out, vjp, slice(self.base, self.base + self.size))


class MonotonicNet:
    """Strictly monotonic piecewise-linear scalar map.

    ``f(x) = min_k max_j s*exp(w~[k,j])*x + b[k,j]`` — every slope carries
    the sign of ``s``, so f is strictly increasing for s>0 and strictly
    decreasing for s<0. Parameters live flat as [w~ (K*J), b (K*J), s].
    """

    kind = "mono"

    def __init__(self, k_groups: int, j_units: int, store: ParamStore | None = None):
        if k_groups < 1 or j_units < 1:
            raise ValueError("need at least one group and one unit")
        self.k_groups = k_groups
        self.j_units = j_units
        self.d = 1
        self.store = (store if store is not None
                      else ParamStore(self.param_count(k_groups, j_units)))

    @staticmethod
    def param_count(k_groups: int, j_units: int) -> int:
        """Store size of a net with this structure: [w~ (K*J), b (K*J), s]."""
        return 2 * k_groups * j_units + 1

    @classmethod
    def initialized(cls, k_groups: int, j_units: int, rng) -> "MonotonicNet":
        """Fresh net with slopes in (1/e, 1), biases in (-1, 1), sign +1."""
        net = cls(k_groups, j_units)
        n = k_groups * j_units
        net.store.values[:n] = rng.uniform(-1.0, 0.0, n)
        net.store.values[n : 2 * n] = rng.uniform(-1.0, 1.0, n)
        net.store.values[2 * n] = 1.0
        return net

    # -- parameter views ---------------------------------------------------

    @property
    def w_tilde(self) -> np.ndarray:
        n = self.k_groups * self.j_units
        return self.store.values[:n].reshape(self.k_groups, self.j_units)

    @property
    def bias(self) -> np.ndarray:
        n = self.k_groups * self.j_units
        return self.store.values[n : 2 * n].reshape(self.k_groups, self.j_units)

    @property
    def sign(self) -> float:
        return float(self.store.values[-1])

    def effective_weights(self) -> np.ndarray:
        # overflow to inf is deliberate: a diverged w~ shows up as a
        # non-finite slope, which inverse_batch rejects
        with np.errstate(over="ignore"):
            return self.sign * np.exp(self.w_tilde)

    # -- frozen-parameter evaluation ----------------------------------------

    def forward(self, x):
        """Evaluate at a scalar or an array of points."""
        x_arr = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            units = self.effective_weights() * x_arr[..., None, None] + self.bias
            out = units.max(axis=-1).min(axis=-1)
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def active_units(self, x):
        """(k, j) of the unit that attains the min-max at each point.

        Ties resolve to the lowest index; the tape methods record this
        unit's affine map.
        """
        x_arr = np.asarray(x, dtype=np.float64)
        units = self.effective_weights() * x_arr[..., None, None] + self.bias
        j_best = units.argmax(axis=-1)
        group_vals = np.take_along_axis(units, j_best[..., None], axis=-1)[..., 0]
        k_best = group_vals.argmin(axis=-1)
        j_sel = np.take_along_axis(j_best, k_best[..., None], axis=-1)[..., 0]
        return k_best, j_sel

    def inverse_batch(self, ys: np.ndarray) -> np.ndarray:
        """Exact inverse at an array of targets.

        Every unit line ``l_kj(x) = w_kj*x + b_kj`` is monotone in the
        direction of s. Inverting a max of increasing maps gives the min of
        their inverses and vice versa, so for s>0
        ``f^{-1}(y) = max_k min_j (y - b_kj) / w_kj``. For s<0 the lines
        decrease and both orders flip: ``min_k max_j`` of the same terms.
        """
        w = self.effective_weights()
        if not np.all(np.isfinite(w) & (w != 0.0)):
            raise InversionError(
                f"inversion out of range: zero or non-finite slope (sign {self.sign:g})")
        ys = np.asarray(ys, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            roots = (ys[..., None, None] - self.bias) / w
        if self.sign > 0:
            out = roots.min(axis=-1).max(axis=-1)
        else:
            out = roots.max(axis=-1).min(axis=-1)
        if not np.all(np.isfinite(out)):
            raise InversionError(
                f"inversion out of range: {int(np.sum(~np.isfinite(out)))} "
                "target(s) have no finite preimage")
        return out

    def active_segments(self, lo: float, hi: float):
        """Exact linear pieces of f on [lo, hi] as (x_left, x_right, k, j).

        Breakpoints can only sit at pairwise intersections of unit lines,
        so those crossings plus the interval ends enumerate every segment.
        """
        w = self.effective_weights().ravel()
        b = self.bias.ravel()
        cuts = {float(lo), float(hi)}
        n = len(w)
        for i in range(n):
            for j in range(i + 1, n):
                dw = w[i] - w[j]
                if dw != 0.0:
                    x = (b[j] - b[i]) / dw
                    if lo < x < hi:
                        cuts.add(float(x))
        xs = sorted(cuts)
        segments = []
        for x0, x1 in zip(xs[:-1], xs[1:]):
            k, j = self.active_units(0.5 * (x0 + x1))
            segments.append((x0, x1, int(k), int(j)))
        return segments

    def slope_range(self, lo: float, hi: float):
        """(min, max) slope attained by f anywhere on [lo, hi]."""
        w = self.effective_weights()
        slopes = [abs(w[k, j]) for _, _, k, j in self.active_segments(lo, hi)]
        return min(slopes), max(slopes)

    # -- training: one unit line per point --------------------------------------

    def _exp_w(self) -> np.ndarray:
        """``exp(w~)`` per unit, flat, by ``math.exp`` and overflowing to inf
        from w~ >= 709, so that a diverging run still ends in a non-finite
        loss or gradient."""
        return np.array([math.exp(v) if v < _EXP_MAX else math.inf
                         for v in self.w_tilde.ravel().tolist()])

    def _active_lines(self, x):
        """Flat unit index, slope and intercept of the unit line that is
        active at each point of ``x``."""
        k, j = self.active_units(x)
        u = (k * self.j_units + j).ravel()
        return u, (self.sign * self._exp_w())[u], self.bias.ravel()[u]

    def forward_with_vjp(self, x: np.ndarray):
        """f at an array of points through each point's active unit, whose
        affine map has the lattice's value and gradient.

        Returns ``(out, vjp)``; ``vjp(g)`` gives ``(part, input_grads)``
        where ``part`` holds per-point (unit, w-term, b-term) arrays that
        :meth:`param_grads` turns into store gradients.
        """
        u, w, b = self._active_lines(x)
        xf = x.ravel()

        def vjp(g):
            g = g.ravel()
            return (u, xf * g, g), (w * g).reshape(x.shape)

        return (w * xf + b).reshape(x.shape), vjp

    def inverse_with_vjp(self, y: np.ndarray):
        """f^{-1} at an array of targets: solved in closed form, then
        expressed through the active unit as ``(y - b) / w``; the VJP is
        shaped as in :meth:`forward_with_vjp`."""
        u, w, b = self._active_lines(self.inverse_batch(y))
        out = (y.ravel() - b) / w

        def vjp(g):
            g = g.ravel()
            g_y = (1.0 / w) * g
            return (u, (-out / w) * g, -g_y), g_y.reshape(y.shape)

        return out.reshape(y.shape), vjp

    def param_grads(self, parts) -> np.ndarray:
        """Store gradient from VJP parts, latest call first.

        The terms add up in the order a scalar reverse sweep adds them:
        each unit sums its terms over the parts in reverse, and s sums over
        the units in reverse order of first use, so gradients match the
        scalar chain ``w = s * exp(w~)`` bit for bit.
        """
        n = self.k_groups * self.j_units
        units = np.concatenate([u[::-1] for u, _, _ in parts])
        g_w = np.bincount(units, np.concatenate([t[::-1] for _, t, _ in parts]), minlength=n)
        g_b = np.bincount(units, np.concatenate([t[::-1] for _, _, t in parts]), minlength=n)
        calls = np.concatenate([u for u, _, _ in reversed(parts)])
        _, first = np.unique(calls, return_index=True)
        used = calls[np.sort(first)[::-1]]
        e = self._exp_w()
        grads = np.zeros(2 * n + 1)
        grads[used] = e[used] * (self.sign * g_w[used])
        grads[n : 2 * n] = g_b
        grads[2 * n] = np.cumsum(e[used] * g_w[used])[-1]
        return grads


class CouplingFlow:
    """Stack of affine coupling layers with frozen random permutations.

    Each layer permutes the coordinates, passes the first k through, and
    maps the rest as ``y2 = x2 * exp(a(x1)) + t(x1)`` where the scale
    output is hard-clamped to [-clamp, clamp] before exponentiation. The
    inverse runs the layers backwards with the closed-form
    ``x2 = (y2 - t(y1)) * exp(-a(y1))``.
    """

    kind = "flow"

    def __init__(self, d: int, n_layers: int, hidden_dim: int, rng,
                 clamp: float = 5.0, init: str = "near_identity",
                 permutations=None, subnet_scale: float = 1.0):
        if d < 2:
            raise ValueError("coupling flows need d >= 2")
        if init not in ("near_identity", "random"):
            raise ValueError(f"unknown init {init!r}")
        self.d = d
        self.n_layers = n_layers
        self.hidden_dim = hidden_dim
        self.clamp = float(clamp)
        self.split = d // 2
        dims = [self.split, hidden_dim, hidden_dim, d - self.split]
        per_subnet = mlp_param_count(dims)
        if permutations is None:
            perms = [rng.permutation(d) for _ in range(n_layers)]
        else:
            if len(permutations) != n_layers:
                raise ValueError("one permutation per layer required")
            perms = [np.asarray(p, dtype=np.int64) for p in permutations]
            for p in perms:
                if p.shape != (d,) or not np.array_equal(np.sort(p), np.arange(d)):
                    raise ValueError(f"not a permutation of range({d}): {p.tolist()}")
        self.perms = perms
        self.store = ParamStore(self.param_count(d, n_layers, hidden_dim))
        self.inv_perms = [np.argsort(p) for p in self.perms]
        # near_identity zeroes the last subnet layer so every coupling starts
        # as the identity; random keeps the map invertible but well enough
        # conditioned for tight round trips by shrinking the last layer.
        zero_last = init == "near_identity"
        last_scale = 0.1 if init == "random" else 1.0
        self.scale_nets = []
        self.shift_nets = []
        base = 0
        for _ in range(n_layers):
            self.scale_nets.append(
                Mlp(self.store, base, dims, rng, zero_last=zero_last,
                    scale=subnet_scale, last_scale=last_scale))
            base += per_subnet
            self.shift_nets.append(
                Mlp(self.store, base, dims, rng, zero_last=zero_last,
                    scale=subnet_scale, last_scale=last_scale))
            base += per_subnet

    @staticmethod
    def param_count(d: int, n_layers: int, hidden_dim: int) -> int:
        """Store size of a flow with this structure; ``__init__`` allocates it."""
        return 2 * n_layers * stack_param_count(d // 2, hidden_dim, 3, d - d // 2)

    # -- frozen-parameter evaluation ----------------------------------------

    def _check_dim(self, x: np.ndarray):
        if x.shape[-1] != self.d:
            raise ValueError(f"dimension mismatch: expected {self.d}, got {x.shape[-1]}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check_dim(x)
        return self._run(x, inverse=False)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        self._check_dim(y)
        return self._run(y, inverse=True)

    def _run(self, h: np.ndarray, inverse: bool, tape_layers=None) -> np.ndarray:
        """The layers on rows ``h`` of shape (..., d), last to first for the
        inverse; the one place the coupling update is written.

        Forward, layer i permutes and maps ``x2 -> x2 * exp(a) + t``; the
        inverse maps ``y2 -> (y2 - t) * exp(-a)`` and un-permutes, with
        ``a = clamp(s(h1))`` and ``t = t(h1)`` from the pass-through half h1.
        Given a list ``tape_layers``, each layer appends what its
        vector-Jacobian product needs (see ``_with_vjp``).
        """
        c = self.clamp
        for i in (range(self.n_layers - 1, -1, -1) if inverse else range(self.n_layers)):
            if not inverse:
                h = h[..., self.perms[i]]
            h1, h2 = h[..., : self.split], h[..., self.split :]
            if tape_layers is None:
                a = self.scale_nets[i].forward_np(h1)
                t = self.shift_nets[i].forward_np(h1)
            else:
                a, vjp_s = self.scale_nets[i].forward_with_vjp(h1)
                t, vjp_t = self.shift_nets[i].forward_with_vjp(h1)
            if inverse:
                u = h2 - t
                e = np.exp(-np.clip(a, -c, c))
                out = u * e
            else:
                u = h2
                e = np.exp(np.clip(a, -c, c))
                out = u * e + t
            if tape_layers is not None:
                # the gradient passes the clamp where a is inside it; ties
                # at +-clamp count as inside
                tape_layers.append((i, u, e, (a >= -c) & (a <= c), vjp_s, vjp_t))
            h = np.concatenate([h1, out], axis=-1)
            if inverse:
                h = h[..., self.inv_perms[i]]
        return h

    def selection_margin(self, x: np.ndarray, direction: str = "forward") -> float:
        """Distance to the nearest ReLU kink or clamp boundary along a pass.

        Near-zero margin means the map is not differentiable at x and
        finite-difference checks should skip the point.
        """
        x = np.asarray(x, dtype=np.float64)
        self._check_dim(x)
        margin = math.inf
        h = x
        order = (range(self.n_layers) if direction == "forward"
                 else range(self.n_layers - 1, -1, -1))
        for i in order:
            if direction == "forward":
                h = h[..., self.perms[i]]
            x1, x2 = h[..., : self.split], h[..., self.split :]
            margin = min(margin, self.scale_nets[i].relu_margin(x1),
                         self.shift_nets[i].relu_margin(x1))
            a = self.scale_nets[i].forward_np(x1)
            margin = min(margin, float(np.min(np.abs(np.abs(a) - self.clamp))))
            a = np.clip(a, -self.clamp, self.clamp)
            t = self.shift_nets[i].forward_np(x1)
            if direction == "forward":
                h = np.concatenate([x1, x2 * np.exp(a) + t], axis=-1)
            else:
                h = np.concatenate([x1, (x2 - t) * np.exp(-a)], axis=-1)
                h = h[..., self.inv_perms[i]]
        return margin

    # -- training ----------------------------------------------------------------

    def _with_vjp(self, h: np.ndarray, inverse: bool):
        """A whole pass over rows ``h`` and its vector-Jacobian product,
        which walks the layers back in numpy and returns the gradient over
        the whole store and the gradient of the inputs."""
        self._check_dim(h)
        layers = []
        out = self._run(h, inverse, layers)
        k = self.split

        def vjp(g):
            grads = np.empty(len(self.store))
            for i, u, e, mask, vjp_s, vjp_t in reversed(layers):
                if inverse:
                    g = g[:, self.perms[i]]
                g1, g2 = g[:, :k], g[:, k:]
                g_in2 = g2 * e
                g_a = g2 * u * e * mask
                if inverse:  # d/da of u * exp(-a) and d/dt of (h2 - t) * e
                    g_a, g_t = -g_a, -g_in2
                else:
                    g_t = g2
                for net, vjp_net, g_net in ((self.scale_nets[i], vjp_s, g_a),
                                            (self.shift_nets[i], vjp_t, g_t)):
                    p_grads, g_h1 = vjp_net(g_net)
                    grads[net.base : net.base + net.size] = p_grads
                    g1 = g1 + g_h1
                g = np.concatenate([g1, g_in2], axis=1)
                if not inverse:
                    g = g[:, self.inv_perms[i]]
            return grads, g

        return out, vjp

    def forward_with_vjp(self, x: np.ndarray):
        return self._with_vjp(x, inverse=False)

    def inverse_with_vjp(self, y: np.ndarray):
        return self._with_vjp(y, inverse=True)

    @staticmethod
    def param_grads(parts) -> np.ndarray:
        """Store gradient from VJP parts, latest call first."""
        return sum(parts)

    def forward_on_tape(self, tape: Tape, params: int, x: int) -> int:
        """The flow on the rows of the value ``x`` as one tape block."""
        return _block(tape, params, x, *self.forward_with_vjp(tape.val(x)))

    def inverse_on_tape(self, tape: Tape, params: int, y: int) -> int:
        """The inverse flow on the rows of the value ``y`` as one tape block."""
        return _block(tape, params, y, *self.inverse_with_vjp(tape.val(y)))
