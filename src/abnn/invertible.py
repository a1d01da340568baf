"""Trainable bijections of R^d.

Two families:

* :class:`MonotonicNet` for d=1 — a min-over-groups of max-over-units lattice
  of affine functions whose slopes all share the sign of a learned
  coefficient, hence strictly monotonic and piecewise linear. Inverted in
  closed form: the inverse is the max-min (min-max when decreasing) lattice
  of the inverted unit lines.
* :class:`CouplingFlow` for d>=2 — a stack of affine coupling layers with
  frozen random permutations in between. Inverted analytically.

Both keep their weights in a flat :class:`~abnn.numcore.ParamStore` and
record training batches on a :class:`~abnn.numcore.Tape` through one method
per direction, ``forward_on_tape`` and ``inverse_on_tape``; an :class:`Mlp`
has only the forward. Each takes a list of id rows and returns a list of
id rows.
"""

from __future__ import annotations

import math

import numpy as np

from .numcore import ParamStore, Tape

__all__ = ["InversionError", "Mlp", "MonotonicNet", "CouplingFlow", "Staged"]


class InversionError(RuntimeError):
    """Inversion failed: the map is not a bijection (a zero or non-finite
    slope) or a target has no finite preimage."""


class Staged:
    """Bookkeeping for one ParamStore staged onto one Tape.

    Slot ``i`` of the store lives at tape node ``base + i``. Models cache
    derived node ids (effective weights, clamp constants) here so a batch
    pays for them once.
    """

    def __init__(self, tape: Tape, base: int):
        self.tape = tape
        self.base = base
        self.cache = {}

    def slot(self, s: int) -> int:
        return self.base + s


def _check_rows(batch_ids, d: int):
    for ids in batch_ids:
        if len(ids) != d:
            raise ValueError(f"dimension mismatch: expected {d}, got {len(ids)}")
    return batch_ids


def mlp_param_count(dims) -> int:
    return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


class Mlp:
    """Feedforward block (ReLU hidden, linear output) slotted into a shared store.

    ``dims`` lists layer widths, e.g. ``[4, 32, 32, 4]`` is three linear
    layers. Weights use He-uniform fan-in init; ``zero_last`` zeroes the
    final layer so the block starts as the zero function.
    """

    def __init__(self, store: ParamStore, base: int, dims, rng, zero_last=False,
                 scale=1.0, last_scale=1.0):
        self.store = store
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

    def forward_on_tape(self, staged: Staged, batch_ids):
        """The MLP on a batch of input vectors as one tape block.

        Values come from a numpy pass over the store (identical to the
        staged leaves within a step); backward is the matching numpy
        vector-Jacobian product into the inputs and the staged weights.
        """
        tape = staged.tape
        flat_in = [x for ids in batch_ids for x in ids]
        h = np.asarray(tape.vals(flat_in)).reshape(len(batch_ids), self.dims[0])
        weights, acts, masks = [], [], []
        for i in range(len(self._layers)):
            w = self.weight(i).copy()
            weights.append(w)
            acts.append(h)
            h = h @ w.T + self.bias(i)
            if not self._layers[i][4]:
                masks.append(h > 0.0)
                np.maximum(h, 0.0, out=h)
        first = self._layers[0][0]
        params = range(staged.base + first, staged.base + first + self.size)

        def vjp(g):
            g = g.reshape(h.shape)
            grads = np.empty(len(params))
            for i in range(len(self._layers) - 1, -1, -1):
                w_start, b_start, n_out, _, last = self._layers[i]
                if not last:
                    g = g * masks[i]
                grads[w_start - first : b_start - first] = (g.T @ acts[i]).ravel()
                grads[b_start - first : b_start - first + n_out] = g.sum(axis=0)
                g = g @ weights[i]
            return [(params, grads), (flat_in, g.ravel())]

        ids = tape.block(h.ravel(), vjp)
        n_out = self.dims[-1]
        return [ids[r * n_out : (r + 1) * n_out] for r in range(len(batch_ids))]


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
        n = k_groups * j_units
        self.store = store if store is not None else ParamStore(2 * n + 1)

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

    # -- tape evaluation -----------------------------------------------------

    def stage(self, tape: Tape) -> Staged:
        return Staged(tape, tape.stage_params(self.store))

    def unit_ids(self, staged: Staged, k: int, j: int):
        """(effective-weight node, bias node) for one unit, cached per batch."""
        key = (id(self), k, j)
        ids = staged.cache.get(key)
        if ids is None:
            tape = staged.tape
            n = self.k_groups * self.j_units
            flat = k * self.j_units + j
            w_eff = tape.mul(staged.slot(2 * n), tape.exp(staged.slot(flat)))
            ids = (w_eff, staged.slot(n + flat))
            staged.cache[key] = ids
        return ids

    def forward_on_tape(self, staged: Staged, batch_ids):
        """f on a batch of 1-vectors through each point's active unit only;
        that affine map has the lattice's value and gradient."""
        tape = staged.tape
        xs = [ids[0] for ids in _check_rows(batch_ids, 1)]
        ks, js = self.active_units(np.array(tape.vals(xs)))
        out = []
        for x, k, j in zip(xs, ks.tolist(), js.tolist()):
            w_id, b_id = self.unit_ids(staged, k, j)
            out.append([tape.add(tape.mul(w_id, x), b_id)])
        return out

    def inverse_on_tape(self, staged: Staged, batch_ids):
        """Differentiable inverse: solve for x in closed form, then express
        it through the active unit so gradients flow into y, w~, b, and s."""
        tape = staged.tape
        ys = [ids[0] for ids in _check_rows(batch_ids, 1)]
        ks, js = self.active_units(self.inverse_batch(np.array(tape.vals(ys))))
        out = []
        for y, k, j in zip(ys, ks.tolist(), js.tolist()):
            w_id, b_id = self.unit_ids(staged, k, j)
            out.append([tape.div(tape.sub(y, b_id), w_id)])
        return out


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
        k, m = self.split, d - self.split
        dims = [k, hidden_dim, hidden_dim, m]
        per_subnet = mlp_param_count(dims)
        self.store = ParamStore(2 * per_subnet * n_layers)
        if permutations is None:
            self.perms = [rng.permutation(d) for _ in range(n_layers)]
        else:
            if len(permutations) != n_layers:
                raise ValueError("one permutation per layer required")
            self.perms = [np.asarray(p, dtype=np.int64) for p in permutations]
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

    # -- frozen-parameter evaluation ----------------------------------------

    def _check_dim(self, x: np.ndarray):
        if x.shape[-1] != self.d:
            raise ValueError(f"dimension mismatch: expected {self.d}, got {x.shape[-1]}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check_dim(x)
        h = x
        for i in range(self.n_layers):
            h = h[..., self.perms[i]]
            x1, x2 = h[..., : self.split], h[..., self.split :]
            a = np.clip(self.scale_nets[i].forward_np(x1), -self.clamp, self.clamp)
            y2 = x2 * np.exp(a) + self.shift_nets[i].forward_np(x1)
            h = np.concatenate([x1, y2], axis=-1)
        return h

    def inverse(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        self._check_dim(y)
        h = y
        for i in range(self.n_layers - 1, -1, -1):
            y1, y2 = h[..., : self.split], h[..., self.split :]
            a = np.clip(self.scale_nets[i].forward_np(y1), -self.clamp, self.clamp)
            x2 = (y2 - self.shift_nets[i].forward_np(y1)) * np.exp(-a)
            h = np.concatenate([y1, x2], axis=-1)
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

    # -- tape evaluation -----------------------------------------------------

    def stage(self, tape: Tape) -> Staged:
        return Staged(tape, tape.stage_params(self.store))

    def _clamped(self, tape: Tape, staged: Staged, a_id: int) -> int:
        key = (id(self), "clamp_consts")
        consts = staged.cache.get(key)
        if consts is None:
            consts = (tape.const(-self.clamp), tape.const(self.clamp))
            staged.cache[key] = consts
        neg_c, pos_c = consts
        return tape.minimum(tape.maximum(a_id, neg_c), pos_c)

    def forward_on_tape(self, staged: Staged, batch_ids):
        """The flow on a batch of vectors; each subnet is one block per layer."""
        tape = staged.tape
        hs = [list(ids) for ids in _check_rows(batch_ids, self.d)]
        for i in range(self.n_layers):
            hs = [[h[p] for p in self.perms[i]] for h in hs]
            x1s = [h[: self.split] for h in hs]
            a_rows = self.scale_nets[i].forward_on_tape(staged, x1s)
            t_rows = self.shift_nets[i].forward_on_tape(staged, x1s)
            hs = [
                x1 + [tape.add(tape.mul(x2c, tape.exp(self._clamped(tape, staged, ac))), tc)
                      for x2c, ac, tc in zip(h[self.split :], a_ids, t_ids)]
                for h, x1, a_ids, t_ids in zip(hs, x1s, a_rows, t_rows)
            ]
        return hs

    def inverse_on_tape(self, staged: Staged, batch_ids):
        tape = staged.tape
        hs = [list(ids) for ids in _check_rows(batch_ids, self.d)]
        for i in range(self.n_layers - 1, -1, -1):
            y1s = [h[: self.split] for h in hs]
            a_rows = self.scale_nets[i].forward_on_tape(staged, y1s)
            t_rows = self.shift_nets[i].forward_on_tape(staged, y1s)
            hs = [
                y1 + [tape.mul(tape.sub(y2c, tc),
                               tape.exp(tape.neg(self._clamped(tape, staged, ac))))
                      for y2c, ac, tc in zip(h[self.split :], a_ids, t_ids)]
                for h, y1, a_ids, t_ids in zip(hs, y1s, a_rows, t_rows)
            ]
            hs = [[h[p] for p in self.inv_perms[i]] for h in hs]
        return hs
