"""Finite-difference oracles shared by the gradient tests, and two small
tape probes.

The oracles are deliberately independent of the tape: they evaluate plain
float functions, so they can certify reverse-mode results. The probes
record one block each, with the vector-Jacobian product written out here.
"""

import numpy as np


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-4):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grad_close(ad_grad, fd_grad, tol=1e-4):
    err = rel_err(ad_grad, fd_grad)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"


def project(tape, h, probe):
    """The scalar ``<probe, val(h)>`` as a block, so that a vector value has
    one output to differentiate."""
    v = tape.val(h)
    probe = np.asarray(probe, dtype=np.float64).reshape(v.shape)
    return tape.block(np.vdot(probe, v), lambda g: [(h, g * probe)])


def reshaped(tape, h, shape):
    """The value ``h`` in another shape, as a block."""
    v = tape.val(h)
    return tape.block(v.reshape(shape), lambda g: [(h, g.reshape(v.shape))])


def map_on_tape(tape, phi, x, inverse=False):
    """phi (or its inverse) at the array ``x`` as one block through the
    map's own forward or inverse VJP, with gradients into a fresh staging
    of ``phi.store``."""
    params = tape.stage_params(phi.store)
    x = np.asarray(x, dtype=np.float64)
    out, vjp = (phi.inverse_with_vjp if inverse else phi.forward_with_vjp)(x)

    def block_vjp(g):
        part, _ = vjp(g)
        return [(params, phi.param_grads([part]))]

    return tape.block(out, block_vjp)
