"""Complex-valued building blocks with explicit forward and backward passes.

Gradient convention: for a real scalar loss L and a complex array z, gradient
arrays hold dL/dRe(z) + 1j * dL/dIm(z).  Complex parameters are then exactly
pairs of real parameters and every backward pass here can be checked against
central finite differences over those pairs.  A backward pass returns its
input gradients and adds its parameter gradients into the holders it is given.

Every forward matrix product goes through ``_matmul``; flops.py's cost model
counts exactly those products.  ``GroupSampler`` leaves the group layout to
its structure's ``gather`` and ``scatter``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "complex_glorot",
    "log_scale",
    "log_scale_backward",
    "dense",
    "dense_backward",
    "ComplexGruLayer",
    "GroupSampler",
]

_TINY = 1e-12


def complex_glorot(rng, shape, fan_in, fan_out):
    """Glorot-scaled complex normal; variance split evenly across re/im."""
    scale = np.sqrt(1.0 / (fan_in + fan_out))
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _log_gain(m):
    """ln(1 + m)/m evaluated stably, 1 at m = 0."""
    small = m < 1e-4
    safe = np.where(small, 1.0, m)
    gain = np.log1p(safe) / safe
    series = 1.0 - m / 2.0 + m * m / 3.0
    return np.where(small, series, gain)


def _log_gain_deriv(m):
    """d/dm of ln(1 + m)/m, -1/2 at m = 0."""
    small = m < 1e-4
    safe = np.where(small, 1.0, m)
    deriv = (safe / (1.0 + safe) - np.log1p(safe)) / (safe * safe)
    series = -0.5 + 2.0 * m / 3.0 - 0.75 * m * m
    return np.where(small, series, deriv)


def log_scale(z, out=None):
    """Magnitude compression ln(1 + |z|) e^{j arg z}; phase preserving.

    ``out``, if given, receives the result.
    """
    z = np.asarray(z)
    return np.multiply(_log_gain(np.abs(z)), z, out=out)


def log_scale_backward(z, g_out):
    """Backward of log_scale at input z."""
    m = np.abs(z)
    gain = _log_gain(m)
    radial = np.real(np.conj(z) * g_out) * _log_gain_deriv(m)
    correction = np.where(m < _TINY, 0.0, radial / np.where(m < _TINY, 1.0, m))
    return gain * g_out + correction * z


def _matmul(x, weight, out=None):
    # x (..., n_in) @ weight (n_out, n_in)^T
    return np.matmul(x, weight.T, out=out)


def dense(x, weight, bias=None, out=None):
    """y = x W^T (+ b) over the last axis; ``out``, if given, receives y."""
    y = _matmul(x, weight, out=out)
    if bias is not None:
        y = np.add(y, bias, out=out)
    return y


def dense_backward(g_y, x, weight, g_weight, g_bias=None, out=None):
    """Returns g_x; adds the weight (and, given its holder, bias) gradients into
    ``g_weight`` and ``g_bias``.  Leading axes are summed into them.

    ``out``, if given, is an array shaped like x, not g_y, that receives
    conj(x) for the weight gradient and then g_x; it may be x itself.
    """
    flat_g = g_y.reshape(-1, g_y.shape[-1])
    x_conj = np.conjugate(x, out=out)
    g_weight += flat_g.T @ x_conj.reshape(-1, x.shape[-1])
    if g_bias is not None:
        g_bias += flat_g.sum(axis=0)
    return np.matmul(g_y, np.conj(weight), out=out)


def _split_sigmoid(z):
    """Sigmoid of the real and imaginary parts separately; overwrites and returns z.

    Works on the float64 view of z, whose last axis must be contiguous.
    """
    v = z.view(np.float64)
    np.negative(v, out=v)
    np.exp(v, out=v)
    v += 1.0
    np.divide(1.0, v, out=v)
    return z


def _split_tanh(z):
    """tanh of the real and imaginary parts separately; overwrites and returns z."""
    v = z.view(np.float64)
    np.tanh(v, out=v)
    return z


def _split_sigmoid_backward(g, s, out, local):
    """out <- g * s * (1 - s) on the real and imaginary parts separately.

    ``local``, a contiguous array shaped like g, receives s * (1 - s) first:
    out is a slice of the gate gradients, and passes over a slice are slower.
    """
    sv, lv = s.view(np.float64), local.view(np.float64)
    np.subtract(1.0, sv, out=lv)
    lv *= sv
    np.multiply(g.view(np.float64), lv, out=out.view(np.float64))


def _split_tanh_backward(g, t, out, local):
    """out <- g * (1 - t^2) on the real and imaginary parts separately;
    ``local`` as in ``_split_sigmoid_backward``."""
    lv = local.view(np.float64)
    np.square(t.view(np.float64), out=lv)
    np.subtract(1.0, lv, out=lv)
    np.multiply(g.view(np.float64), lv, out=out.view(np.float64))


@dataclass
class ComplexGruLayer:
    """Complex GRU with split re/im activations, reset applied before the candidate.

    Each field stacks the update, reset and candidate gates along its first
    axis: w (3H, in) = w_z|w_r|w_c, u (3H, H) = u_z|u_r|u_c, b (3H,) = b_z|b_r|b_c.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, rng, input_size, hidden_size):
        """Glorot weights drawn gate by gate (its w, then its u); zero biases."""
        h = hidden_size
        w = np.empty((3 * h, input_size), dtype=complex)
        u = np.empty((3 * h, h), dtype=complex)
        for gate in range(3):
            w[gate * h : (gate + 1) * h] = complex_glorot(rng, (h, input_size), input_size, h)
            u[gate * h : (gate + 1) * h] = complex_glorot(rng, (h, h), h, h)
        return cls(w=w, u=u, b=np.zeros(3 * h, dtype=complex))

    @property
    def hidden_size(self):
        return self.u.shape[1]

    def step(self, x, h, out=None):
        """One recurrence step.  x (..., in), h (..., H) -> (h_new, zr, c).

        The three input products and the two gate products on h run as one
        stacked product each, so z and r are the two halves of zr (..., 2H).
        ``out``, if given, is an (h_new, zr, c) triple of arrays shaped like
        h's batch that the step writes into instead of allocating them.
        """
        hidden = self.hidden_size
        h_new, zr, c = out or (None, None, None)
        x_gates = _matmul(x, self.w)
        zr = _matmul(h, self.u[: 2 * hidden], out=zr)
        zr += x_gates[..., : 2 * hidden]
        zr += self.b[: 2 * hidden]
        _split_sigmoid(zr)
        z, r = zr[..., :hidden], zr[..., hidden:]
        rh = r * h
        c = _matmul(rh, self.u[2 * hidden :], out=c)
        c += x_gates[..., 2 * hidden :]
        c += self.b[2 * hidden :]
        _split_tanh(c)
        h_new = np.subtract(1.0, z, out=h_new)
        h_new *= c
        h_new += np.multiply(z, h, out=rh)
        return h_new, zr, c

    def backward(self, g_h_new, x, h, zr, c, grads, out=None):
        """Returns (g_x, g_h) and adds the parameter gradients into ``grads``,
        a layer of this shape whose fields hold them.

        x and h are the step's inputs and zr, c what it returned; r * h is
        rebuilt here, as the step computed it.  ``out``, if given, is a
        (g_x, g_h, g_gates, work) tuple to write into instead of allocating:
        g_x shaped like x (it may be g_h_new, read before g_x is written), g_h
        like h, g_gates like zr with 3H on the last axis, which receives the
        z|r|c pre-activation gradients, and work a pair of arrays like h.
        """
        hidden = self.hidden_size
        if out is None:
            batch = g_h_new.shape[:-1]
            out = (np.empty(batch + x.shape[-1:], dtype=complex),
                   np.empty(batch + (hidden,), dtype=complex),
                   np.empty(batch + (3 * hidden,), dtype=complex),
                   np.empty((2,) + batch + (hidden,), dtype=complex))
        g_x, g_h, g_gates, (work, local) = out
        z, r = zr[..., :hidden], zr[..., hidden:]
        g_az, g_ar, g_ac = (g_gates[..., i * hidden : (i + 1) * hidden] for i in range(3))
        np.subtract(h, c, out=work)
        np.conjugate(work, out=work)
        work *= g_h_new
        _split_sigmoid_backward(work, z, g_az, local)
        np.subtract(1.0, z, out=work)
        np.conjugate(work, out=work)
        work *= g_h_new
        _split_tanh_backward(work, c, g_ac, local)
        np.conjugate(z, out=g_h)
        g_h *= g_h_new

        np.multiply(r, h, out=work)
        g_rh = dense_backward(g_ac, work, self.u[2 * hidden :], grads.u[2 * hidden :], out=work)
        np.conjugate(r, out=local)
        local *= g_rh
        g_h += local
        np.conjugate(h, out=local)
        local *= g_rh
        _split_sigmoid_backward(local, r, g_ar, work)

        flat_g = g_gates.reshape(-1, 3 * hidden)
        grads.w += flat_g.T @ np.conjugate(x, out=g_x).reshape(-1, x.shape[-1])
        grads.b += flat_g.sum(axis=0)
        grads.u[: 2 * hidden] += (flat_g[:, : 2 * hidden].T
                                  @ np.conjugate(h, out=work).reshape(-1, hidden))
        np.matmul(g_gates, np.conj(self.w), out=g_x)
        g_h += np.matmul(g_gates[..., : 2 * hidden], np.conj(self.u[: 2 * hidden]), out=work)
        return g_x, g_h


@dataclass
class GroupSampler:
    """Gathers per-group feature windows and scatters per-group outputs back.

    down_kernel (H, 5*width) maps a flattened window (width bins x 5 channels,
    bin-major) to the group input; up_kernel (width, H) maps the group output
    to per-bin corrections, overlap-added for banded layouts.  Both are
    bias-free so zero activations map to zero corrections.
    """

    structure: object
    down_kernel: np.ndarray
    up_kernel: np.ndarray

    NUM_CHANNELS = 5

    @classmethod
    def init(cls, rng, structure, hidden_size):
        n_in = cls.NUM_CHANNELS * structure.width
        down = complex_glorot(rng, (hidden_size, n_in), n_in, hidden_size)
        up = complex_glorot(rng, (structure.width, hidden_size), hidden_size, structure.width)
        return cls(structure=structure, down_kernel=down, up_kernel=up)

    def downsample(self, features, out=None):
        """(..., K, 5) -> (..., C, H) group inputs; ``out``, if given, receives them."""
        return dense(self._flat_windows(features), self.down_kernel, out=out)

    def downsample_backward(self, g_groups, features, grads, out=None):
        """Returns g_features given the gradient of ``downsample(features)``,
        and adds the kernel's gradient into ``grads.down_kernel``.  ``out``, if
        given, is a (..., C, 5*width) array that receives the per-window
        gradients; for diagonal and block layouts g_features is a view of it."""
        flat = self._flat_windows(features)
        g_flat = dense_backward(g_groups, flat, self.down_kernel, grads.down_kernel, out=out)
        return self.structure.scatter(g_flat.reshape(*g_flat.shape[:-1], -1, self.NUM_CHANNELS))

    def upsample(self, groups):
        """(..., C, H) -> (..., K) per-bin corrections."""
        return self.structure.scatter(dense(groups, self.up_kernel)[..., None])[..., 0]

    def upsample_backward(self, g_delta, groups, grads, out=None):
        """Returns g_groups given the gradient of ``upsample(groups)``, and adds
        the kernel's gradient into ``grads.up_kernel``.  ``out``, if given,
        receives g_groups as in ``dense_backward``; it may be groups itself."""
        g_per_bin = self.structure.gather(g_delta[..., None])[..., 0]
        return dense_backward(g_per_bin, groups, self.up_kernel, grads.up_kernel, out=out)

    def _flat_windows(self, features):
        """Per-group windows of features (..., K, 5), flattened to (..., C, 5*width)."""
        windows = self.structure.gather(features)
        return windows.reshape(*windows.shape[:-2], -1)
