"""Complex-valued building blocks with explicit forward and backward passes.

Gradient convention: for a real scalar loss L and a complex array z, gradient
arrays hold dL/dRe(z) + 1j * dL/dIm(z).  Complex parameters are then exactly
pairs of real parameters and every backward pass here can be checked against
central finite differences over those pairs.

Forward passes optionally take a FlopCounter; only matrix products are
tallied (see flops.py for the convention).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .structures import cached_window_bins

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


def _matmul(x, weight, counter, out=None):
    # x (..., n_in) @ weight (n_out, n_in)^T
    if counter is not None:
        counter.tally_matmul(x.size // x.shape[-1], weight.shape[1], weight.shape[0])
    return np.matmul(x, weight.T, out=out)


def dense(x, weight, bias=None, counter=None):
    """y = x W^T (+ b) over the last axis."""
    y = _matmul(x, weight, counter)
    if bias is not None:
        y = y + bias
    return y


def dense_backward(g_y, x, weight, with_bias=True):
    """Returns (g_x, g_weight, g_bias); leading axes are summed into weights."""
    g_x = g_y @ np.conj(weight)
    flat_g = g_y.reshape(-1, g_y.shape[-1])
    flat_x = x.reshape(-1, x.shape[-1])
    g_w = flat_g.T @ np.conj(flat_x)
    g_b = flat_g.sum(axis=0) if with_bias else None
    return g_x, g_w, g_b


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


def _split_sigmoid_backward(g, s, out):
    """out <- g * s * (1 - s) on the real and imaginary parts separately."""
    sv = s.view(np.float64)
    local = np.subtract(1.0, sv)
    local *= sv
    np.multiply(g.view(np.float64), local, out=out.view(np.float64))


def _split_tanh_backward(g, t, out):
    """out <- g * (1 - t^2) on the real and imaginary parts separately."""
    local = np.square(t.view(np.float64))
    np.subtract(1.0, local, out=local)
    np.multiply(g.view(np.float64), local, out=out.view(np.float64))


GruCache = namedtuple("GruCache", "x h z r c")


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

    def step(self, x, h, counter=None, out=None):
        """One recurrence step.  x (..., in), h (..., H) -> (h_new, cache).

        The three input products and the two gate products on h run as one
        stacked product each; the cached z and r are views of one buffer.
        ``out``, if given, is (h_new, zr, c) with zr (..., 2H): arrays shaped
        like h's batch that the step writes h_new, z|r and c into instead of
        allocating them.
        """
        hidden = self.hidden_size
        h_new, zr, c = out or (None, None, None)
        x_gates = _matmul(x, self.w, counter)
        zr = _matmul(h, self.u[: 2 * hidden], counter, out=zr)
        zr += x_gates[..., : 2 * hidden]
        zr += self.b[: 2 * hidden]
        _split_sigmoid(zr)
        z, r = zr[..., :hidden], zr[..., hidden:]
        rh = r * h
        c = _matmul(rh, self.u[2 * hidden :], counter, out=c)
        c += x_gates[..., 2 * hidden :]
        c += self.b[2 * hidden :]
        _split_tanh(c)
        h_new = np.subtract(1.0, z, out=h_new)
        h_new *= c
        h_new += np.multiply(z, h, out=rh)
        return h_new, GruCache(x, h, z, r, c)

    def backward(self, g_h_new, cache):
        """Returns (g_x, g_h, grads) with grads keyed like the fields: w, u, b.

        r * h is rebuilt here, as the step computed it, rather than cached.
        """
        x, h, z, r, c = cache
        hidden = self.hidden_size
        w_z, w_r, w_c = (self.w[i * hidden : (i + 1) * hidden] for i in range(3))
        u_z, u_r, u_c = (self.u[i * hidden : (i + 1) * hidden] for i in range(3))
        # gate pre-activation gradients, laid out like the stacked z|r|c products
        g_gates = np.empty(g_h_new.shape[:-1] + (3 * hidden,), dtype=complex)
        g_az, g_ar, g_ac = (g_gates[..., i * hidden : (i + 1) * hidden] for i in range(3))
        _split_sigmoid_backward(np.conj(h - c) * g_h_new, z, out=g_az)
        _split_tanh_backward(np.conj(1.0 - z) * g_h_new, c, out=g_ac)
        g_h = np.conj(z) * g_h_new

        g_u = np.empty_like(self.u)
        g_rh, g_u[2 * hidden :], _ = dense_backward(g_ac, r * h, u_c, with_bias=False)
        _split_sigmoid_backward(np.conj(h) * g_rh, r, out=g_ar)
        g_h += np.conj(r) * g_rh

        # Weight and bias gradients come from the stacked products.  The input
        # and state gradients are summed gate by gate in a fixed c, r, z order:
        # one stacked product would reorder those sums, and Adam turns such
        # last-bit differences into different trained checkpoints.
        flat_g = g_gates.reshape(-1, 3 * hidden)
        g_w = flat_g.T @ np.conj(x.reshape(-1, x.shape[-1]))
        g_b = flat_g.sum(axis=0)
        g_u[: 2 * hidden] = flat_g[:, : 2 * hidden].T @ np.conj(h.reshape(-1, hidden))
        g_x = g_ac @ np.conj(w_c)
        g_x += g_ar @ np.conj(w_r)
        g_x += g_az @ np.conj(w_z)
        g_h += g_ar @ np.conj(u_r)
        g_h += g_az @ np.conj(u_z)
        return g_x, g_h, {"w": g_w, "u": g_u, "b": g_b}


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

    @property
    def hidden_size(self):
        return self.down_kernel.shape[0]

    def downsample(self, features, counter=None):
        """(..., K, 5) -> (..., C, H) group inputs; returns (groups, cache).

        The cache is (flat windows, K); ``dense(flat, down_kernel)`` rebuilds
        the group inputs from it.
        """
        num_bins = features.shape[-2]
        windows = self._gather_windows(features, num_bins)
        flat = windows.reshape(*windows.shape[:-2], -1)
        return dense(flat, self.down_kernel, counter=counter), (flat, num_bins)

    def downsample_backward(self, g_groups, cache):
        flat, num_bins = cache
        g_flat, g_down, _ = dense_backward(g_groups, flat, self.down_kernel, with_bias=False)
        width = self.structure.width
        g_windows = g_flat.reshape(*g_flat.shape[:-1], width, self.NUM_CHANNELS)
        g_features = self._scatter_windows(g_windows, num_bins)
        return g_features, g_down

    def upsample(self, groups, counter=None):
        """(..., C, H) -> (..., K) per-bin corrections; returns (delta, cache)."""
        per_bin = dense(groups, self.up_kernel, counter=counter)
        num_bins = self.structure.bins_for_groups(groups.shape[-2])
        delta = self._scatter_windows(per_bin[..., None], num_bins)[..., 0]
        return delta, (groups, num_bins)

    def upsample_backward(self, g_delta, cache):
        groups, num_bins = cache
        g_per_bin = self._gather_windows(g_delta[..., None], num_bins)[..., 0]
        g_groups, g_up, _ = dense_backward(g_per_bin, groups, self.up_kernel, with_bias=False)
        return g_groups, g_up

    def _gather_windows(self, x, num_bins):
        """Per-group windows (..., C, width, ch) of x (..., K, ch).

        Diagonal and block windows are disjoint runs of bins, so they are a
        reshape (a view of a contiguous x); banded windows overlap and are
        gathered.
        """
        if self.structure.kind == "banded":
            return x[..., cached_window_bins(self.structure, num_bins), :]
        groups = self.structure.group_count(num_bins)
        return x.reshape(*x.shape[:-2], groups, self.structure.width, x.shape[-1])

    def _scatter_windows(self, windows, num_bins):
        """Adjoint of the window gather: overlap-add (..., C, width, ch) -> (..., K, ch)."""
        chans = windows.shape[-1]
        if self.structure.kind == "banded":
            even = windows[..., 0::2, :, :]
            odd = windows[..., 1::2, :, :]
            out = even.reshape(*even.shape[:-3], num_bins, chans)
            odd_flat = odd.reshape(*odd.shape[:-3], num_bins, chans)
            return out + np.roll(odd_flat, self.structure.width // 2, axis=-2)
        return windows.reshape(*windows.shape[:-3], num_bins, chans)
