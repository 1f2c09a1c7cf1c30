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
from dataclasses import dataclass, fields

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


def log_scale(z):
    """Magnitude compression ln(1 + |z|) e^{j arg z}; phase preserving."""
    z = np.asarray(z)
    return _log_gain(np.abs(z)) * z


def log_scale_backward(z, g_out):
    """Backward of log_scale at input z."""
    m = np.abs(z)
    gain = _log_gain(m)
    radial = np.real(np.conj(z) * g_out) * _log_gain_deriv(m)
    correction = np.where(m < _TINY, 0.0, radial / np.where(m < _TINY, 1.0, m))
    return gain * g_out + correction * z


def _matmul(x, weight, counter):
    # x (..., n_in) @ weight (n_out, n_in)^T
    if counter is not None:
        counter.tally_matmul(x.size // x.shape[-1], weight.shape[1], weight.shape[0])
    return x @ weight.T


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


GruCache = namedtuple("GruCache", "x h z r rh c")


@dataclass
class ComplexGruLayer:
    """Complex GRU with split re/im activations, reset applied before the candidate."""

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_c: np.ndarray
    u_c: np.ndarray
    b_c: np.ndarray

    @classmethod
    def init(cls, rng, input_size, hidden_size):
        def mat(n_in):
            return complex_glorot(rng, (hidden_size, n_in), n_in, hidden_size)

        zero = np.zeros(hidden_size, dtype=complex)
        return cls(
            w_z=mat(input_size), u_z=mat(hidden_size), b_z=zero.copy(),
            w_r=mat(input_size), u_r=mat(hidden_size), b_r=zero.copy(),
            w_c=mat(input_size), u_c=mat(hidden_size), b_c=zero.copy(),
        )

    @property
    def hidden_size(self):
        return self.w_z.shape[0]

    def tensor_items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def step(self, x, h, counter=None):
        """One recurrence step.  x (..., in), h (..., H) -> (h_new, cache).

        The three input products and the two gate products on h run as one
        stacked product each; the cached z and r are views of one buffer.
        """
        hidden = self.hidden_size
        x_gates = _matmul(x, np.concatenate((self.w_z, self.w_r, self.w_c)), counter)
        zr = x_gates[..., : 2 * hidden] + _matmul(h, np.concatenate((self.u_z, self.u_r)), counter)
        zr += np.concatenate((self.b_z, self.b_r))
        _split_sigmoid(zr)
        z, r = zr[..., :hidden], zr[..., hidden:]
        rh = r * h
        c = _matmul(rh, self.u_c, counter)
        c += x_gates[..., 2 * hidden :]
        c += self.b_c
        _split_tanh(c)
        h_new = np.subtract(1.0, z)
        h_new *= c
        h_new += z * h
        return h_new, GruCache(x, h, z, r, rh, c)

    def backward(self, g_h_new, cache):
        """Returns (g_x, g_h, grads) with grads keyed like tensor_items()."""
        x, h, z, r, rh, c = cache
        hidden = self.hidden_size
        # gate pre-activation gradients, laid out like the stacked z|r|c products
        g_gates = np.empty(g_h_new.shape[:-1] + (3 * hidden,), dtype=complex)
        g_az, g_ar, g_ac = (g_gates[..., i * hidden : (i + 1) * hidden] for i in range(3))
        _split_sigmoid_backward(np.conj(h - c) * g_h_new, z, out=g_az)
        _split_tanh_backward(np.conj(1.0 - z) * g_h_new, c, out=g_ac)
        g_h = np.conj(z) * g_h_new

        g_rh, g_uc, _ = dense_backward(g_ac, rh, self.u_c, with_bias=False)
        _split_sigmoid_backward(np.conj(h) * g_rh, r, out=g_ar)
        g_h += np.conj(r) * g_rh

        # Weight and bias gradients come from the stacked products.  The input
        # and state gradients are summed gate by gate in a fixed c, r, z order:
        # one stacked product would reorder those sums, and Adam turns such
        # last-bit differences into different trained checkpoints.
        flat_g = g_gates.reshape(-1, 3 * hidden)
        g_w = flat_g.T @ np.conj(x.reshape(-1, x.shape[-1]))
        g_b = flat_g.sum(axis=0)
        g_u = flat_g[:, : 2 * hidden].T @ np.conj(h.reshape(-1, hidden))
        g_x = g_ac @ np.conj(self.w_c)
        g_x += g_ar @ np.conj(self.w_r)
        g_x += g_az @ np.conj(self.w_z)
        g_h += g_ar @ np.conj(self.u_r)
        g_h += g_az @ np.conj(self.u_z)

        g_wz, g_wr, g_wc = np.split(g_w, 3)
        g_bz, g_br, g_bc = np.split(g_b, 3)
        g_uz, g_ur = np.split(g_u, 2)
        grads = {
            "w_z": g_wz, "u_z": g_uz, "b_z": g_bz,
            "w_r": g_wr, "u_r": g_ur, "b_r": g_br,
            "w_c": g_wc, "u_c": g_uc, "b_c": g_bc,
        }
        return g_x, g_h, grads


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

    def tensor_items(self):
        return [("down_kernel", self.down_kernel), ("up_kernel", self.up_kernel)]

    def downsample(self, features, counter=None):
        """(..., K, 5) -> (..., C, H) group inputs; returns (groups, cache)."""
        num_bins = features.shape[-2]
        bins = cached_window_bins(self.structure, num_bins)
        windows = features[..., bins, :]
        flat = windows.reshape(*windows.shape[:-3], bins.shape[0], -1)
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
        bins = cached_window_bins(self.structure, num_bins)
        g_per_bin = g_delta[..., bins]
        g_groups, g_up, _ = dense_backward(g_per_bin, groups, self.up_kernel, with_bias=False)
        return g_groups, g_up

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
