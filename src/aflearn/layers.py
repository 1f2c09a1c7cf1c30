"""Complex-valued building blocks with explicit forward and backward passes.

Gradient convention: for a real scalar loss L and a complex array z, gradient
arrays hold dL/dRe(z) + 1j * dL/dIm(z).  Complex parameters are then exactly
pairs of real parameters and every backward pass here can be checked against
central finite differences over those pairs.  A backward pass returns its
input gradients and adds its parameter gradients into the holders it is given.
Two of them reach past their own layer, so the training backward rebuilds
neither the layer-0 input nor the output dense result.
``ComplexGruLayer.backward`` stops at its gate gradients, leaving the input
product's adjoint to its caller, and each of the sampler's backwards takes
the linear layer on its far side with it (a GRU layer's input product after
``downsample``, a dense layer before ``upsample``), folded into one product.

Activations are group-last: a layer maps (..., n_in, C) to (..., n_out, C),
with the C frequency groups on the last axis and the channels on axis -2, so
a weight multiplies from the left (``W @ x``), a bias broadcasts down the
columns and each gate of a stacked GRU product is a contiguous row block.
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
    "FEATURE_CHANNELS",
    "GRADIENT_ROW",
    "FAREND_ROW",
    "DESIRED_ROW",
    "ERROR_ROW",
    "OUTPUT_ROW",
]

_TINY = 1e-12


def complex_glorot(rng, shape, fan_in, fan_out):
    """Glorot-scaled complex normal; variance split evenly across re/im."""
    scale = np.sqrt(1.0 / (fan_in + fan_out))
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _log_gain(m):
    """ln(1 + m)/m evaluated stably, 1 at m = 0: the entries below 1e-4 take
    a series, evaluated on those entries only (and skipped if there are none)."""
    small = m < 1e-4
    any_small = small.any()
    safe = np.where(small, 1.0, m) if any_small else m  # 1 where the series takes over
    gain = np.log1p(safe)
    gain /= safe
    if any_small:
        s = m[small]
        gain[small] = 1.0 - s / 2.0 + s * s / 3.0
    return gain


def _log_gain_deriv(m):
    """d/dm of ln(1 + m)/m, -1/2 at m = 0; the entries below 1e-4 as in ``_log_gain``."""
    small = m < 1e-4
    any_small = small.any()
    safe = np.where(small, 1.0, m) if any_small else m
    deriv = safe / (1.0 + safe)
    deriv -= np.log1p(safe)
    deriv /= safe * safe
    if any_small:
        s = m[small]
        deriv[small] = -0.5 + 2.0 * s / 3.0 - 0.75 * s * s
    return deriv


def log_scale(z, out=None):
    """Magnitude compression ln(1 + |z|) e^{j arg z}; phase preserving.

    ``out``, if given, receives the result.
    """
    z = np.asarray(z)
    return np.multiply(_log_gain(np.abs(z)), z, out=out)


def log_scale_backward(z, g_out):
    """Backward of log_scale at input z."""
    m = np.abs(z)
    radial = np.real(np.conj(z) * g_out) * _log_gain_deriv(m)
    radial = np.where(m < _TINY, 0.0, radial / np.where(m < _TINY, 1.0, m))
    g_z = _log_gain(m) * g_out
    g_z += radial * z
    return g_z


def _matmul(weight, x, out=None):
    # weight (n_out, n_in) @ x (..., n_in, C)
    return np.matmul(weight, x, out=out)


def _add_outer(holder, g, x_conj):
    """holder += g @ x_conj^T, summed over the leading axes: the weight gradient
    of a product ``weight @ x`` from g (..., n_out, C) and conj(x) (..., n_in, C)."""
    prod = np.matmul(g, x_conj.swapaxes(-1, -2))
    holder += prod if prod.ndim == 2 else prod.reshape((-1,) + holder.shape).sum(axis=0)


def _add_bias_gradient(holder, g):
    """holder += g (..., n, C) summed over every axis but the channel axis -2."""
    holder += g.sum(axis=-1).reshape((-1,) + holder.shape).sum(axis=0)


def dense(x, weight, bias=None, out=None):
    """y = W x (+ b) over the channel axis -2 of x (..., n_in, C); ``out``,
    if given, receives y."""
    y = _matmul(weight, x, out=out)
    if bias is not None:
        y += bias[:, None]
    return y


def dense_backward(g_y, x, weight, g_weight, g_bias=None, out=None):
    """Returns g_x; adds the weight (and, given its holder, bias) gradients into
    ``g_weight`` and ``g_bias``.  Leading axes are summed into them.

    ``out``, if given, is an array shaped like x, not g_y, that receives
    conj(x) for the weight gradient and then g_x; it may be x itself.
    """
    _add_outer(g_weight, g_y, np.conjugate(x, out=out))
    if g_bias is not None:
        _add_bias_gradient(g_bias, g_y)
    return np.matmul(np.conj(weight).T, g_y, out=out)


def _split_sigmoid_of_negated(z):
    """Sigmoid of the real and imaginary parts of -z separately, 1 / (1 + exp(z))
    per part; overwrites and returns z.

    The caller forms the negated pre-activation -a in the pass that forms a,
    which saves a negation pass.  Works on the float64 view of z, whose last
    axis must be contiguous.  A part above about 709 overflows exp to inf, and
    1 / (1 + inf) is the right 0.
    """
    v = z.view(np.float64)
    with np.errstate(over="ignore"):
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
    """out <- g * s * (1 - s) on the real and imaginary parts separately.

    out is a gate block of the gate gradients: (H, C) contiguous per leading
    index, so every pass runs over whole rows of groups.
    """
    ov, sv = out.view(np.float64), s.view(np.float64)
    np.subtract(1.0, sv, out=ov)
    ov *= sv
    ov *= g.view(np.float64)


def _split_tanh_backward(g, t, out):
    """out <- g * (1 - t^2) on the real and imaginary parts separately;
    out as in ``_split_sigmoid_backward``."""
    ov = out.view(np.float64)
    np.square(t.view(np.float64), out=ov)
    np.subtract(1.0, ov, out=ov)
    ov *= g.view(np.float64)


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
        """One recurrence step.  x (..., in, C), h (..., H, C) -> (h_new, zr, c).

        The three input products and the two gate products on h run as one
        stacked product each, so z and r are the two halves of zr (..., 2H, C),
        each a contiguous (H, C) block per leading index.  ``out``, if given,
        is an (h_new, zr, c) triple of arrays shaped like that which the step
        writes into instead of allocating them.
        """
        hidden = self.hidden_size
        h_new, zr, c = out or (None, None, None)
        x_gates = _matmul(self.w, x)
        zr = _matmul(self.u[: 2 * hidden], h, out=zr)
        zr += x_gates[..., : 2 * hidden, :]
        # -b - a is -(a + b) exactly (up to the sign of a zero, which exp ignores)
        np.subtract(-self.b[: 2 * hidden, None], zr, out=zr)
        _split_sigmoid_of_negated(zr)
        z, r = zr[..., :hidden, :], zr[..., hidden:, :]
        rh = r * h
        c = _matmul(self.u[2 * hidden :], rh, out=c)
        c += x_gates[..., 2 * hidden :, :]
        c += self.b[2 * hidden :, None]
        _split_tanh(c)
        h_new = np.subtract(1.0, z, out=h_new)
        h_new *= c
        h_new += np.multiply(z, h, out=rh)
        return h_new, zr, c

    def backward(self, g_h_new, h, zr, c, grads, out):
        """Returns (g_gates, g_h) and adds the u and b gradients into ``grads``,
        a layer of this shape whose fields hold them.

        The backward stops at the input product ``w @ x``: g_gates, the z|r|c
        pre-activation gradients, is that product's output gradient, and its
        adjoint (g_x and the w gradient) is the caller's, who may fold it into
        the layer that made x.  h is the step's input state and zr, c what it
        returned; r * h is rebuilt here, as the step computed it.  ``out`` is
        the (g_h, g_gates, work) tuple the backward writes into: g_h shaped
        like h, g_gates like zr with 3H on axis -2, and work a pair of arrays
        like h.
        """
        hidden = self.hidden_size
        g_h, g_gates, (work, local) = out
        z, r = zr[..., :hidden, :], zr[..., hidden:, :]
        g_az, g_ar, g_ac = (g_gates[..., i * hidden : (i + 1) * hidden, :] for i in range(3))
        np.subtract(h, c, out=work)
        np.conjugate(work, out=work)
        work *= g_h_new
        _split_sigmoid_backward(work, z, g_az)
        np.subtract(1.0, z, out=work)
        np.conjugate(work, out=work)
        work *= g_h_new
        _split_tanh_backward(work, c, g_ac)
        np.conjugate(z, out=g_h)
        g_h *= g_h_new

        np.multiply(r, h, out=work)
        g_rh = dense_backward(g_ac, work, self.u[2 * hidden :], grads.u[2 * hidden :], out=work)
        np.conjugate(r, out=local)
        local *= g_rh
        g_h += local
        np.conjugate(h, out=local)
        local *= g_rh
        _split_sigmoid_backward(local, r, g_ar)

        _add_bias_gradient(grads.b, g_gates)
        _add_outer(grads.u[: 2 * hidden], g_gates[..., : 2 * hidden, :],
                   np.conjugate(h, out=work))
        g_h += np.matmul(np.conj(self.u[: 2 * hidden]).T, g_gates[..., : 2 * hidden, :],
                         out=work)
        return g_gates, g_h


FEATURE_CHANNELS = ("gradient", "farend", "desired", "error", "output")
# each channel's row in a (..., 5, K) feature array
GRADIENT_ROW, FAREND_ROW, DESIRED_ROW, ERROR_ROW, OUTPUT_ROW = range(len(FEATURE_CHANNELS))


@dataclass
class GroupSampler:
    """Gathers per-group feature windows and scatters per-group outputs back.

    Features are (..., 5, K), one row per ``FEATURE_CHANNELS`` entry, and
    group activations (..., H, C).  down_kernel (H, 5*width) maps a flattened
    window (width bins x 5 channels, bin-major) to the group input; up_kernel
    (width, H) maps the group output to per-bin corrections, overlap-added
    for banded layouts.  Both are bias-free so zero activations map to zero
    corrections.
    """

    structure: object
    down_kernel: np.ndarray
    up_kernel: np.ndarray

    @classmethod
    def init(cls, rng, structure, hidden_size):
        n_in = len(FEATURE_CHANNELS) * structure.width
        down = complex_glorot(rng, (hidden_size, n_in), n_in, hidden_size)
        up = complex_glorot(rng, (structure.width, hidden_size), hidden_size, structure.width)
        return cls(structure=structure, down_kernel=down, up_kernel=up)

    def downsample(self, features):
        """(..., 5, K) -> (..., H, C) group inputs."""
        return dense(self.windows(features), self.down_kernel)

    def downsample_backward(self, g_gates, windows, weight, grads, g_weight, out=None):
        """Backward of ``weight @ downsample(features)``, the input product of the
        GRU layer the group inputs feed, folded into one product with weight
        ``weight @ down_kernel``: the group inputs are never formed.

        Returns g_features given g_gates, the product's output gradient, and
        ``windows(features)``; adds the kernel's gradient into
        ``grads.down_kernel`` and the weight's into ``g_weight``.  ``out``, if
        given, is a (..., 5*width, C) array that receives the window
        gradients; for the diagonal layout g_features is a view of it.
        """
        fused = weight @ self.down_kernel
        g_fused = np.zeros_like(fused)
        g_flat = dense_backward(g_gates, windows, fused, g_fused, out=out)
        g_weight += g_fused @ np.conj(self.down_kernel).T
        grads.down_kernel += np.conj(weight).T @ g_fused
        *batch, _, groups = g_flat.shape
        return self.structure.scatter(
            g_flat.reshape(*batch, self.structure.width, len(FEATURE_CHANNELS), groups))

    def upsample(self, groups):
        """(..., H, C) -> (..., K) per-bin corrections."""
        return self.structure.scatter(dense(groups, self.up_kernel)[..., None, :])[..., 0, :]

    def upsample_backward(self, g_delta, h, weight, bias, grads, g_weight, g_bias, out=None):
        """Backward of ``upsample(dense(h, weight, bias))``, the output dense layer
        and the up-projection, folded into one dense layer with weight
        ``up_kernel @ weight`` and bias ``up_kernel @ bias``: the dense layer's
        result is never formed.

        Returns g_h, and adds the kernel's gradient into ``grads.up_kernel``
        and the dense layer's into ``g_weight`` and ``g_bias``.  ``out``, if
        given, receives g_h as in ``dense_backward``; it may be h itself.
        """
        up = self.up_kernel
        g_per_bin = self.structure.gather(g_delta[..., None, :])[..., 0, :]
        fused = up @ weight
        g_fused, g_fused_bias = np.zeros_like(fused), np.zeros(len(up), dtype=complex)
        g_h = dense_backward(g_per_bin, h, fused, g_fused, g_fused_bias, out=out)
        grads.up_kernel += g_fused @ np.conj(weight).T + np.outer(g_fused_bias, np.conj(bias))
        g_weight += np.conj(up).T @ g_fused
        g_bias += np.conj(up).T @ g_fused_bias
        return g_h

    def windows(self, features):
        """Per-group windows of features (..., 5, K), flattened to (..., 5*width, C)."""
        windows = self.structure.gather(features)
        return windows.reshape(*windows.shape[:-3], -1, windows.shape[-1])
