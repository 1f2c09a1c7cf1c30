"""Learned per-group update rule for the overlap-save adaptive filter.

One step consumes five K-bin spectra describing the current hop (analytic
filter gradient, far-end input, desired, error, and filter output), compresses
their magnitudes, folds them into frequency groups, runs a two-layer complex
GRU per group, and scatters the output back to a K-bin filter correction:

    xi     = log_scale(stack(grad, u, d, e, y))          (..., 5, K)
    g      = downsample(xi)                              (..., H, C)
    h0'    = gru0(g, h0); h1' = gru1(h0', h1)            (..., H, C)
    delta  = upsample(out_dense(h1'))                    (..., K)

Activations are group-last (see ``layers``): the C groups run along the last
axis, so every weight multiplies from the left and every gate is a contiguous
(H, C) block per scene.
Parameters are shared across groups; only the hidden state is per group.
They live in one complex buffer whose layout ``param_layout`` defines.

``build_input`` and ``optimizer_step`` are the one forward of sessions and
training windows alike.  A training window passes ``out=`` arrays (the raw
and compressed features, and each GRU layer's new state, z|r gates and
candidate), and ``_optimizer_backward`` reads the step's operands back from
them; each layer's backward adds into its part of a ``zeros_like`` holder
and writes its intermediates into the window's ``BackwardBuffers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .layers import (
    FEATURE_CHANNELS,
    ComplexGruLayer,
    GroupSampler,
    complex_glorot,
    dense,
    dense_backward,
    log_scale,
)

__all__ = [
    "FEATURE_CHANNELS",
    "MetaParams",
    "GroupState",
    "param_layout",
    "init_meta_params",
    "build_input",
    "optimizer_step",
    "apply_update",
]

_GATES = "zrc"


def param_layout(structure, hidden_size):
    """(name, shape) of every learnable tensor, in buffer order.

    Each GRU layer is gate-contiguous (w_z|w_r|w_c, u_z|u_r|u_c, b_z|b_r|b_c),
    so its stacked fields are views too.  Computing the table allocates
    nothing, so a checkpoint header can be checked against it first.
    """
    h = hidden_size
    layout = [("down_kernel", (h, len(FEATURE_CHANNELS) * structure.width))]
    for index in (0, 1):
        for field, shape in (("w", (h, h)), ("u", (h, h)), ("b", (h,))):
            layout += [(f"gru{index}.{field}_{gate}", shape) for gate in _GATES]
    layout += [("out.weight", (h, h)), ("out.bias", (h,)), ("up_kernel", (structure.width, h))]
    return layout


def _serialization_order(names):
    """Checkpoint order of ``names`` given in buffer order: each GRU layer's
    tensors go gate by gate (w_z, u_z, b_z, w_r, ...); the rest keep their place."""
    blocks = list(dict.fromkeys(name.split(".")[0] for name in names))

    def key(name):
        block, _, field = name.partition(".")
        return blocks.index(block), _GATES.index(field[-1]) if block.startswith("gru") else 0

    return sorted(names, key=key)


class MetaParams:
    """All learnable tensors of the update rule, as views of one complex buffer.

    ``tensors`` maps the checkpoint names to their views in serialization
    order.  The sampler, the two GRU layers (``grus``) and the output dense
    layer are built once, from views of the same buffer, so an in-place
    write to ``buffer`` (Adam, a finite-difference probe) reaches every path.
    ``buffer.view(np.float64)`` is the interleaved [re0, im0, re1, ...] vector.
    """

    def __init__(self, structure, hidden_size, buffer=None):
        layout = param_layout(structure, hidden_size)
        size = sum(math.prod(shape) for _, shape in layout)
        if buffer is None:
            buffer = np.zeros(size, dtype=complex)
        if buffer.shape != (size,) or buffer.dtype != complex:
            raise ValueError(f"buffer {buffer.dtype}{buffer.shape} does not hold "
                             f"{size} complex parameters")
        self.structure = structure
        self.hidden_size = hidden_size
        self.buffer = buffer
        views, starts, pos = {}, {}, 0
        for name, shape in layout:
            starts[name] = pos
            views[name] = buffer[pos : pos + math.prod(shape)].reshape(shape)
            pos += views[name].size
        self.tensors = {name: views[name] for name in _serialization_order(list(views))}

        def gate_stack(prefix):  # prefix_z|prefix_r|prefix_c as one view
            first = views[prefix + "_z"]
            lo = starts[prefix + "_z"]
            return buffer[lo : lo + 3 * first.size].reshape((-1,) + first.shape[1:])

        self.sampler = GroupSampler(structure, views["down_kernel"], views["up_kernel"])
        self.grus = tuple(ComplexGruLayer(*(gate_stack(f"gru{index}.{field}") for field in "wub"))
                          for index in (0, 1))
        self.out_weight = views["out.weight"]
        self.out_bias = views["out.bias"]

    def __reduce__(self):  # pickle the buffer once, not each view
        return MetaParams, (self.structure, self.hidden_size, self.buffer)

    @property
    def names(self):
        return list(self.tensors)

    def zeros_like(self):
        """A zero gradient holder with this rule's layout."""
        return MetaParams(self.structure, self.hidden_size)

    def copy(self):
        return MetaParams(self.structure, self.hidden_size, self.buffer.copy())

    def to_flat(self):
        """Copy of the interleaved real vector [re0, im0, re1, im1, ...] in buffer order."""
        return self.buffer.view(np.float64).copy()


def init_meta_params(structure, hidden_size, seed=0):
    """Glorot-initialized update rule; biases start at zero."""
    rng = np.random.default_rng(seed)
    h = hidden_size
    params = MetaParams(structure, h)
    sampler = GroupSampler.init(rng, structure, h)
    params.sampler.down_kernel[...] = sampler.down_kernel
    params.sampler.up_kernel[...] = sampler.up_kernel
    for layer in params.grus:
        fresh = ComplexGruLayer.init(rng, h, h)
        layer.w[...] = fresh.w
        layer.u[...] = fresh.u
    params.out_weight[...] = complex_glorot(rng, (h, h), h, h)
    return params


@dataclass
class GroupState:
    """Per-group hidden state of the two GRU layers, each (..., H, C)."""

    h0: np.ndarray
    h1: np.ndarray

    @classmethod
    def zeros(cls, structure, num_bins, hidden_size, batch_shape=()):
        c = structure.group_count(num_bins)
        shape = tuple(batch_shape) + (hidden_size, c)
        return cls(h0=np.zeros(shape, dtype=complex), h1=np.zeros(shape, dtype=complex))


def build_input(grad, u_freq, d_freq, e_freq, y_freq, out=None):
    """Stack the five per-bin descriptors and compress magnitudes.

    The result is (..., 5, K), one row per ``FEATURE_CHANNELS`` entry.
    ``out``, if given, is a (raw, xi) pair of (..., 5, K) arrays that receive
    the stacked descriptors and the result.
    """
    raw, xi = out or (None, None)
    raw = np.stack(
        np.broadcast_arrays(grad, u_freq, d_freq, e_freq, y_freq), axis=-2, out=raw
    ).astype(complex, copy=False)
    return log_scale(raw, out=xi)


def optimizer_step(params, features, state, out=None):
    """One step: features (..., 5, K) -> (delta (..., K), new state).

    ``out``, if given, holds each GRU layer's (h_new, zr, c) destinations
    (see ``ComplexGruLayer.step``); the new state's arrays are then its h_new.
    """
    gru0, gru1 = params.grus
    out0, out1 = out or (None, None)
    groups = params.sampler.downsample(features)
    h0, _, _ = gru0.step(groups, state.h0, out=out0)
    h1, _, _ = gru1.step(h0, state.h1, out=out1)
    delta = params.sampler.upsample(dense(h1, params.out_weight, params.out_bias))
    return delta, GroupState(h0=h0, h1=h1)


class BackwardBuffers(NamedTuple):
    """Arrays one ``_optimizer_backward`` step writes into instead of allocating.

    Both GRU layers use ``gates`` (..., 3H, C), their gate gradients, and
    ``work``, four (..., H, C) arrays, in turn.  ``state`` receives the
    returned state gradient and ``windows`` (..., 5*width, C) the downsample's
    window gradients, of which the returned feature gradient is a view for
    the diagonal layout.
    """

    gates: np.ndarray
    work: tuple
    state: GroupState
    windows: np.ndarray

    @classmethod
    def empty(cls, state_shape, window_size):
        """Fresh buffers for hidden states shaped ``state_shape`` (..., H, C)."""
        *batch, hidden, groups = state_shape

        def empty(size):
            return np.empty((*batch, size, groups), dtype=complex)

        return cls(gates=empty(3 * hidden), work=tuple(empty(hidden) for _ in range(4)),
                   state=GroupState(h0=empty(hidden), h1=empty(hidden)),
                   windows=empty(window_size))


def _optimizer_backward(params, g_delta, g_state, features, state, out, grads, buffers=None):
    """Backward through one ``optimizer_step(params, features, state, out=out)``.

    g_state carries dL/d(new hidden); returns (g_features, g_prev_state).
    Each layer's backward adds its parameter gradients into its part of
    ``grads``, a holder from ``params.zeros_like()``.  The step's operands are
    read back from ``features``, ``state`` and ``out``; the layer-0 input and
    the output dense layer's result are rebuilt with the forward's own
    operations, so the gradients are those of a step that kept them, bit for bit.
    Every intermediate goes into ``buffers`` (a ``BackwardBuffers``; fresh
    ones if None), and the returned gradients are views of them.
    """
    (h0, zr0, c0), (h1, zr1, c1) = out
    gru0, gru1 = params.grus
    sampler = params.sampler
    buffers = buffers or BackwardBuffers.empty(h0.shape, sampler.down_kernel.shape[1])
    rebuilt, flow, *work = buffers.work
    dense_out = dense(h1, params.out_weight, params.out_bias, out=rebuilt)
    g_out = sampler.upsample_backward(g_delta, dense_out, grads.sampler, out=rebuilt)
    g_h1 = dense_backward(g_out, h1, params.out_weight, grads.out_weight, grads.out_bias,
                          out=flow)
    g_h1 += g_state.h1
    g_h0, _ = gru1.backward(g_h1, h0, state.h1, zr1, c1, grads.grus[1],
                            out=(flow, buffers.state.h1, buffers.gates, work))
    g_h0 += g_state.h0
    groups = sampler.downsample(features, out=rebuilt)
    g_groups, _ = gru0.backward(g_h0, groups, state.h0, zr0, c0, grads.grus[0],
                                out=(flow, buffers.state.h0, buffers.gates, work))
    g_features = sampler.downsample_backward(g_groups, features, grads.sampler,
                                             out=buffers.windows)
    return g_features, buffers.state


def apply_update(w, delta):
    """Next filter spectrum w + delta; the support constraint is applied on use."""
    w = np.asarray(w)
    delta = np.asarray(delta)
    if w.shape != delta.shape:
        raise ValueError(f"shape mismatch: w {w.shape}, delta {delta.shape}")
    out = w + delta
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite filter update")
    return out
