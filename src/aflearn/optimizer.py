"""Learned per-group update rule for the overlap-save adaptive filter.

One step consumes five K-bin spectra describing the current hop (analytic
filter gradient, far-end input, desired, error, and filter output), compresses
their magnitudes, folds them into frequency groups, runs a two-layer complex
GRU per group, and scatters the output back to a K-bin filter correction:

    xi     = log_scale(stack(grad, u, d, e, y))          (..., K, 5)
    g      = downsample(xi)                              (..., C, H)
    h0'    = gru0(g, h0); h1' = gru1(h0', h1)            (..., C, H)
    delta  = upsample(out_dense(h1'))                    (..., K)

Parameters are shared across groups; only the hidden state is per group.
They live in one complex buffer whose layout ``param_layout`` defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .layers import (
    ComplexGruLayer,
    GroupSampler,
    complex_glorot,
    dense,
    dense_backward,
    log_scale,
    log_scale_backward,
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

FEATURE_CHANNELS = ("gradient", "farend", "desired", "error", "output")
_GATES = "zrc"


def param_layout(structure, hidden_size):
    """(name, shape) of every learnable tensor, in buffer order.

    Each GRU layer is gate-contiguous (w_z|w_r|w_c, u_z|u_r|u_c, b_z|b_r|b_c),
    so its stacked fields are views too.  Computing the table allocates
    nothing, so a checkpoint header can be checked against it first.
    """
    h = hidden_size
    layout = [("down_kernel", (h, GroupSampler.NUM_CHANNELS * structure.width))]
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
    """Per-group hidden state of the two GRU layers."""

    h0: np.ndarray
    h1: np.ndarray

    @classmethod
    def zeros(cls, structure, num_bins, hidden_size, batch_shape=()):
        c = structure.group_count(num_bins)
        shape = tuple(batch_shape) + (c, hidden_size)
        return cls(h0=np.zeros(shape, dtype=complex), h1=np.zeros(shape, dtype=complex))


def build_input(grad, u_freq, d_freq, e_freq, y_freq):
    """Stack the five per-bin descriptors and compress magnitudes."""
    xi, _ = _build_input_forward(grad, u_freq, d_freq, e_freq, y_freq)
    return xi


def _build_input_forward(grad, u_freq, d_freq, e_freq, y_freq, out=(None, None)):
    """(xi, raw); ``out``, if given, is the (raw, xi) pair of arrays to write them into."""
    raw = np.stack(
        np.broadcast_arrays(grad, u_freq, d_freq, e_freq, y_freq), axis=-1, out=out[0]
    ).astype(complex, copy=False)
    return log_scale(raw, out=out[1]), raw


def _build_input_backward(raw, g_xi):
    """Per-channel gradients, ordered like FEATURE_CHANNELS."""
    g_raw = log_scale_backward(raw, g_xi)
    return tuple(g_raw[..., i] for i in range(len(FEATURE_CHANNELS)))


def optimizer_step(params, features, state, counter=None):
    """Inference path: features (..., K, 5) -> (delta (..., K), new state)."""
    delta, new_state, _ = _optimizer_forward(params, features, state, counter)
    return delta, new_state


def _optimizer_forward(params, features, state, counter=None, out=(None, None)):
    """One step; returns (delta, new state, cache).

    ``out`` holds each GRU layer's step destinations (see
    ``ComplexGruLayer.step``).  The cache keeps only what the backward cannot
    rebuild in one operation: the layer-0 input is dropped (it is
    ``dense(flat, down_kernel)`` of the downsample cache) and so is the output
    dense layer's result (``dense(h1, out_weight, out_bias)``).
    """
    gru0, gru1 = params.grus
    groups, down_cache = params.sampler.downsample(features, counter=counter)
    h0, cache0 = gru0.step(groups, state.h0, counter=counter, out=out[0])
    h1, cache1 = gru1.step(h0, state.h1, counter=counter, out=out[1])
    delta, _ = params.sampler.upsample(
        dense(h1, params.out_weight, params.out_bias, counter=counter), counter=counter)
    cache = (down_cache, cache0._replace(x=None), cache1, h1)
    return delta, GroupState(h0=h0, h1=h1), cache


def _optimizer_backward(params, g_delta, g_state, cache, grads):
    """Backward through one step.

    g_state carries dL/d(new hidden); returns (g_features, g_prev_state) and
    accumulates parameter gradients in place into ``grads``, a holder from
    ``params.zeros_like()``.  The output dense layer's result and the layer-0
    input are rebuilt with the forward's own operations, so the gradients are
    those of a full cache, bit for bit.
    """
    down_cache, cache0, cache1, h1 = cache
    flat, num_bins = down_cache

    out = dense(h1, params.out_weight, params.out_bias)
    g_out, g_up = params.sampler.upsample_backward(g_delta, (out, num_bins))
    grads.sampler.up_kernel += g_up

    g_h1, g_ow, g_ob = dense_backward(g_out, h1, params.out_weight)
    grads.out_weight += g_ow
    grads.out_bias += g_ob
    g_h1 = g_h1 + g_state.h1

    g_h0, g_h1_prev, grads1 = params.grus[1].backward(g_h1, cache1)
    for name, g in grads1.items():
        getattr(grads.grus[1], name)[...] += g
    g_h0 = g_h0 + g_state.h0

    groups = dense(flat, params.sampler.down_kernel)
    g_groups, g_h0_prev, grads0 = params.grus[0].backward(g_h0, cache0._replace(x=groups))
    for name, g in grads0.items():
        getattr(grads.grus[0], name)[...] += g

    g_features, g_down = params.sampler.downsample_backward(g_groups, down_cache)
    grads.sampler.down_kernel += g_down
    return g_features, GroupState(h0=g_h0_prev, h1=g_h1_prev)


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
