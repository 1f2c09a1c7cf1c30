"""Learned per-group update rule for the overlap-save adaptive filter.

One step consumes five K-bin spectra describing the current hop (analytic
filter gradient, far-end input, desired, error, and filter output), compresses
their magnitudes, folds them into frequency groups, runs a two-layer complex
GRU per group, and scatters the output back to a K-bin filter correction:

    raw    = rows (grad, u, d, e, y)                     (..., 5, K)
    xi     = log_scale(raw)                              (..., 5, K)
    g      = downsample(xi)                              (..., H, C)
    h0'    = gru0(g, h0); h1' = gru1(h0', h1)            (..., H, C)
    delta  = upsample(out_dense(h1'))                    (..., K)

Activations are group-last (see ``layers``): the C groups run along the last
axis, so every weight multiplies from the left and every gate is a contiguous
(H, C) block per scene.
Parameters are shared across groups; only the hidden state is per group.
They live in one complex buffer whose layout ``param_layout`` defines.

The raw rows are written in place by the hop (``ols.feature_hop``) into a
buffer its caller owns, one per session or training window.
``build_input`` and ``optimizer_step`` are the one forward of sessions and
training windows alike.  A training window passes ``out=`` arrays (the
compressed features, and each GRU layer's new state, z|r gates and
candidate) from its ``training.WindowWorkspace``, which also holds the raw
features and the window's backward; this module is the rule's forward only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .layers import (
    FEATURE_CHANNELS,
    ComplexGruLayer,
    GroupSampler,
    complex_glorot,
    dense,
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


def build_input(raw, out=None):
    """The rule's input from the raw per-bin descriptors: magnitudes compressed.

    raw is (..., 5, K), one row per ``FEATURE_CHANNELS`` entry, as
    ``ols.feature_hop`` writes it; so is the result.  ``out``, if given,
    receives it.
    """
    return log_scale(raw, out=out)


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
