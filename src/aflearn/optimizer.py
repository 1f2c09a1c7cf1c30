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
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

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
from .structures import DependencyStructure

__all__ = [
    "FEATURE_CHANNELS",
    "MetaParams",
    "GroupState",
    "init_meta_params",
    "build_input",
    "optimizer_step",
    "apply_update",
]

FEATURE_CHANNELS = ("gradient", "farend", "desired", "error", "output")
_GRU_FIELDS = tuple(f.name for f in fields(ComplexGruLayer))


@dataclass
class MetaParams:
    """All learnable tensors of the update rule, in a fixed serialization order."""

    structure: DependencyStructure
    hidden_size: int
    tensors: dict

    @property
    def names(self):
        return list(self.tensors)

    def sampler(self):
        return GroupSampler(
            structure=self.structure,
            down_kernel=self.tensors["down_kernel"],
            up_kernel=self.tensors["up_kernel"],
        )

    def gru(self, index):
        """Layer ``index`` holding this rule's own tensors (no copies)."""
        prefix = f"gru{index}."
        return ComplexGruLayer(*(self.tensors[prefix + name] for name in _GRU_FIELDS))

    @property
    def out_weight(self):
        return self.tensors["out.weight"]

    @property
    def out_bias(self):
        return self.tensors["out.bias"]

    def complex_count(self):
        return sum(t.size for t in self.tensors.values())

    def zeros_like(self):
        return {name: np.zeros_like(t) for name, t in self.tensors.items()}

    def copy(self):
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})

    def to_flat(self):
        """Interleaved real vector [re0, im0, re1, im1, ...] in tensor order."""
        return tensors_to_flat(self.tensors)

    def from_flat(self, vec):
        """Inverse of to_flat; returns a new MetaParams."""
        out = self.copy()
        flat_into_tensors(vec, out.tensors)
        return out


def tensors_to_flat(tensors):
    parts = []
    for t in tensors.values():
        pair = np.empty(t.size * 2)
        pair[0::2] = t.real.ravel()
        pair[1::2] = t.imag.ravel()
        parts.append(pair)
    return np.concatenate(parts)


def flat_into_tensors(vec, tensors):
    pos = 0
    for name, t in tensors.items():
        n = t.size * 2
        pair = vec[pos : pos + n]
        tensors[name] = (pair[0::2] + 1j * pair[1::2]).reshape(t.shape)
        pos += n
    if pos != vec.size:
        raise ValueError(f"flat vector has {vec.size} entries, expected {pos}")


def init_meta_params(structure, hidden_size, seed=0):
    """Glorot-initialized update rule; biases start at zero."""
    rng = np.random.default_rng(seed)
    h = hidden_size
    sampler = GroupSampler.init(rng, structure, h)
    gru0 = ComplexGruLayer.init(rng, h, h)
    gru1 = ComplexGruLayer.init(rng, h, h)
    tensors = {"down_kernel": sampler.down_kernel}
    for idx, gru in ((0, gru0), (1, gru1)):
        for name, tensor in gru.tensor_items():
            tensors[f"gru{idx}.{name}"] = tensor
    tensors["out.weight"] = complex_glorot(rng, (h, h), h, h)
    tensors["out.bias"] = np.zeros(h, dtype=complex)
    tensors["up_kernel"] = sampler.up_kernel
    return MetaParams(structure=structure, hidden_size=hidden_size, tensors=tensors)


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

    def copy(self):
        return GroupState(h0=self.h0.copy(), h1=self.h1.copy())


def build_input(grad, u_freq, d_freq, e_freq, y_freq):
    """Stack the five per-bin descriptors and compress magnitudes."""
    xi, _ = _build_input_forward(grad, u_freq, d_freq, e_freq, y_freq)
    return xi


def _build_input_forward(grad, u_freq, d_freq, e_freq, y_freq):
    raw = np.stack(
        np.broadcast_arrays(grad, u_freq, d_freq, e_freq, y_freq), axis=-1
    ).astype(complex)
    return log_scale(raw), raw


def _build_input_backward(raw, g_xi):
    """Per-channel gradients, ordered like FEATURE_CHANNELS."""
    g_raw = log_scale_backward(raw, g_xi)
    return tuple(g_raw[..., i] for i in range(len(FEATURE_CHANNELS)))


def optimizer_step(params, features, state, counter=None):
    """Inference path: features (..., K, 5) -> (delta (..., K), new state)."""
    delta, new_state, _ = _optimizer_forward(params, features, state, counter)
    return delta, new_state


def _optimizer_forward(params, features, state, counter=None):
    sampler = params.sampler()
    groups, down_cache = sampler.downsample(features, counter=counter)
    h0, cache0 = params.gru(0).step(groups, state.h0, counter=counter)
    h1, cache1 = params.gru(1).step(h0, state.h1, counter=counter)
    out = dense(h1, params.out_weight, params.out_bias, counter=counter)
    delta, up_cache = sampler.upsample(out, counter=counter)
    cache = (down_cache, cache0, cache1, h1, up_cache)
    return delta, GroupState(h0=h0, h1=h1), cache


def _optimizer_backward(params, g_delta, g_state, cache, g_tensors):
    """Backward through one step.

    g_state carries dL/d(new hidden); returns (g_features, g_prev_state) and
    accumulates parameter gradients into g_tensors in place.
    """
    down_cache, cache0, cache1, h1, up_cache = cache
    sampler = params.sampler()

    g_out, g_up = sampler.upsample_backward(g_delta, up_cache)
    g_tensors["up_kernel"] += g_up

    g_h1, g_ow, g_ob = dense_backward(g_out, h1, params.out_weight)
    g_tensors["out.weight"] += g_ow
    g_tensors["out.bias"] += g_ob
    g_h1 = g_h1 + g_state.h1

    g_h0, g_h1_prev, grads1 = params.gru(1).backward(g_h1, cache1)
    for name, g in grads1.items():
        g_tensors[f"gru1.{name}"] += g
    g_h0 = g_h0 + g_state.h0

    g_groups, g_h0_prev, grads0 = params.gru(0).backward(g_h0, cache0)
    for name, g in grads0.items():
        g_tensors[f"gru0.{name}"] += g

    g_features, g_down = sampler.downsample_backward(g_groups, down_cache)
    g_tensors["down_kernel"] += g_down
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
