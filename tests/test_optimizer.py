"""Learned update rule: parameter bookkeeping and step-level gradient checks."""

import pickle

import numpy as np
import pytest

from aflearn.errors import NumericError
from aflearn.optimizer import (
    FEATURE_CHANNELS,
    GroupState,
    MetaParams,
    _optimizer_backward,
    apply_update,
    build_input,
    init_meta_params,
    optimizer_step,
)
from aflearn import layers
from aflearn.layers import log_scale_backward
from aflearn.structures import DependencyStructure

from oracles import fd_gradient, gru_step_reference, rel_error

STRUCTURES = [
    DependencyStructure.diagonal(),
    DependencyStructure.block(4),
    DependencyStructure.banded(4),
]


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_parameter_counts_match_closed_form():
    # 5BH + 2*(6H^2 + 3H) + H^2 + H + BH complex parameters
    for structure, h, expected in [
        (DependencyStructure.diagonal(), 32, 13728),
        (DependencyStructure.block(4), 32, 14304),
        (DependencyStructure.diagonal(), 16, 3536),
    ]:
        params = init_meta_params(structure, h, seed=0)
        b = structure.width
        closed = 5 * b * h + 2 * (6 * h * h + 3 * h) + h * h + h + b * h
        assert params.buffer.size == closed == expected


def test_flat_round_trip_interleaves_real_imag():
    params = init_meta_params(DependencyStructure.block(2), 3, seed=1)
    flat = params.to_flat()
    assert flat.size == 2 * params.buffer.size
    first = params.tensors["down_kernel"].ravel()[0]
    assert flat[0] == first.real and flat[1] == first.imag
    rebuilt = MetaParams(params.structure, params.hidden_size, flat.view(complex))
    for name in params.names:
        assert np.array_equal(rebuilt.tensors[name], params.tensors[name])
    with pytest.raises(ValueError):
        MetaParams(params.structure, params.hidden_size, flat[:-2].view(complex))
    # a copy: writing into it leaves the parameters alone
    params.to_flat()[0] += 1.0
    assert params.buffer[0] == first


def test_zero_params_and_state_give_zero_update():
    structure = DependencyStructure.banded(4)
    params = init_meta_params(structure, 4, seed=2)
    for name in params.names:
        params.tensors[name][...] = 0.0
    k = 16
    state = GroupState.zeros(structure, k, 4)
    rng = np.random.default_rng(3)
    features = build_input(*[_random_complex(rng, (k,)) for _ in range(5)])
    delta, new_state = optimizer_step(params, features, state)
    assert np.abs(delta).max() == 0.0
    assert np.abs(new_state.h0).max() == 0.0
    assert np.abs(new_state.h1).max() == 0.0


def test_build_input_shapes_and_compression():
    rng = np.random.default_rng(4)
    spectra = [_random_complex(rng, (2, 8), scale=10.0) for _ in range(5)]
    xi = build_input(*spectra)
    assert xi.shape == (2, len(FEATURE_CHANNELS), 8)
    for i, spec in enumerate(spectra):
        assert np.all(np.abs(xi[..., i, :]) <= np.abs(spec) + 1e-12)
        mask = np.abs(spec) > 1e-9
        assert np.allclose(np.angle(xi[..., i, :])[mask], np.angle(spec)[mask])


def test_build_input_backward_matches_fd():
    rng = np.random.default_rng(5)
    spectra = [_random_complex(rng, (6,)) for _ in range(5)]
    target = _random_complex(rng, (5, 6))

    def loss():
        xi = build_input(*spectra)
        d = xi - target
        return float(np.sum(d.real**2 + d.imag**2))

    raw, xi = np.empty((2, 5, 6), dtype=complex)
    build_input(*spectra, out=(raw, xi))
    g_raw = log_scale_backward(raw, 2.0 * (xi - target))
    for i, spec in enumerate(spectra):
        assert rel_error(g_raw[..., i, :], fd_gradient(loss, spec)) < 1e-5


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_backward_matches_fd(structure):
    rng = np.random.default_rng(6)
    k, h = 16, 3
    params = init_meta_params(structure, h, seed=7)
    state = GroupState(
        h0=_random_complex(rng, (h, structure.group_count(k)), 0.3),
        h1=_random_complex(rng, (h, structure.group_count(k)), 0.3),
    )
    features = _random_complex(rng, (5, k), 0.5)
    t_delta = _random_complex(rng, (k,))
    t_h0 = _random_complex(rng, state.h0.shape)
    t_h1 = _random_complex(rng, state.h1.shape)

    def loss():
        delta, new_state = optimizer_step(params, features, state)
        return float(
            np.sum(np.abs(delta - t_delta) ** 2)
            + np.sum(np.abs(new_state.h0 - t_h0) ** 2)
            + np.sum(np.abs(new_state.h1 - t_h1) ** 2)
        )

    # each GRU layer's (h_new, zr, c), which the backward reads back
    out = [(np.empty_like(state.h0), np.empty((2 * h, state.h0.shape[-1]), dtype=complex),
            np.empty_like(state.h0)) for _ in range(2)]
    delta, new_state = optimizer_step(params, features, state, out=out)
    g_delta = 2.0 * (delta - t_delta)
    g_state = GroupState(h0=2.0 * (new_state.h0 - t_h0), h1=2.0 * (new_state.h1 - t_h1))
    g_tensors = params.zeros_like()
    g_features, g_prev = _optimizer_backward(params, g_delta, g_state, features, state, out,
                                             g_tensors)

    assert rel_error(g_features, fd_gradient(loss, features)) < 1e-5
    assert rel_error(g_prev.h0, fd_gradient(loss, state.h0)) < 1e-5
    assert rel_error(g_prev.h1, fd_gradient(loss, state.h1)) < 1e-5
    for name in params.names:
        assert rel_error(g_tensors.tensors[name], fd_gradient(loss, params.tensors[name])) < 1e-5, name


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_backward_adds_into_the_holder(structure):
    rng = np.random.default_rng(11)
    k, h, batch = 16, 3, 2
    params = init_meta_params(structure, h, seed=12)
    shape = (batch, h, structure.group_count(k))
    state = GroupState(h0=_random_complex(rng, shape, 0.3), h1=_random_complex(rng, shape, 0.3))
    features = _random_complex(rng, (batch, 5, k), 0.5)
    out = [(np.empty(shape, dtype=complex), np.empty((batch, 2 * h, shape[-1]), dtype=complex),
            np.empty(shape, dtype=complex)) for _ in range(2)]
    optimizer_step(params, features, state, out=out)
    g_delta = _random_complex(rng, (batch, k))
    g_state = GroupState(h0=_random_complex(rng, shape), h1=_random_complex(rng, shape))

    fresh, loaded = params.zeros_like(), params.zeros_like()
    loaded.buffer[...] = _random_complex(rng, loaded.buffer.shape)
    preload = loaded.buffer.copy()
    want = _optimizer_backward(params, g_delta, g_state, features, state, out, fresh)
    got = _optimizer_backward(params, g_delta, g_state, features, state, out, loaded)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].h0, want[1].h0) and np.array_equal(got[1].h1, want[1].h1)
    # every parameter receives exactly one addition per step
    assert np.array_equal(loaded.buffer, preload + fresh.buffer)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_matches_group_by_group_oracle(structure):
    # group-major throughout: windows enumerated from window_bins, the GRU
    # layers run by the gate-by-gate oracle, plain products for the rest
    rng = np.random.default_rng(13)
    k, h, batch = 16, 4, 2
    params = init_meta_params(structure, h, seed=14)
    params.buffer[...] += _random_complex(rng, params.buffer.shape, 0.1)  # nonzero biases
    bins = structure.window_bins(k)
    c = bins.shape[0]
    features = _random_complex(rng, (batch, k, len(FEATURE_CHANNELS)), 0.5)
    h0, h1 = (_random_complex(rng, (batch, c, h), 0.3) for _ in range(2))

    groups = np.stack([[params.sampler.down_kernel @ features[b, bins[g]].reshape(-1)
                        for g in range(c)] for b in range(batch)])
    h0_new = gru_step_reference(params.grus[0], groups, h0)[0]
    h1_new = gru_step_reference(params.grus[1], h0_new, h1)[0]
    out = h1_new @ params.out_weight.T + params.out_bias
    expected = np.zeros((batch, k), dtype=complex)
    for b in range(batch):
        for g in range(c):
            np.add.at(expected[b], bins[g], params.sampler.up_kernel @ out[b, g])

    def group_last(a):
        return np.ascontiguousarray(np.swapaxes(a, -1, -2))

    delta, state = optimizer_step(params, group_last(features),
                                  GroupState(group_last(h0), group_last(h1)))
    assert rel_error(delta, expected) < 1e-13
    assert rel_error(np.swapaxes(state.h0, -1, -2), h0_new) < 1e-13
    assert rel_error(np.swapaxes(state.h1, -1, -2), h1_new) < 1e-13


def test_feature_channels_have_one_owner():
    assert FEATURE_CHANNELS is layers.FEATURE_CHANNELS
    for structure in STRUCTURES:
        params = init_meta_params(structure, 3)
        assert params.sampler.down_kernel.shape == (3, len(FEATURE_CHANNELS) * structure.width)


def test_batched_step_matches_loop():
    structure = DependencyStructure.block(4)
    k, h, batch = 16, 3, 4
    params = init_meta_params(structure, h, seed=8)
    rng = np.random.default_rng(9)
    features = _random_complex(rng, (batch, 5, k))
    state = GroupState.zeros(structure, k, h, batch_shape=(batch,))
    delta_b, state_b = optimizer_step(params, features, state)
    for i in range(batch):
        delta_i, state_i = optimizer_step(
            params, features[i], GroupState.zeros(structure, k, h)
        )
        assert rel_error(delta_b[i], delta_i) < 1e-12
        assert rel_error(state_b.h0[i], state_i.h0) < 1e-12
        assert rel_error(state_b.h1[i], state_i.h1) < 1e-12


def test_apply_update_validates():
    w = np.zeros(8, dtype=complex)
    assert np.array_equal(apply_update(w, w), w)
    with pytest.raises(ValueError):
        apply_update(w, np.zeros(4, dtype=complex))
    bad = np.full(8, np.nan + 0j)
    with pytest.raises(NumericError):
        apply_update(w, bad)


def test_gru_views_share_storage_with_tensors():
    params = init_meta_params(DependencyStructure.diagonal(), 4, seed=10)
    # a pickled rule, as `aflearn eval --jobs` sends it to workers, keeps its views
    for rule in (params, pickle.loads(pickle.dumps(params))):
        gru = rule.grus[0]
        gru.w[0, 0] = 123.0 + 0j
        assert rule.tensors["gru0.w_z"][0, 0] == 123.0 + 0j
