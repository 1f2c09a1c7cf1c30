"""Learned update rule: parameter bookkeeping and step-level gradient checks."""

import pickle

import numpy as np
import pytest

from aflearn.errors import NumericError
from aflearn.optimizer import (
    FEATURE_CHANNELS,
    GroupState,
    MetaParams,
    apply_update,
    build_input,
    init_meta_params,
    optimizer_step,
)
from aflearn import layers
from aflearn.layers import log_scale_backward
from aflearn.structures import DependencyStructure
from aflearn.training import WindowWorkspace, _optimizer_backward

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
    for name in params.tensors:
        assert np.array_equal(rebuilt.tensors[name], params.tensors[name])
    with pytest.raises(ValueError):
        MetaParams(params.structure, params.hidden_size, flat[:-2].view(complex))
    # a copy: writing into it leaves the parameters alone
    params.to_flat()[0] += 1.0
    assert params.buffer[0] == first


def test_zero_params_and_state_give_zero_update():
    structure = DependencyStructure.banded(4)
    params = init_meta_params(structure, 4, seed=2)
    for name in params.tensors:
        params.tensors[name][...] = 0.0
    k = 16
    state = GroupState.zeros(structure, k, 4)
    rng = np.random.default_rng(3)
    features = build_input(np.stack([_random_complex(rng, (k,)) for _ in range(5)], axis=-2))
    delta, new_state = optimizer_step(params, features, state)
    assert np.abs(delta).max() == 0.0
    assert np.abs(new_state.h0).max() == 0.0
    assert np.abs(new_state.h1).max() == 0.0


def test_build_input_shapes_and_compression():
    rng = np.random.default_rng(4)
    spectra = [_random_complex(rng, (2, 8), scale=10.0) for _ in range(5)]
    xi = build_input(np.stack(spectra, axis=-2))
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
        xi = build_input(np.stack(spectra, axis=-2))
        d = xi - target
        return float(np.sum(d.real**2 + d.imag**2))

    raw = np.stack(spectra, axis=-2)
    xi = np.empty_like(raw)
    assert build_input(raw, out=xi) is xi
    g_raw = log_scale_backward(raw, 2.0 * (xi - target))
    for i, spec in enumerate(spectra):
        assert rel_error(g_raw[..., i, :], fd_gradient(loss, spec)) < 1e-5


def _one_step_workspace(params, features, state):
    """A one-step ``WindowWorkspace`` whose forward ran on ``features`` (batch, 5, K)
    from ``state``: what ``_optimizer_backward(..., ws, 0, ...)`` reads back.
    Returns (ws, delta, new state)."""
    batch, _, k = features.shape
    ws = WindowWorkspace(params.structure, params.hidden_size, k, batch, 1)
    ws.xi[0] = features
    ws.hidden[0][0], ws.hidden[1][0] = state.h0, state.h1
    delta, new_state = optimizer_step(params, ws.xi[0], ws.state(0), out=ws.step_out(0))
    return ws, delta, new_state


def _copied(result):
    """(g_xi, g_prev h0, g_prev h1) of one backward, copied out of the workspace
    they are views of before another backward overwrites it."""
    g_xi, g_prev = result
    return g_xi.copy(), g_prev.h0.copy(), g_prev.h1.copy()


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_backward_matches_fd(structure):
    rng = np.random.default_rng(6)
    k, h = 16, 3
    params = init_meta_params(structure, h, seed=7)
    shape = (1, h, structure.group_count(k))
    state = GroupState(h0=_random_complex(rng, shape, 0.3), h1=_random_complex(rng, shape, 0.3))
    features = _random_complex(rng, (1, 5, k), 0.5)
    t_delta = _random_complex(rng, (1, k))
    t_h0 = _random_complex(rng, shape)
    t_h1 = _random_complex(rng, shape)

    def loss():
        delta, new_state = optimizer_step(params, features, state)
        return float(
            np.sum(np.abs(delta - t_delta) ** 2)
            + np.sum(np.abs(new_state.h0 - t_h0) ** 2)
            + np.sum(np.abs(new_state.h1 - t_h1) ** 2)
        )

    ws, delta, new_state = _one_step_workspace(params, features, state)
    g_delta = 2.0 * (delta - t_delta)
    g_state = GroupState(h0=2.0 * (new_state.h0 - t_h0), h1=2.0 * (new_state.h1 - t_h1))
    g_tensors = params.zeros_like()
    g_features, g_prev = _optimizer_backward(params, g_delta, g_state, ws, 0, g_tensors)

    assert rel_error(g_features, fd_gradient(loss, features)) < 1e-5
    assert rel_error(g_prev.h0, fd_gradient(loss, state.h0)) < 1e-5
    assert rel_error(g_prev.h1, fd_gradient(loss, state.h1)) < 1e-5
    for name in params.tensors:
        assert rel_error(g_tensors.tensors[name], fd_gradient(loss, params.tensors[name])) < 1e-5, name


def _stepped(structure, rng, k=16, h=3, batch=2):
    """A batched step run into a one-step workspace, and random incoming
    gradients: the arguments of ``_optimizer_backward`` but for t and its holder."""
    params = init_meta_params(structure, h, seed=12)
    shape = (batch, h, structure.group_count(k))
    state = GroupState(h0=_random_complex(rng, shape, 0.3), h1=_random_complex(rng, shape, 0.3))
    ws, _, _ = _one_step_workspace(params, _random_complex(rng, (batch, 5, k), 0.5), state)
    g_delta = _random_complex(rng, (batch, k))
    g_state = GroupState(h0=_random_complex(rng, shape), h1=_random_complex(rng, shape))
    return params, g_delta, g_state, ws


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_backward_adds_into_the_holder(structure):
    rng = np.random.default_rng(11)
    params, g_delta, g_state, ws = _stepped(structure, rng)

    fresh, loaded = params.zeros_like(), params.zeros_like()
    loaded.buffer[...] = _random_complex(rng, loaded.buffer.shape)
    preload = loaded.buffer.copy()
    want = _copied(_optimizer_backward(params, g_delta, g_state, ws, 0, fresh))
    got = _copied(_optimizer_backward(params, g_delta, g_state, ws, 0, loaded))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # every parameter receives exactly one addition per step
    assert np.array_equal(loaded.buffer, preload + fresh.buffer)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_backward_reads_its_state_gradient_from_its_own_buffers(structure):
    # a training window hands each step the state gradient the step after it
    # wrote into the workspace they share
    params, g_delta, g_state, ws = _stepped(structure, np.random.default_rng(28))
    want = _copied(_optimizer_backward(params, g_delta, g_state, ws, 0, params.zeros_like()))
    ws.g_state.h0[...], ws.g_state.h1[...] = g_state.h0, g_state.h1
    got = _optimizer_backward(params, g_delta, ws.g_state, ws, 0, params.zeros_like())
    assert got[1] is ws.g_state
    for a, b in zip(_copied(got), want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_step_backward_gathers_each_operand_once(structure, monkeypatch):
    # one gather for upsample_backward's g_delta, one for the feature windows
    # that downsample_backward reads
    params, g_delta, g_state, ws = _stepped(structure, np.random.default_rng(29))
    real = DependencyStructure.gather
    calls = []

    def counted(self, x):
        calls.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(DependencyStructure, "gather", counted)
    _optimizer_backward(params, g_delta, g_state, ws, 0, params.zeros_like())
    assert len(calls) == 2, calls


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
