"""Finite-difference checks for every complex layer's backward pass."""

import warnings

import numpy as np
import pytest

from aflearn.layers import (
    _log_gain,
    _log_gain_deriv,
    ComplexGruLayer,
    GroupSampler,
    _split_sigmoid_of_negated,
    _split_tanh,
    complex_glorot,
    dense,
    dense_backward,
    log_scale,
    log_scale_backward,
)
from aflearn.structures import DependencyStructure

from oracles import (
    counted_macs,
    fd_gradient,
    gru_backward_out,
    gru_backward_reference,
    gru_step_reference,
    rel_error,
)

TOL = 1e-5


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _group_last(a):
    """The oracles' group-major (..., C, n) as the layers' (..., n, C); a lone
    (n,) vector is one group."""
    return np.ascontiguousarray(np.swapaxes(np.atleast_2d(a), -1, -2))


def _group_major(a, shape):
    """Inverse of ``_group_last`` for an oracle result of ``shape``."""
    return np.swapaxes(a, -1, -2).reshape(shape)


def _quadratic_loss(y, target):
    d = y - target
    return float(np.sum(d.real**2 + d.imag**2))


def _gru_holder(layer, fill=np.zeros_like):
    return ComplexGruLayer(*(fill(tensor) for tensor in (layer.w, layer.u, layer.b)))


def _sampler_holder(sampler, fill=np.zeros_like):
    return GroupSampler(sampler.structure, fill(sampler.down_kernel), fill(sampler.up_kernel))


def test_log_scale_values():
    assert log_scale(np.array([0.0 + 0.0j]))[0] == 0.0
    out = log_scale(np.array([1.0 + 0.0j, 0.0 + 3.0j]))
    assert abs(out[0] - np.log(2.0)) < 1e-12
    assert abs(out[1] - 1j * np.log(4.0)) < 1e-12
    # phase is untouched, magnitude compressed
    z = 5.0 * np.exp(1j * 0.7)
    out = log_scale(np.array([z]))[0]
    assert abs(np.angle(out) - 0.7) < 1e-12
    assert abs(abs(out) - np.log(6.0)) < 1e-12


def test_log_gain_series_only_where_needed_is_bit_identical():
    # the series runs on the entries below 1e-4 only (and not at all if there
    # are none), with the same formula as evaluating both branches everywhere
    # and selecting; checked with entries on both sides of 1e-4 (and inf,
    # nan), with none below it and with only entries below it
    def both_branches(m):
        small = m < 1e-4
        safe = np.where(small, 1.0, m)
        gain = np.log1p(safe) / safe
        deriv = (safe / (1.0 + safe) - np.log1p(safe)) / (safe * safe)
        return (np.where(small, 1.0 - m / 2.0 + m * m / 3.0, gain),
                np.where(small, -0.5 + 2.0 * m / 3.0 - 0.75 * m * m, deriv))

    rng = np.random.default_rng(21)
    below = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 1e-4, 16)])
    above = np.concatenate([[1e-4], rng.uniform(1e-4, 50.0, 15), [np.inf, np.nan]])
    for m in (np.concatenate([below[:8], above[:8], above[-2:]]), above, below):
        m = m.reshape(2, 3, 3)
        before = m.copy()
        with np.errstate(invalid="ignore"):
            expected = both_branches(m)
            actual = (_log_gain(m), _log_gain_deriv(m))
        assert np.array_equal(m, before, equal_nan=True)  # the magnitudes are left alone
        for a, e in zip(actual, expected):
            assert np.array_equal(a, e, equal_nan=True)
        if m[0, 0, 0] == 0.0:
            assert actual[0][0, 0, 0] == 1.0 and actual[1][0, 0, 0] == -0.5


def test_log_scale_monotone_and_contracting():
    m = np.linspace(0.0, 50.0, 200)
    out = np.abs(log_scale(m + 0j))
    assert np.all(np.diff(out) > 0)
    assert np.all(out[1:] < m[1:])


def test_log_scale_backward_matches_fd():
    rng = np.random.default_rng(11)
    z = _random_complex(rng, (6,), scale=2.0)
    target = _random_complex(rng, (6,))

    def loss():
        return _quadratic_loss(log_scale(z), target)

    fd = fd_gradient(loss, z)
    g_out = 2.0 * (log_scale(z) - target)
    assert rel_error(log_scale_backward(z, g_out), fd) < TOL


def test_log_scale_backward_near_zero_magnitudes():
    rng = np.random.default_rng(12)
    z = _random_complex(rng, (5,), scale=1e-5)
    target = _random_complex(rng, (5,))

    def loss():
        return _quadratic_loss(log_scale(z), target)

    fd = fd_gradient(loss, z, eps=1e-9)
    g_out = 2.0 * (log_scale(z) - target)
    assert rel_error(log_scale_backward(z, g_out), fd) < 1e-3


def test_dense_backward_matches_fd():
    rng = np.random.default_rng(13)
    x = _random_complex(rng, (3, 5, 4))
    w = _random_complex(rng, (2, 5))
    b = _random_complex(rng, (2,))
    target = _random_complex(rng, (3, 2, 4))

    def loss():
        return _quadratic_loss(dense(x, w, b), target)

    g_y = 2.0 * (dense(x, w, b) - target)
    g_w, g_b = np.zeros_like(w), np.zeros_like(b)
    g_x = dense_backward(g_y, x, w, g_w, g_b)
    assert rel_error(g_x, fd_gradient(loss, x)) < TOL
    assert rel_error(g_w, fd_gradient(loss, w)) < TOL
    assert rel_error(g_b, fd_gradient(loss, b)) < TOL


def test_gru_zero_state_and_zero_weights_gives_zero():
    rng = np.random.default_rng(14)
    layer = ComplexGruLayer.init(rng, 3, 4)
    for name, tensor in vars(layer).items():
        tensor[...] = 0.0
    x = _random_complex(rng, (3, 2))
    h_new, _, _ = layer.step(x, np.zeros((4, 2), dtype=complex))
    assert np.abs(h_new).max() == 0.0


@pytest.mark.parametrize("hidden", [4, 8, 16])
@pytest.mark.parametrize("batch", [(), (6,), (2, 6)], ids=lambda b: f"batch{len(b)}d")
def test_gru_step_matches_per_gate_reference(hidden, batch):
    rng = np.random.default_rng(21)
    layer = ComplexGruLayer.init(rng, hidden, hidden)
    for name, tensor in vars(layer).items():
        if name == "b":
            tensor[...] = _random_complex(rng, tensor.shape, scale=0.3)
    x = _random_complex(rng, batch + (hidden,))
    h = _random_complex(rng, batch + (hidden,), scale=0.5)
    with counted_macs() as counted:
        h_new, zr, c = layer.step(_group_last(x), _group_last(h))
    expected = gru_step_reference(layer, x, h)
    z, r = zr[..., :hidden, :], zr[..., hidden:, :]
    # r * h is not returned; the backward rebuilds it as the step computed it
    for got, want in zip((h_new, z, r, r * _group_last(h), c), expected):
        assert got.shape == _group_last(want).shape
        assert np.array_equal(_group_major(got, want.shape), want)
    # six H x H products per group, as FlopModel.gru_term counts them
    assert counted.total == int(np.prod(batch)) * 6 * hidden * hidden


@pytest.mark.parametrize("hidden", [4, 8, 16])
@pytest.mark.parametrize("batch", [(), (6,), (2, 6)], ids=lambda b: f"batch{len(b)}d")
def test_gru_backward_matches_per_gate_reference(hidden, batch):
    # the two stacked products reorder the gate-by-gate sums, nothing more
    rng = np.random.default_rng(28)
    layer = ComplexGruLayer.init(rng, hidden, hidden)
    layer.b[...] = _random_complex(rng, layer.b.shape, scale=0.3)
    x = _random_complex(rng, batch + (hidden,))
    h = _random_complex(rng, batch + (hidden,), scale=0.5)
    _, zr, c = layer.step(_group_last(x), _group_last(h))
    g_h_new = _random_complex(rng, batch + (hidden,))
    grads = _gru_holder(layer)
    x_in, h_in = _group_last(x), _group_last(h)
    g_x, g_h = layer.backward(_group_last(g_h_new), x_in, h_in, zr, c, grads,
                              gru_backward_out(x_in, h_in))
    expected = gru_backward_reference(layer, g_h_new, x, h,
                                      _group_major(zr, batch + (2 * hidden,)),
                                      _group_major(c, batch + (hidden,)))
    got = (_group_major(g_x, x.shape), _group_major(g_h, h.shape), grads.w, grads.u, grads.b)
    for name, a, want in zip(("g_x", "g_h", "w", "u", "b"), got, expected):
        assert a.shape == want.shape, name
        assert rel_error(a, want) <= 1e-12, name


def test_split_activations_match_real_imag_forms():
    rng = np.random.default_rng(22)
    a = _random_complex(rng, (5, 12), scale=4.0)
    sig = _split_sigmoid_of_negated(-a)
    assert np.array_equal(sig, 1.0 / (1.0 + np.exp(-a.real)) + 1j / (1.0 + np.exp(-a.imag)))
    tanh = _split_tanh(a.copy())
    assert np.array_equal(tanh, np.tanh(a.real) + 1j * np.tanh(a.imag))


def test_saturated_split_sigmoid_is_exact_and_silent():
    # exp(800) overflows to inf; 1 / (1 + inf) is the exact 0, with no warning
    z = np.array([-800.0 + 800.0j, 800.0 - 800.0j, -30.0 + 0.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = _split_sigmoid_of_negated(-z)
    assert np.array_equal(sig, [1.0j, 1.0, 1.0 / (1.0 + np.exp(30.0)) + 0.5j])


def test_gru_step_folds_the_sigmoid_negation_into_the_bias_add():
    # the step forms -(a + b) as -b - a in one pass; saturated (below -709)
    # and signed-zero pre-activations give the gates of adding b and then
    # negating, bit for bit and without a warning
    rng = np.random.default_rng(23)
    hidden, groups = 4, 6
    layer = ComplexGruLayer.init(rng, 3, hidden)
    layer.b[:hidden] = [-800.0 - 1000.0j, 0.0 - 0.0j, -0.0 + 0.0j, -0.0 - 0.0j]
    layer.b[hidden : 2 * hidden] = [-1000.0 + 0.0j, 3.0 - 760.0j, 0.0j, -0.0 + 2.0j]
    x = _random_complex(rng, (2, 3, groups))
    h = _random_complex(rng, (2, hidden, groups))
    x[..., :2], h[..., :2] = 0.0, -0.0  # zero columns: the pre-activation is b, sign and all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, zr, _ = layer.step(x, h)
        two_pass = np.matmul(layer.u[: 2 * hidden], h)
        two_pass += np.matmul(layer.w, x)[..., : 2 * hidden, :]
        two_pass += layer.b[: 2 * hidden, None]
        expected = _split_sigmoid_of_negated(np.negative(two_pass, out=two_pass))
    assert np.array_equal(zr, expected)
    # the zero columns' gates: saturated parts are exactly 0, zero parts 1/2
    column = [0.0, 0.5 + 0.5j, 0.5 + 0.5j, 0.5 + 0.5j, 0.5j]
    assert np.array_equal(zr[..., :5, :2], np.broadcast_to(np.array(column)[:, None], (2, 5, 2)))
    assert np.all(zr[..., 5, :2].imag == 0.0)


def test_gru_backward_matches_fd():
    rng = np.random.default_rng(15)
    layer = ComplexGruLayer.init(rng, 3, 4)
    x = _random_complex(rng, (2, 3, 5), scale=0.5)
    h = _random_complex(rng, (2, 4, 5), scale=0.5)
    target = _random_complex(rng, (2, 4, 5))

    def loss():
        h_new, _, _ = layer.step(x, h)
        return _quadratic_loss(h_new, target)

    h_new, zr, c = layer.step(x, h)
    g_out = 2.0 * (h_new - target)
    grads = _gru_holder(layer)
    g_x, g_h = layer.backward(g_out, x, h, zr, c, grads, gru_backward_out(x, h))
    assert rel_error(g_x, fd_gradient(loss, x)) < TOL
    assert rel_error(g_h, fd_gradient(loss, h)) < TOL
    for name, tensor in vars(layer).items():
        assert rel_error(getattr(grads, name), fd_gradient(loss, tensor)) < TOL, name


STRUCTURES = [
    DependencyStructure.diagonal(),
    DependencyStructure.block(4),
    DependencyStructure.banded(4),
]


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_downsample_matches_window_enumeration(structure):
    rng = np.random.default_rng(16)
    k, h = 16, 3
    sampler = GroupSampler.init(rng, structure, h)
    features = _random_complex(rng, (5, k))
    groups = sampler.downsample(features)
    bins = structure.window_bins(k)
    for c in range(bins.shape[0]):
        window = features[:, bins[c]].T.reshape(-1)  # bin-major: width bins x 5 channels
        assert rel_error(groups[:, c], sampler.down_kernel @ window) < 1e-12


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_upsample_matches_scatter_enumeration(structure):
    rng = np.random.default_rng(17)
    k, h = 16, 3
    sampler = GroupSampler.init(rng, structure, h)
    bins = structure.window_bins(k)
    groups = _random_complex(rng, (h, bins.shape[0]))
    delta = sampler.upsample(groups)
    expected = np.zeros(k, dtype=complex)
    for c in range(bins.shape[0]):
        np.add.at(expected, bins[c], sampler.up_kernel @ groups[:, c])
    assert rel_error(delta, expected) < 1e-12


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_upsample_zero_input_is_zero(structure):
    rng = np.random.default_rng(18)
    sampler = GroupSampler.init(rng, structure, 3)
    c = structure.group_count(16)
    delta = sampler.upsample(np.zeros((3, c), dtype=complex))
    assert np.abs(delta).max() == 0.0


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_sampler_backward_matches_fd(structure):
    rng = np.random.default_rng(19)
    k, h = 16, 3
    sampler = GroupSampler.init(rng, structure, h)
    features = _random_complex(rng, (2, 5, k), scale=0.5)
    t_groups = _random_complex(rng, (2, h, structure.group_count(k)))
    t_delta = _random_complex(rng, (2, k))

    def down_loss():
        groups = sampler.downsample(features)
        return _quadratic_loss(groups, t_groups)

    groups = sampler.downsample(features)
    g_groups = 2.0 * (groups - t_groups)
    grads = _sampler_holder(sampler)
    g_features = sampler.downsample_backward(g_groups, sampler.windows(features), grads)
    assert rel_error(g_features, fd_gradient(down_loss, features)) < TOL
    assert rel_error(grads.down_kernel, fd_gradient(down_loss, sampler.down_kernel)) < TOL

    group_in = _random_complex(rng, (2, h, structure.group_count(k)), scale=0.5)

    def up_loss():
        delta = sampler.upsample(group_in)
        return _quadratic_loss(delta, t_delta)

    delta = sampler.upsample(group_in)
    g_delta = 2.0 * (delta - t_delta)
    g_groups = sampler.upsample_backward(g_delta, group_in, grads)
    assert rel_error(g_groups, fd_gradient(up_loss, group_in)) < TOL
    assert rel_error(grads.up_kernel, fd_gradient(up_loss, sampler.up_kernel)) < TOL


def _preloaded(rng):
    return lambda tensor: _random_complex(rng, tensor.shape)


def test_dense_backward_adds_into_its_holders():
    rng = np.random.default_rng(25)
    x = _random_complex(rng, (3, 5, 4))
    w = _random_complex(rng, (2, 5))
    g_y = _random_complex(rng, (3, 2, 4))
    fresh = np.zeros_like(w), np.zeros((2,), dtype=complex)
    loaded = _random_complex(rng, w.shape), _random_complex(rng, (2,))
    preload = [g.copy() for g in loaded]
    g_x = dense_backward(g_y, x, w, *fresh)
    assert np.array_equal(dense_backward(g_y, x, w, *loaded), g_x)
    for got, base, delta in zip(loaded, preload, fresh):
        assert np.array_equal(got, base + delta)
    # without a bias holder only the weight gradient is formed
    g_w = np.zeros_like(w)
    assert np.array_equal(dense_backward(g_y, x, w, g_w), g_x)
    assert np.array_equal(g_w, fresh[0])


def test_gru_backward_adds_into_its_holder():
    rng = np.random.default_rng(26)
    layer = ComplexGruLayer.init(rng, 3, 4)
    x = _random_complex(rng, (2, 3, 5), scale=0.5)
    h = _random_complex(rng, (2, 4, 5), scale=0.5)
    h_new, zr, c = layer.step(x, h)
    g_out = _random_complex(rng, h_new.shape)
    fresh, loaded = _gru_holder(layer), _gru_holder(layer, _preloaded(rng))
    preload = _gru_holder(loaded, np.copy)
    want = layer.backward(g_out, x, h, zr, c, fresh, gru_backward_out(x, h))
    added = layer.backward(g_out, x, h, zr, c, loaded, gru_backward_out(x, h))
    for got, expected in zip(added, want):
        assert np.array_equal(got, expected)
    for name in ("w", "u", "b"):
        assert np.array_equal(getattr(loaded, name),
                              getattr(preload, name) + getattr(fresh, name)), name


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_sampler_backward_adds_into_its_holder(structure):
    rng = np.random.default_rng(27)
    k, h = 16, 3
    sampler = GroupSampler.init(rng, structure, h)
    features = _random_complex(rng, (2, 5, k))
    g_groups = _random_complex(rng, (2, h, structure.group_count(k)))
    g_delta = _random_complex(rng, (2, k))
    fresh, loaded = _sampler_holder(sampler), _sampler_holder(sampler, _preloaded(rng))
    preload = _sampler_holder(loaded, np.copy)
    windows = sampler.windows(features)
    g_features = sampler.downsample_backward(g_groups, windows, fresh)
    g_groups_up = sampler.upsample_backward(g_delta, g_groups, fresh)
    assert np.array_equal(sampler.downsample_backward(g_groups, windows, loaded), g_features)
    assert np.array_equal(sampler.upsample_backward(g_delta, g_groups, loaded), g_groups_up)
    assert np.array_equal(loaded.down_kernel, preload.down_kernel + fresh.down_kernel)
    assert np.array_equal(loaded.up_kernel, preload.up_kernel + fresh.up_kernel)


def test_complex_glorot_scale():
    rng = np.random.default_rng(20)
    w = complex_glorot(rng, (2000,), 10, 10)
    var = np.mean(w.real**2 + w.imag**2)
    assert abs(var - 0.1) < 0.02
