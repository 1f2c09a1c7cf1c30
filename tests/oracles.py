"""Independent reference implementations used by the test suite.

Everything here is deliberately naive: dense DFT matrices, O(n^2) convolutions,
scalar finite differences, and the classic filters on full K-bin spectra with
the filter projected on use.  The library must agree with these, never the other
way round.
"""

from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from aflearn import layers, training
from aflearn.classic import (
    NlmsState,
    kf_step,
    make_kf_state,
    make_rls_state,
    nlms_step,
    rls_step,
)
from aflearn.metrics import erle_db, hop_powers
from aflearn.ols import (
    af_error,
    filter_gradient,
    hermitian_spectrum,
    hop_forward,
    hop_frames,
    hop_spectrum,
    ols_apply,
    project_filter,
)
from aflearn.optimizer import GroupState, apply_update, build_input, optimizer_step
from aflearn.training import meta_loss


def dft_matrix(k):
    """Dense K x K DFT matrix F with F @ x == np.fft.fft(x)."""
    n = np.arange(k)
    return np.exp(-2j * np.pi * np.outer(n, n) / k)


def constraint_matrix(k, taps):
    """Dense Z_w = F T^T T F^{-1}: zero the last K-taps time-domain taps."""
    f = dft_matrix(k)
    t = np.zeros((taps, k))
    t[np.arange(taps), np.arange(taps)] = 1.0
    return f @ t.T @ t @ np.linalg.inv(f)


def output_matrix(k, hop):
    """Dense Z_y = T_bar F^{-1}: inverse DFT then keep the last K-hop samples."""
    f = dft_matrix(k)
    tbar = np.zeros((k - hop, k))
    tbar[np.arange(k - hop), hop + np.arange(k - hop)] = 1.0
    return tbar @ np.linalg.inv(f)


def linear_convolve(h, x):
    """O(n*m) direct convolution, full length len(x)+len(h)-1."""
    y = np.zeros(len(x) + len(h) - 1)
    for i, hi in enumerate(h):
        y[i : i + len(x)] += hi * x
    return y


def _gate_product(x, w):
    """w applied to each group row of x (..., n_in) -> (..., n_out).  Written
    w @ x^T, the orientation of ``layers._matmul``: BLAS may round x @ w^T
    differently from it when there are only a few groups."""
    if x.ndim == 1:
        return w @ x
    return np.swapaxes(w @ np.swapaxes(x, -1, -2), -1, -2)


def gru_step_reference(layer, x, h):
    """Complex GRU step gate by gate, group-major (x (..., in), h (..., H)):
    six separate products, split activations written with .real/.imag.
    Returns (h_new, z, r, rh, c)."""

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a.real)) + 1j / (1.0 + np.exp(-a.imag))

    def tanh(a):
        return np.tanh(a.real) + 1j * np.tanh(a.imag)

    w_z, w_r, w_c = np.split(layer.w, 3)
    u_z, u_r, u_c = np.split(layer.u, 3)
    b_z, b_r, b_c = np.split(layer.b, 3)
    z = sigmoid(_gate_product(x, w_z) + _gate_product(h, u_z) + b_z)
    r = sigmoid(_gate_product(x, w_r) + _gate_product(h, u_r) + b_r)
    rh = r * h
    c = tanh(_gate_product(x, w_c) + _gate_product(rh, u_c) + b_c)
    h_new = (1.0 - z) * c + z * h
    return h_new, z, r, rh, c


def gru_backward_reference(layer, g_h_new, x, h, zr, c):
    """Complex GRU backward gate by gate: the input and state gradients are
    summed product by product in c, r, z order, split-activation derivatives
    written with .real/.imag.  Returns (g_x, g_h, g_w, g_u, g_b), the
    parameter gradients stacked z|r|c like the layer's fields."""

    def sigmoid_backward(g, s):
        return g.real * s.real * (1.0 - s.real) + 1j * (g.imag * s.imag * (1.0 - s.imag))

    def tanh_backward(g, t):
        return g.real * (1.0 - t.real**2) + 1j * (g.imag * (1.0 - t.imag**2))

    hidden = layer.hidden_size
    z, r = zr[..., :hidden], zr[..., hidden:]
    w_z, w_r, w_c = np.split(layer.w, 3)
    u_z, u_r, u_c = np.split(layer.u, 3)
    g_az = sigmoid_backward(np.conj(h - c) * g_h_new, z)
    g_ac = tanh_backward(np.conj(1.0 - z) * g_h_new, c)
    g_h = np.conj(z) * g_h_new
    rh = r * h
    g_rh = g_ac @ np.conj(u_c)
    g_ar = sigmoid_backward(np.conj(h) * g_rh, r)
    g_h += np.conj(r) * g_rh
    g_x = g_ac @ np.conj(w_c)
    g_x += g_ar @ np.conj(w_r)
    g_x += g_az @ np.conj(w_z)
    g_h += g_ar @ np.conj(u_r)
    g_h += g_az @ np.conj(u_z)

    def outer(g, a):  # sum over the leading axes of g^T conj(a)
        return g.reshape(-1, g.shape[-1]).T @ np.conj(a.reshape(-1, a.shape[-1]))

    g_gates = (g_az, g_ar, g_ac)
    g_w = np.concatenate([outer(g, x) for g in g_gates])
    g_u = np.concatenate([outer(g_az, h), outer(g_ar, h), outer(g_ac, rh)])
    g_b = np.concatenate([g.reshape(-1, hidden).sum(axis=0) for g in g_gates])
    return g_x, g_h, g_w, g_u, g_b


def gru_backward_out(h):
    """Fresh (g_h, g_gates, work) arrays for ``ComplexGruLayer.backward`` to
    write into, for a step from h (..., H, C)."""
    *batch, hidden, groups = h.shape
    return (np.empty(h.shape, dtype=complex),
            np.empty((*batch, 3 * hidden, groups), dtype=complex),
            np.empty((2, *h.shape), dtype=complex))


def gru_backward_with_input(layer, g_h_new, x, h, zr, c, grads):
    """A GRU layer's backward through its input product too: (g_x, g_h), with
    the w gradient added into ``grads.w`` by ``dense_backward``."""
    g_gates, g_h = layer.backward(g_h_new, h, zr, c, grads, gru_backward_out(h))
    return layers.dense_backward(g_gates, x, layer.w, grads.w), g_h


def unfolded_step_backward(params, g_delta, ws, t, grads):
    """``training._optimizer_backward`` with the rule's linear ends unfolded:
    the layer-0 input ``downsample(xi)`` and the output dense result are
    rebuilt, and each linear layer takes its own ``dense_backward``.  Same
    arguments and results: g_xi in a fresh array, the previous state's
    gradient written into ``ws.g_state``."""
    g_state = ws.g_state
    (h0, zr0, c0), (h1, zr1, c1) = ws.step_out(t)
    state = ws.state(t)
    sampler = params.sampler
    dense_out = layers.dense(h1, params.out_weight, params.out_bias)
    g_per_bin = params.structure.gather(g_delta[..., None, :])[..., 0, :]
    g_out = layers.dense_backward(g_per_bin, dense_out, sampler.up_kernel,
                                  grads.sampler.up_kernel)
    g_h1 = layers.dense_backward(g_out, h1, params.out_weight, grads.out_weight,
                                 grads.out_bias) + g_state.h1
    g_h0, g_prev_h1 = gru_backward_with_input(params.grus[1], g_h1, h0, state.h1, zr1, c1,
                                              grads.grus[1])
    windows = sampler.windows(ws.xi[t])
    groups = layers.dense(windows, sampler.down_kernel)
    g_groups, g_prev_h0 = gru_backward_with_input(params.grus[0], g_h0 + g_state.h0, groups,
                                                  state.h0, zr0, c0, grads.grus[0])
    g_flat = layers.dense_backward(g_groups, windows, sampler.down_kernel,
                                   grads.sampler.down_kernel)
    *batch, _, count = g_flat.shape
    g_xi = params.structure.scatter(
        g_flat.reshape(*batch, params.structure.width, len(layers.FEATURE_CHANNELS), count))
    g_state.h0[...], g_state.h1[...] = g_prev_h0, g_prev_h1
    return g_xi


@contextmanager
def unfolded_training_backward():
    """While active, ``training.window_gradient`` steps back through
    ``unfolded_step_backward``: the reference its folded backward is pinned to."""
    folded = training._optimizer_backward
    training._optimizer_backward = unfolded_step_backward
    try:
        yield
    finally:
        training._optimizer_backward = folded


@contextmanager
def counted_macs():
    """Tally the complex multiply-accumulates of every forward matrix product.

    Every dense layer and GRU step runs its products ``weight @ x`` through
    ``aflearn.layers._matmul``; while the context is active that function is
    wrapped to add columns * n_in * n_out per call to the yielded ``.total``,
    where x is (..., n_in, columns).
    """
    tally = SimpleNamespace(total=0)
    matmul = layers._matmul

    def counting(weight, x, out=None):
        tally.total += (x.size // x.shape[-2]) * weight.shape[1] * weight.shape[0]
        return matmul(weight, x, out=out)

    layers._matmul = counting
    try:
        yield tally
    finally:
        layers._matmul = matmul


def fd_gradient(f, z, eps=1e-6):
    """Central finite differences of a real scalar f() over a complex array z.

    Mutates entries of z in place around each probe.  Returns the paired-real
    gradient dL/dRe(z) + 1j * dL/dIm(z), shaped like z.
    """
    z = np.asarray(z)
    grad = np.zeros(z.shape, dtype=complex)
    flat = z.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        for direction in (1.0, 1.0j):
            flat[i] = orig + direction * eps
            f_plus = f()
            flat[i] = orig - direction * eps
            f_minus = f()
            flat[i] = orig
            gflat[i] += direction * (f_plus - f_minus) / (2.0 * eps)
    return grad


def fd_gradient_real(f, x, eps=1e-6):
    """Central finite differences of a real scalar f() over a real array x."""
    x = np.asarray(x)
    grad = np.zeros(x.shape)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def rel_error(actual, expected):
    """Relative l2 error with a floor to keep zero targets meaningful."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    scale = np.linalg.norm(expected.ravel())
    return np.linalg.norm((actual - expected).ravel()) / max(scale, 1e-30)


def _project_full_k(w, taps):
    """Zero the last K - taps taps of a full K-bin spectrum (ifft, then fft)."""
    wt = np.fft.ifft(w, axis=-1)
    wt[..., taps:] = 0.0
    return np.fft.fft(wt, axis=-1)


def _zero_headed_spectrum(hop_samples, k):
    """fft of an R-sample hop in the tail of an otherwise zero K frame."""
    frame = np.zeros(hop_samples.shape[:-1] + (k,))
    frame[..., k - hop_samples.shape[-1] :] = hop_samples
    return np.fft.fft(frame, axis=-1)


def full_k_hop(w, u_frame, d_hop):
    """One overlap-save hop on full K-bin complex spectra, the filter projected
    on use: 7 complex FFTs with ``full_k_step``.  Returns (y_hop, e_hop,
    u_freq, e_freq)."""
    k = u_frame.shape[-1]
    r = k // 2
    u_freq = np.fft.fft(u_frame, axis=-1)
    y_hop = np.fft.ifft(u_freq * _project_full_k(w, k - r), axis=-1)[..., r:].real
    e_hop = d_hop - y_hop
    return y_hop, e_hop, u_freq, _zero_headed_spectrum(e_hop, k)


def full_k_step(algorithm, state, u_freq, e_freq, w):
    """The NLMS, RLS or KF update on full K-bin spectra, with the
    hyperparameters and the K-bin ``p`` of ``state``; returns (w_new, state).
    For KF, ``w`` is the prediction ``state.transition * w_post``."""
    k = u_freq.shape[-1]
    power = u_freq.real**2 + u_freq.imag**2
    if algorithm == "nlms":
        gain = state.step_size * np.conj(u_freq) / (power + state.eps)
        return _project_full_k(w + gain * e_freq, k // 2), state
    if algorithm == "rls":
        denom = state.forget + state.p * power + state.eps
        w_new = _project_full_k(w + state.p * np.conj(u_freq) / denom * e_freq, k // 2)
        return w_new, replace(state, p=state.p / denom)
    p_pred = state.transition**2 * state.p + state.process_noise
    innovation_var = p_pred * power + state.obs_noise
    w_new = _project_full_k(w + p_pred * np.conj(u_freq) / innovation_var * e_freq, k // 2)
    residual = np.sum(e_freq.real**2 + e_freq.imag**2, axis=-1, keepdims=True) / k
    obs_new = state.noise_smoothing * state.obs_noise + (1.0 - state.noise_smoothing) * residual
    return w_new, replace(state, p=p_pred * state.obs_noise / innovation_var, obs_noise=obs_new)


def full_k_session(algorithm, state, u, d, k):
    """A classic session on full K-bin spectra over 1-D signals, hop by hop
    from the zero filter; returns (output, error, final K-bin weights)."""
    r = k // 2
    hops = u.size // r
    padded = np.concatenate([np.zeros(k - r), u[: hops * r]])
    output = np.empty(hops * r)
    w = np.zeros(k, dtype=complex)
    for t in range(hops):
        if algorithm == "kf":
            w = state.transition * w
        span = slice(t * r, (t + 1) * r)
        y_hop, _, u_freq, e_freq = full_k_hop(w, padded[t * r : t * r + k], d[span])
        output[span] = y_hop
        w, state = full_k_step(algorithm, state, u_freq, e_freq, w)
    return output, d[: hops * r] - output, w


def learned_hop_features(w, u_frame, d_hop):
    """One learned hop the way the library took it before building its
    features in place: five separately formed spectra, then one ``np.stack``
    in ``FEATURE_CHANNELS`` order and ``log_scale``.  Returns (y_hop, e_hop, xi)."""
    k = u_frame.shape[-1]
    u_freq = np.fft.fft(u_frame, axis=-1)
    y_freq = u_freq * project_filter(w)
    y_hop = np.fft.ifft(y_freq, axis=-1)[..., k // 2 :].real
    e_hop = d_hop - y_hop
    e_freq = _zero_headed_spectrum(e_hop, k)
    grad = -project_filter(np.conj(u_freq) * (e_freq / k))
    raw = np.stack([grad, u_freq, _zero_headed_spectrum(d_hop, k), e_freq, y_freq], axis=-2)
    return y_hop, e_hop, layers.log_scale(raw)


def hop_by_hop_session(cfg, u, d, params=None, algorithm=None, snapshot_stride=0):
    """A learned (``params``) or classic (``algorithm``) session one hop at a
    time: each hop's frame is transformed on its own.  The learned rule's
    features come from ``learned_hop_features``, then the library's rule
    step; a classic filter runs the library's hop kernel and classic step on
    the conjugate and power of that hop's own spectrum.  Signals and
    ``snapshot_stride`` as in the sessions; returns (output, error, K-bin
    weights, per-hop ERLE, snapshots)."""
    k = cfg.dft_size
    u_frames = hop_frames(u, cfg)
    # the desired hops batch-major, as the returned signals and per-hop ERLE are
    d_hops = np.moveaxis(hop_frames(d, cfg)[..., cfg.hop :], 0, -2)
    batch = u.shape[:-1]
    if params is not None:
        state = GroupState.zeros(params.structure, k, params.hidden_size, batch_shape=batch)
        w = np.zeros(batch + (k,), dtype=complex)
    else:
        bins = k // 2 + 1
        state, step = {"nlms": (NlmsState(), nlms_step),
                       "rls": (make_rls_state(bins), rls_step),
                       "kf": (make_kf_state(bins), kf_step)}[algorithm]
        w = np.zeros(batch + (bins,), dtype=complex)
    output = np.empty(d_hops.shape)
    error = np.empty_like(output)
    snapshots = []
    spectrum = (lambda w: w) if params is not None else hermitian_spectrum
    for t in range(len(u_frames)):
        frame, d_hop = u_frames[t], d_hops[..., t, :]
        if params is not None:
            y_hop, e_hop, xi = learned_hop_features(w, frame, d_hop)
            delta, state = optimizer_step(params, xi, state)
            w = apply_update(w, delta)
        else:
            if algorithm == "kf":
                w = state.transition * w
            u_freq = np.fft.rfft(frame, axis=-1)
            e_frame = np.zeros(batch + (k,))
            y_hop, e_hop, e_freq = hop_forward(cfg, w, u_freq, d_hop, e_frame)
            u_power = u_freq.real**2 + u_freq.imag**2
            w, state = step(state, np.conj(u_freq), u_power, e_freq, w)
        output[..., t, :] = y_hop
        error[..., t, :] = e_hop
        if snapshot_stride and (t + 1) % snapshot_stride == 0:
            snapshots.append((t, spectrum(w)))
    shape = batch + (-1,)
    erle = erle_db(hop_powers(d_hops), hop_powers(error))
    return output.reshape(shape), error.reshape(shape), spectrum(w), erle, snapshots


def reference_window(params, cfg, w0, state0, frames, d_hops, grad_channel=None):
    """A training window restated hop by hop from public pieces: frames
    (unroll, batch, K) and desired hops (unroll, batch, R) from filter ``w0``
    and rule state ``state0``.  Returns (meta loss, y_hops, the gradient
    feature of each hop).

    The rule treats its analytic-gradient feature as data, so a
    finite-difference loss must hold it fixed: given ``grad_channel`` (the
    features an unperturbed run returned), the window feeds those instead of
    recomputing them.
    """
    w, state = w0, state0
    y_hops = np.empty(d_hops.shape)
    grads = []
    for t in range(len(frames)):
        u_freq = np.fft.fft(frames[t])
        y_hop, y_freq = ols_apply(cfg, w, frames[t])
        e_hop, e_freq = af_error(d_hops[t], y_hop, cfg)
        grad = filter_gradient(u_freq, e_hop, cfg) if grad_channel is None else grad_channel[t]
        grads.append(grad)
        d_freq = hop_spectrum(d_hops[t], cfg)
        xi = build_input(np.stack([grad, u_freq, d_freq, e_freq, y_freq], axis=-2))
        delta, state = optimizer_step(params, xi, state)
        w = w + delta
        y_hops[t] = y_hop
    return meta_loss(d_hops, y_hops), y_hops, grads
