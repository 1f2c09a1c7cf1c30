"""Overlap-save primitives against dense-matrix and direct-convolution oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aflearn.errors import NumericError
from aflearn.layers import DESIRED_ROW, FAREND_ROW, FEATURE_CHANNELS
from aflearn.ols import (
    OlsConfig,
    af_error,
    feature_hop,
    filter_gradient,
    hop_backward,
    hop_frames,
    hop_spectrum,
    input_rows,
    ols_apply,
    project_filter,
    spectrum_to_hop,
)

from oracles import constraint_matrix, fd_gradient, linear_convolve, rel_error


def test_config_validates_geometry():
    cfg = OlsConfig(16)
    assert cfg.hop == 8
    with pytest.raises(ValueError):
        OlsConfig(12)
    with pytest.raises(TypeError):  # the hop is derived; a second positional is an error
        OlsConfig(16, 8)
    with pytest.raises(ValueError):
        OlsConfig(16, sample_rate=0)
    assert OlsConfig.for_dft_size(64).hop == 32


def test_project_filter_matches_dense_constraint():
    rng = np.random.default_rng(1)
    for k in (8, 16, 64):
        z = constraint_matrix(k, k // 2)
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert rel_error(project_filter(w), z @ w) < 1e-10
        # idempotent and Hermitian as an operator on C^K
        assert rel_error(z @ z, z) < 1e-10
        assert rel_error(z.conj().T, z) < 1e-10
        assert rel_error(project_filter(project_filter(w)), project_filter(w)) < 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(log_k=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_project_filter_is_idempotent_across_sizes(log_k, seed):
    k = 2**log_k
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    once = project_filter(w)
    assert rel_error(project_filter(once), once) < 1e-12
    tail = np.abs(np.fft.ifft(once)[k // 2 :])
    assert np.max(tail) <= 1e-12 * np.abs(w).max()


def test_project_filter_keeps_short_responses():
    h = np.zeros(16)
    h[:8] = np.arange(1.0, 9.0)
    w = np.fft.fft(h)
    assert rel_error(project_filter(w), w) < 1e-12


def test_ols_identity_filter_passes_input_through():
    cfg = OlsConfig(8)
    impulse = np.zeros(8)
    impulse[0] = 1.0
    w = np.fft.fft(impulse)
    rng = np.random.default_rng(2)
    frame = rng.standard_normal(8)
    y_hop, y_freq = ols_apply(cfg, w, frame)
    assert rel_error(y_hop, frame[4:]) < 1e-12
    assert y_freq.shape == (8,)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(log_k=st.integers(3, 9), hops=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(log_k=4, hops=6, seed=3)
@example(log_k=6, hops=6, seed=3)
def test_ols_matches_direct_convolution_streamwise(log_k, hops, seed):
    # the alias-free tail of each frame must reproduce linear convolution
    rng = np.random.default_rng(seed)
    cfg = OlsConfig.for_dft_size(2**log_k)
    r = cfg.hop
    h = rng.standard_normal(cfg.hop)
    w = np.fft.fft(np.concatenate([h, np.zeros(cfg.dft_size - cfg.hop)]))
    # a 2-row stack with a partial final hop, which the frame view drops
    x = rng.standard_normal((2, hops * r + int(rng.integers(r))))
    frames = hop_frames(x, cfg)
    assert frames.shape == (hops, 2, cfg.dft_size)  # time-major: row t is hop t
    out = np.zeros((2, hops * r))
    for t in range(hops):
        y_hop, _ = ols_apply(cfg, w, frames[t])
        out[:, t * r : (t + 1) * r] = y_hop
    for row in range(2):
        # a stack's frames are each row's own frames
        assert np.array_equal(frames[:, row], hop_frames(x[row], cfg))
        ref = linear_convolve(h, x[row])[: hops * r]
        assert rel_error(out[row], ref) < 1e-10


def test_ols_rejects_bad_input():
    cfg = OlsConfig(8)
    w = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        ols_apply(cfg, w, np.zeros(7))
    with pytest.raises(ValueError):
        ols_apply(cfg, np.zeros(4, dtype=complex), np.zeros(8))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(NumericError):
        ols_apply(cfg, w, bad)


def test_af_error_silent_far_end_returns_desired():
    cfg = OlsConfig(16)
    rng = np.random.default_rng(4)
    d_hop = rng.standard_normal(8)
    y_hop, _ = ols_apply(cfg, rng.standard_normal(16) + 0j, np.zeros(16))
    e_hop, e_freq = af_error(d_hop, y_hop, cfg)
    assert rel_error(e_hop, d_hop) < 1e-12
    assert rel_error(e_freq, hop_spectrum(d_hop, cfg)) < 1e-12


def test_hop_spectrum_roundtrip():
    cfg = OlsConfig(32)
    rng = np.random.default_rng(5)
    hop = rng.standard_normal(16)
    spec = hop_spectrum(hop, cfg)
    assert rel_error(spectrum_to_hop(spec, cfg), hop) < 1e-12
    # leading half of the encoded frame is zero
    assert np.abs(np.fft.ifft(spec)[:16]).max() < 1e-12


def test_filter_gradient_matches_finite_differences():
    # convention: returned gradient is d||e||^2 / d(conj w), so the
    # paired-real finite-difference estimate equals exactly twice it
    rng = np.random.default_rng(6)
    cfg = OlsConfig(16)
    frame = rng.standard_normal(16)
    d_hop = rng.standard_normal(8)
    w = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) * 0.3

    def loss():
        y_hop, _ = ols_apply(cfg, w, frame)
        e_hop, _ = af_error(d_hop, y_hop, cfg)
        return float(e_hop @ e_hop)

    fd = fd_gradient(loss, w, eps=1e-6)
    y_hop, _ = ols_apply(cfg, w, frame)
    e_hop, _ = af_error(d_hop, y_hop, cfg)
    grad = filter_gradient(np.fft.fft(frame), e_hop, cfg)
    assert rel_error(grad, fd / 2.0) < 1e-7


def test_filter_gradient_ignores_constrained_taps():
    rng = np.random.default_rng(7)
    cfg = OlsConfig(16)
    frame = rng.standard_normal(16)
    d_hop = rng.standard_normal(8)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    tail = np.zeros(16, dtype=complex)
    tail_time = np.zeros(16)
    tail_time[cfg.hop :] = rng.standard_normal(cfg.hop)
    tail = np.fft.fft(tail_time)

    def run(weights):
        y_hop, _ = ols_apply(cfg, weights, frame)
        e_hop, _ = af_error(d_hop, y_hop, cfg)
        return filter_gradient(np.fft.fft(frame), e_hop, cfg)

    assert rel_error(run(w + tail), run(w)) < 1e-12


def test_filter_gradient_zero_error_is_zero():
    cfg = OlsConfig(16)
    rng = np.random.default_rng(8)
    u_freq = np.fft.fft(rng.standard_normal(16))
    grad = filter_gradient(u_freq, np.zeros(8), cfg)
    assert np.abs(grad).max() == 0.0


def test_stream_hops_covers_signal():
    cfg = OlsConfig(8)
    x = np.arange(10.0)
    frames = hop_frames(x, cfg)
    assert frames.shape == (2, 8)  # the partial final hop is dropped
    # the hop view is the signal's whole hops, in order
    assert rel_error(frames[:, cfg.hop :].ravel(), x[:8]) < 1e-12
    # zero history at the head; frame t is the last K samples up to (t + 1) * R
    assert np.abs(frames[0][:4]).max() == 0.0
    assert np.array_equal(frames[1], x[:8])
    assert not frames.flags.writeable


def test_batched_calls_match_loop():
    cfg = OlsConfig(16)
    rng = np.random.default_rng(10)
    frames = rng.standard_normal((5, 16))
    w = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    y_b, f_b = ols_apply(cfg, w, frames)
    for i in range(5):
        y_i, f_i = ols_apply(cfg, w[i], frames[i])
        assert rel_error(y_b[i], y_i) < 1e-12
        assert rel_error(f_b[i], f_i) < 1e-12


def test_block_spectra_equal_one_row_calls():
    # input_rows fills a batched, time-major block's far-end and desired rows
    # with each hop's own fft and hop_spectrum, bit for bit, and no other row
    cfg = OlsConfig(16)
    rng = np.random.default_rng(11)
    frames = hop_frames(rng.standard_normal((2, 7 * cfg.hop)), cfg)
    hops = frames[..., cfg.hop :]
    raw = np.full((7, 2, len(FEATURE_CHANNELS), 16), np.nan, dtype=complex)
    input_rows(cfg, frames, hops, raw)
    for b, t in np.ndindex(2, 7):
        assert np.array_equal(raw[t, b, FAREND_ROW], np.fft.fft(frames[t, b]))
        assert np.array_equal(raw[t, b, DESIRED_ROW], hop_spectrum(hops[t, b], cfg))
    others = [row for row in range(len(FEATURE_CHANNELS)) if row not in (FAREND_ROW, DESIRED_ROW)]
    assert np.isnan(raw[:, :, others]).all()
    # the classic session's one rfft over a (hops, batch, K) block: each row's own
    block = np.fft.rfft(frames, axis=-1)
    assert block.shape == (7, 2, 9)
    for b, t in np.ndindex(2, 7):
        assert np.array_equal(block[t, b], np.fft.rfft(frames[t, b]))
    with pytest.raises(ValueError, match="filter"):
        ols_apply(cfg, np.zeros(8, dtype=complex), frames[0, 0])
    with pytest.raises(ValueError, match="input frame"):
        ols_apply(cfg, np.zeros(16, dtype=complex), frames[0, 0, :8])


def test_hop_adjoint_without_feature_gradient_is_the_zero_one():
    # g_xi None, the window's last hop, is an all-zero g_xi, bit for bit
    cfg = OlsConfig(64)
    rng = np.random.default_rng(12)
    frames = hop_frames(rng.standard_normal((3, 2 * cfg.hop)), cfg)[1]
    d_hop = rng.standard_normal((3, cfg.hop))
    raw = np.empty((1, 3, len(FEATURE_CHANNELS), 64), dtype=complex)
    input_rows(cfg, frames[None], d_hop[None], raw)
    w = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    feature_hop(cfg, w, d_hop, raw[0], np.zeros((3, 64)))
    g_y_hop = rng.standard_normal((3, cfg.hop))
    got = hop_backward(cfg, raw[0], g_y_hop, None)
    assert got.shape == (3, 64) and np.abs(got).max() > 0
    assert np.array_equal(got, hop_backward(cfg, raw[0], g_y_hop, np.zeros_like(raw[0])))
