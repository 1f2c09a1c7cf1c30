"""Overlap-save primitives against dense-matrix and direct-convolution oracles."""

import numpy as np
import pytest

from aflearn.errors import NumericError
from aflearn.ols import (
    OlsConfig,
    af_error,
    dft,
    enforce_conjugate_symmetry,
    filter_gradient,
    hop_spectrum,
    idft,
    ols_apply,
    project_filter,
    spectrum_to_hop,
    stream_hops,
)

from oracles import constraint_matrix, dft_matrix, fd_gradient, linear_convolve, rel_error


def test_config_validates_geometry():
    cfg = OlsConfig(16)
    assert cfg.hop == cfg.taps == 8
    with pytest.raises(ValueError):
        OlsConfig(12)
    with pytest.raises(TypeError):  # the hop is derived; a second positional is an error
        OlsConfig(16, 8)
    with pytest.raises(ValueError):
        OlsConfig(16, sample_rate=0)
    assert OlsConfig.for_dft_size(64).hop == 32


def test_dft_matches_dense_matrix():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert rel_error(dft(x), dft_matrix(16) @ x) < 1e-12
    assert rel_error(idft(dft(x)), x) < 1e-12
    with pytest.raises(ValueError):
        dft(x, size=8)


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


def test_project_filter_keeps_short_responses():
    cfg = OlsConfig(16)
    h = np.zeros(16)
    h[:8] = np.arange(1.0, 9.0)
    w = dft(h)
    assert rel_error(project_filter(w, cfg.taps), w) < 1e-12


def test_ols_identity_filter_passes_input_through():
    cfg = OlsConfig(8)
    impulse = np.zeros(8)
    impulse[0] = 1.0
    w = dft(impulse)
    rng = np.random.default_rng(2)
    frame = rng.standard_normal(8)
    y_hop, y_freq = ols_apply(cfg, w, frame)
    assert rel_error(y_hop, frame[4:]) < 1e-12
    assert y_freq.shape == (8,)


def test_ols_matches_direct_convolution_streamwise():
    # the alias-free tail of each frame must reproduce linear convolution
    rng = np.random.default_rng(3)
    for k in (16, 64):
        cfg = OlsConfig.for_dft_size(k)
        taps = cfg.taps
        h = rng.standard_normal(taps)
        w = dft(np.concatenate([h, np.zeros(k - taps)]))
        x = rng.standard_normal(6 * cfg.hop)
        ref = linear_convolve(h, x)[: x.size]
        out = np.zeros_like(x)
        for frame, sl in stream_hops(x, cfg):
            y_hop, _ = ols_apply(cfg, w, frame)
            out[sl] = y_hop
        assert rel_error(out, ref) < 1e-10


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
    grad = filter_gradient(dft(frame), e_hop, cfg)
    assert rel_error(grad, fd / 2.0) < 1e-7


def test_filter_gradient_ignores_constrained_taps():
    rng = np.random.default_rng(7)
    cfg = OlsConfig(16)
    frame = rng.standard_normal(16)
    d_hop = rng.standard_normal(8)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    tail = np.zeros(16, dtype=complex)
    tail_time = np.zeros(16)
    tail_time[cfg.taps :] = rng.standard_normal(cfg.hop)
    tail = dft(tail_time)

    def run(weights):
        y_hop, _ = ols_apply(cfg, weights, frame)
        e_hop, _ = af_error(d_hop, y_hop, cfg)
        return filter_gradient(dft(frame), e_hop, cfg)

    assert rel_error(run(w + tail), run(w)) < 1e-12


def test_filter_gradient_zero_error_is_zero():
    cfg = OlsConfig(16)
    rng = np.random.default_rng(8)
    u_freq = dft(rng.standard_normal(16))
    grad = filter_gradient(u_freq, np.zeros(8), cfg)
    assert np.abs(grad).max() == 0.0


def test_conjugate_symmetry_projection():
    rng = np.random.default_rng(9)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    sym = enforce_conjugate_symmetry(w)
    assert np.abs(np.fft.ifft(sym).imag).max() < 1e-12
    real_spec = dft(rng.standard_normal(16))
    assert rel_error(enforce_conjugate_symmetry(real_spec), real_spec) < 1e-12


def test_stream_hops_covers_signal():
    cfg = OlsConfig(8)
    x = np.arange(10.0)
    frames = list(stream_hops(x, cfg, pad_tail=True))
    assert len(frames) == 3
    rebuilt = np.zeros(10)
    for frame, sl in frames:
        width = sl.stop - sl.start
        rebuilt[sl] = frame[cfg.hop : cfg.hop + width]
    assert rel_error(rebuilt, x) < 1e-12
    # zero history at the head
    assert np.abs(frames[0][0][:4]).max() == 0.0


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
