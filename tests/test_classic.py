"""Classical baseline update laws plus convergence on synthetic scenes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aflearn.classic import (
    NlmsState,
    kf_step,
    make_kf_state,
    make_rls_state,
    nlms_step,
    rls_step,
)
from aflearn.metrics import misalignment_db
from aflearn.ols import (
    OlsConfig,
    frame_spectra,
    hop_forward,
    hop_spectrum,
    ols_apply,
    project_filter,
)
from aflearn.scenes import desk_spec, gen_scene
from aflearn.session import run_classic_session

from oracles import full_k_hop, full_k_session, full_k_step, rel_error

CFG = OlsConfig.for_dft_size(512)
IDENT_SPEC = desk_spec(duration=10.0, near_speech_prob=0.0, noise_prob=0.0,
                       nonlinearity_probs={"identity": 1.0})


def _stats(u_freq):
    """A step's view of the input frame: conj(U) and |U|^2."""
    return np.conj(u_freq), u_freq.real**2 + u_freq.imag**2


def _random_state(seed, k=16):
    rng = np.random.default_rng(seed)
    u_freq = np.fft.fft(rng.standard_normal(k))
    w = project_filter(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return rng, u_freq, w


def test_nlms_zero_error_keeps_weights():
    _, u_freq, w = _random_state(0)
    w_new, _ = nlms_step(NlmsState(), *_stats(u_freq), np.zeros_like(u_freq), w)
    assert rel_error(w_new, w) < 1e-12


def test_nlms_update_is_constrained():
    rng, u_freq, w = _random_state(1)
    e_freq = hop_spectrum(rng.standard_normal(8), OlsConfig(16))
    w_new, _ = nlms_step(NlmsState(), *_stats(u_freq), e_freq, w)
    tail = np.fft.ifft(w_new)[8:]
    assert np.abs(tail).max() < 1e-12


def test_nlms_reduces_replayed_error():
    # with a representable target, replaying the same frame after the
    # update must shrink the residual
    cfg = OlsConfig(16)
    rng = np.random.default_rng(2)
    frame = rng.standard_normal(16)
    from aflearn.ols import af_error, ols_apply

    w_true = project_filter(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    d_hop, _ = ols_apply(cfg, w_true, frame)
    w = np.zeros(16, dtype=complex)
    y, _ = ols_apply(cfg, w, frame)
    e_hop, e_freq = af_error(d_hop, y, cfg)
    before = float(e_hop @ e_hop)
    w, _ = nlms_step(NlmsState(), *_stats(np.fft.fft(frame)), e_freq, w)
    y, _ = ols_apply(cfg, w, frame)
    e_hop, _ = af_error(d_hop, y, cfg)
    assert float(e_hop @ e_hop) < 0.9 * before


def _hermitian_error(w):
    """Relative size of the part of w that breaks w[k] = conj(w[-k])."""
    k = w.shape[-1]
    return rel_error(w, np.conj(w[..., -np.arange(k) % k]))


@pytest.mark.parametrize("algorithm", ["nlms", "rls", "kf"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(log_k=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_step_keeps_a_hermitian_projected_filter(algorithm, log_k, seed):
    # the spectra of real signals, and a filter that is the spectrum of a real
    # response inside the tap support: one step must keep both properties
    cfg = OlsConfig(2**log_k)
    k = cfg.dft_size
    rng = np.random.default_rng(seed)
    response = np.zeros(k)
    response[: cfg.hop] = rng.standard_normal(cfg.hop)
    w = np.fft.fft(response)
    state, step = {
        "nlms": (NlmsState(), nlms_step),
        "rls": (make_rls_state(k), rls_step),
        "kf": (make_kf_state(k), kf_step),
    }[algorithm]
    if algorithm == "kf":
        w = state.transition * w
    _, _, u_freq, e_freq = full_k_hop(w, rng.standard_normal(k), rng.standard_normal(cfg.hop))
    w_new, _ = step(state, *_stats(u_freq), e_freq, w)
    assert _hermitian_error(w_new) < 1e-12
    assert rel_error(project_filter(w_new), w_new) < 1e-12


@pytest.mark.parametrize("algorithm", ["nlms", "rls", "kf"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(log_k=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_step_matches_the_full_k_step(algorithm, log_k, seed):
    # one hop and one update on K/2+1 bins give the first K/2+1 bins of the
    # full K-bin hop and update, for a real frame and a projected real filter
    cfg = OlsConfig(2**log_k)
    k, bins = cfg.dft_size, cfg.dft_size // 2 + 1
    rng = np.random.default_rng(seed)
    response = np.zeros(k)
    response[: cfg.hop] = rng.standard_normal(cfg.hop)
    frame, d_hop = rng.standard_normal(k), rng.standard_normal(cfg.hop)
    p_half = rng.uniform(0.1, 10.0, bins)
    p_full = np.concatenate([p_half, p_half[-2:0:-1]])  # p[k] = p[-k], as real signals give
    state, step = {
        "nlms": (NlmsState(), nlms_step),
        "rls": (make_rls_state(k), rls_step),
        "kf": (make_kf_state(k, obs_noise=rng.uniform(0.01, 1.0)), kf_step),
    }[algorithm]
    w = np.fft.fft(response) * getattr(state, "transition", 1.0)
    y_full, e_full, u_full, e_freq_full = full_k_hop(w, frame, d_hop)
    if algorithm != "nlms":
        state = replace(state, p=p_full)
    w_full, state_full = full_k_step(algorithm, state, u_full, e_freq_full, w)

    u_freq = frame_spectra(cfg, frame, bins)
    y_hop, e_hop, e_freq = hop_forward(cfg, w[:bins], u_freq, d_hop, np.zeros(k))
    assert u_freq.shape == e_freq.shape == (bins,)
    assert rel_error(y_hop, y_full) < 1e-12
    assert rel_error(e_hop, e_full) < 1e-12
    if algorithm != "nlms":
        state = replace(state, p=p_half)
    w_half, state_half = step(state, *_stats(u_freq), e_freq, w[:bins])
    assert rel_error(w_half, w_full[:bins]) < 1e-12
    if algorithm != "nlms":
        assert rel_error(state_half.p, state_full.p[:bins]) < 1e-12
    if algorithm == "kf":
        assert rel_error(state_half.obs_noise, state_full.obs_noise) < 1e-12


@pytest.fixture(scope="module")
def path_change_scene():
    return gen_scene(desk_spec(duration=60.0), seed=0, path_change_at=30.0)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["nlms", "rls", "kf"])
def test_session_matches_the_full_k_reference(algorithm, path_change_scene):
    # a minute of a path-change scene on half spectra stays on the full K-bin
    # filter with on-use projection, and the session still reports K bins
    scene = path_change_scene
    state = {"nlms": NlmsState(), "rls": make_rls_state(CFG.dft_size),
             "kf": make_kf_state(CFG.dft_size)}[algorithm]
    output, error, weights = full_k_session(algorithm, state, scene.far_end, scene.mic,
                                            CFG.dft_size)
    res = run_classic_session(algorithm, scene.far_end, scene.mic, CFG)
    assert res.weights.shape == (CFG.dft_size,)
    assert rel_error(res.output, output) < 1e-12
    assert rel_error(res.error, error) < 1e-12
    assert rel_error(res.weights, weights) < 1e-12


def test_rls_unit_forget_accumulates_inverse_power():
    # with forget = 1 and eps = 0, 1/p accumulates |u|^2 exactly
    k = 16
    state = make_rls_state(k, p0=2.0, forget=1.0, eps=0.0)
    rng = np.random.default_rng(3)
    w = np.zeros(k, dtype=complex)
    inv = 1.0 / state.p.copy()
    for _ in range(5):
        u_freq = np.fft.fft(rng.standard_normal(k))
        state_before = state
        w, state = rls_step(state, *_stats(u_freq), np.zeros(k, dtype=complex), w)
        inv += np.abs(u_freq) ** 2
        assert rel_error(1.0 / state.p, inv) < 1e-12
        assert np.all(state.p < state_before.p)


def test_rls_zero_error_keeps_weights_but_decays_p():
    _, u_freq, w = _random_state(4)
    state = make_rls_state(16)
    w_new, state_new = rls_step(state, *_stats(u_freq), np.zeros_like(u_freq), w)
    assert rel_error(w_new, w) < 1e-12
    assert np.all(state_new.p <= state.p)


def test_kf_degenerate_prior_only_predicts():
    # zero covariance and zero process noise: no measurement influence
    rng, u_freq, w = _random_state(5)
    state = make_kf_state(16, p0=0.0, process_noise=0.0, transition=0.9)
    w_pred = state.transition * w
    e_freq = hop_spectrum(rng.standard_normal(8), OlsConfig(16))
    w_new, state_new = kf_step(state, *_stats(u_freq), e_freq, w_pred)
    assert rel_error(w_new, 0.9 * w) < 1e-12
    assert np.all(state_new.p == 0.0)


def test_kf_innovation_matches_prediction_error():
    # the hop kernel, run on the prediction, hands kf_step the innovation ...
    rng, u_freq, _ = _random_state(7)
    cfg = OlsConfig(16)
    bins = cfg.dft_size // 2 + 1
    response = np.zeros(16)
    response[: cfg.hop] = rng.standard_normal(cfg.hop)
    w = np.fft.fft(response)[:bins]  # the half spectrum of a projected real filter
    frame = np.fft.ifft(u_freq).real
    d_hop = rng.standard_normal(8)
    state = make_kf_state(bins)
    w_pred = state.transition * w
    u_kernel = frame_spectra(cfg, frame, bins)
    _, e_hop, e_freq = hop_forward(cfg, w_pred, u_kernel, d_hop, np.zeros(16))
    y_pred, _ = ols_apply(cfg, w_pred, frame)
    assert rel_error(e_hop, d_hop - y_pred) < 1e-12
    assert rel_error(u_kernel, u_freq[:bins]) < 1e-12
    # ... and kf_step corrects that prediction without predicting again
    w_new, _ = kf_step(state, *_stats(u_kernel), np.zeros_like(e_freq), w_pred)
    assert rel_error(w_new, w_pred) < 1e-12
    w_new, _ = kf_step(state, *_stats(u_kernel), e_freq, w_pred)
    assert rel_error(w_new, w_pred) > 1e-3


def test_hop_kernel_takes_only_half_spectrum_filters():
    # a K-bin filter is the learned rule's, whose hop is ols.feature_hop
    cfg = OlsConfig(16)
    frame = np.random.default_rng(9).standard_normal(16)
    with pytest.raises(ValueError, match="half-spectrum filter"):
        hop_forward(cfg, np.zeros(16, dtype=complex), frame_spectra(cfg, frame, 16), np.zeros(8),
                    np.zeros(16))


def test_kf_observation_noise_tracks_residual_power():
    rng, u_freq, w = _random_state(8)
    state = make_kf_state(16, obs_noise=5.0)
    e_freq = hop_spectrum(rng.standard_normal(8), OlsConfig(16))
    _, state_new = kf_step(state, *_stats(u_freq), e_freq, state.transition * w)
    expected = 0.99 * 5.0 + 0.01 * float(np.mean(np.abs(e_freq) ** 2))
    assert abs(state_new.obs_noise - expected) < 1e-12


@pytest.mark.slow
@pytest.mark.parametrize(
    "algorithm,threshold_db",
    [("nlms", -20.0), ("rls", -30.0), ("kf", -30.0)],
)
def test_static_path_identification(algorithm, threshold_db):
    scene = gen_scene(IDENT_SPEC, seed=42)
    res = run_classic_session(algorithm, scene.far_end, scene.mic, CFG)
    final = misalignment_db(res.weights, scene.path_spectrum(CFG))
    assert final <= threshold_db, f"{algorithm}: {final:.1f} dB"


@pytest.mark.slow
def test_kf_reconverges_after_path_change():
    scene = gen_scene(IDENT_SPEC, seed=42, path_change_at=5.0)
    res = run_classic_session("kf", scene.far_end, scene.mic, CFG, snapshot_stride=31)
    switch = scene.rir_switch[0]
    w_second = scene.path_spectrum(CFG, which=1)
    # converged on the first path before the switch
    pre = [w for t, w in res.snapshots if (t + 1) * CFG.hop <= switch]
    assert misalignment_db(pre[-1], scene.path_spectrum(CFG)) <= -25.0
    # and back under -20 dB on the new path within 3 s of the switch
    recovery = [
        misalignment_db(w, w_second)
        for t, w in res.snapshots
        if switch + 3 * CFG.sample_rate >= (t + 1) * CFG.hop > switch
    ]
    assert min(recovery) <= -20.0
    assert misalignment_db(res.weights, w_second) <= -25.0
