"""Scene generator invariants and disk round trips."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve

from aflearn import scenes
from aflearn.errors import ConfigError
from aflearn.ols import OlsConfig
from aflearn.scenes import (
    RANGE_FIELDS,
    Nonlinearity,
    SceneSpec,
    desk_spec,
    exp_decay_rir,
    gen_scene,
    load_scene,
    pink_noise,
    read_wav,
    save_scene,
    spec_to_json,
    speech_surrogate,
    write_wav,
)

SPEC = desk_spec(duration=1.0)


def test_mixture_identity():
    scene = gen_scene(SPEC, seed=0)
    assert np.array_equal(scene.mic, scene.echo + scene.near_speech + scene.near_noise)
    assert scene.far_end.size == SPEC.num_samples


def test_determinism_per_seed():
    a = gen_scene(SPEC, seed=5)
    b = gen_scene(SPEC, seed=5)
    c = gen_scene(SPEC, seed=6)
    assert np.array_equal(a.mic, b.mic)
    assert a.ser_db == b.ser_db
    assert not np.array_equal(a.mic, c.mic)


def test_silent_far_end_leaves_near_components():
    scene = gen_scene(SPEC, seed=1, far_end=np.zeros(SPEC.num_samples))
    assert np.abs(scene.echo).max() == 0.0
    assert np.array_equal(scene.mic, scene.near_speech + scene.near_noise)


def test_levels_respect_drawn_ratios():
    spec = desk_spec(duration=2.0, near_speech_prob=1.0, noise_prob=1.0,
                     nonlinearity_probs={"identity": 1.0})
    scene = gen_scene(spec, seed=7)
    echo_p = np.mean(scene.echo**2)
    noise_p = np.mean(scene.near_noise**2)
    assert abs(10 * np.log10(echo_p / noise_p) - scene.snr_db) < 0.1
    active = scene.near_speech[scene.near_speech != 0.0]
    speech_p = np.mean(active**2)
    assert abs(10 * np.log10(speech_p / echo_p) - scene.ser_db) < 0.1


def test_rir_is_unit_energy_and_decaying():
    rng = np.random.default_rng(8)
    rir = exp_decay_rir(rng, 256, rt60=0.03, sample_rate=16000)
    assert abs(np.linalg.norm(rir) - 1.0) < 1e-12
    head = np.sum(rir[:64] ** 2)
    tail = np.sum(rir[192:] ** 2)
    assert head > 10 * tail


def test_path_spectrum_matches_truncated_rir():
    cfg = OlsConfig.for_dft_size(512)
    scene = gen_scene(SPEC, seed=2)
    w = scene.path_spectrum(cfg)
    back = np.fft.ifft(w).real
    assert np.allclose(back[: SPEC.rir_taps], scene.rir, atol=1e-12)
    assert np.abs(back[cfg.hop :]).max() < 1e-12


def test_path_change_scene_switches_echo():
    spec = desk_spec(duration=1.0, near_speech_prob=0.0, noise_prob=0.0)
    scene = gen_scene(spec, seed=3, path_change_at=0.5)
    assert scene.rir_switch is not None
    switch, rir2 = scene.rir_switch
    assert switch == spec.num_samples // 2
    assert not np.allclose(scene.rir, rir2)
    baseline = gen_scene(spec, seed=3)
    assert np.array_equal(scene.echo[:switch], baseline.echo[:switch])
    assert not np.allclose(scene.echo[switch:], baseline.echo[switch:])
    with pytest.raises(ConfigError):
        gen_scene(spec, seed=3, path_change_at=2.0)


def test_fast_length_is_scipys_real_fast_length():
    rng = np.random.default_rng(12)
    for n in [*range(1, 4000), *rng.integers(4000, 3_000_000, 2000).tolist()]:
        assert scenes._fast_len(n) == next_fast_len(n, real=True), n


@settings(max_examples=80, derandomize=True, deadline=None)
@given(a_size=st.integers(1, 20000), b_size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
@example(a_size=38865, b_size=1, seed=0)  # fftconvolve multiplies when an input has one sample
@example(a_size=1, b_size=256, seed=0)
@example(a_size=9600, b_size=256, seed=0)  # desk scenes of 0.6, 4 and 15 s
@example(a_size=64000, b_size=256, seed=0)
@example(a_size=240000, b_size=256, seed=0)
@example(a_size=160000, b_size=2048, seed=0)  # a default 10 s scene
def test_convolution_is_bit_identical_to_fftconvolve(a_size, b_size, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(a_size), rng.standard_normal(b_size)
    got = scenes._fftconvolve(a, b)
    assert got.shape == (a_size + b_size - 1,)
    np.testing.assert_array_equal(got, fftconvolve(a, b))


def test_speech_surrogate_has_pauses_and_activity():
    rng = np.random.default_rng(9)
    s = speech_surrogate(rng, 16000 * 4, 16000)
    frames = s.reshape(-1, 400)
    powers = (frames**2).sum(axis=1)
    assert (powers == 0.0).sum() > 5
    assert (powers > 0.0).sum() > 50


def test_pink_noise_slope():
    rng = np.random.default_rng(10)
    x = pink_noise(rng, 1 << 15)
    spec = np.abs(np.fft.rfft(x)) ** 2
    low = spec[8:64].mean()
    high = spec[8192:8248].mean()
    assert low > 50 * high
    assert abs(np.sqrt(np.mean(x**2)) - 1.0) < 1e-9


def test_nonlinearities():
    x = np.linspace(-1.0, 1.0, 101)
    assert np.array_equal(Nonlinearity().apply(x), x)
    clipped = Nonlinearity("hardclip", 0.5).apply(x)
    assert clipped.max() == 0.5 and clipped.min() == -0.5
    soft = Nonlinearity("tanh", 2.0).apply(x)
    assert np.abs(soft).max() < 0.5
    assert np.allclose(soft, np.tanh(2.0 * x) / 2.0)
    with pytest.raises(ConfigError):
        Nonlinearity("cubic", 1.0).apply(x)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SceneSpec(duration=0.0)
    with pytest.raises(ConfigError):
        SceneSpec(nonlinearity_probs={"identity": 0.5})


@pytest.mark.parametrize("field, value", [
    ("near_speech_prob", 1.5),
    ("noise_prob", -0.1),
    ("noise_prob", float("nan")),
    ("nonlinearity_probs", {"identity": 0.5, "cubic": 0.5}),
    ("nonlinearity_probs", {"identity": float("nan")}),  # a NaN sum is not "far from 1"
    ("snr_range_db", (10.0, 5.0)),
    ("far_rms", 0.0),
    ("rir_taps", True),
])
def test_spec_rejects_values_that_break_scenes(field, value):
    with pytest.raises(ConfigError) as info:
        SceneSpec(**{field: value})
    assert info.value.field == field


def test_scene_round_trip(tmp_path):
    scene = gen_scene(SPEC, seed=4)
    save_scene(scene, tmp_path, "s0004")
    loaded = load_scene(tmp_path, "s0004")
    assert loaded.seed == 4
    assert loaded.spec == SPEC
    assert loaded.ser_db == scene.ser_db
    assert loaded.nonlinearity == scene.nonlinearity
    # float32 storage: identical to within wav precision
    assert np.abs(loaded.mic - scene.mic).max() < 1e-6
    assert np.array_equal(loaded.rir, scene.rir)
    assert loaded.rir_switch is None

    changed = gen_scene(SPEC, seed=4, path_change_at=0.5)
    save_scene(changed, tmp_path, "s0004c")
    loaded = load_scene(tmp_path, "s0004c")
    switch, rir2 = loaded.rir_switch
    assert switch == changed.rir_switch[0]
    assert np.array_equal(rir2, changed.rir_switch[1])
    cfg = OlsConfig(512)
    assert np.array_equal(loaded.path_spectrum(cfg, which=1),
                          changed.path_spectrum(cfg, which=1))

    # a sidecar set written before the switch was stored still loads
    np.savez(tmp_path / "s0004c.rir.npz", rir=changed.rir)
    assert load_scene(tmp_path, "s0004c").rir_switch is None


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1000) * 0.1
    path = tmp_path / "x.wav"
    write_wav(path, x, 16000)
    rate, back = read_wav(path, expect_rate=16000)
    assert rate == 16000
    assert np.abs(back - x).max() < 1e-6
    with pytest.raises(ConfigError):
        read_wav(path, expect_rate=8000)

    # integer PCM is rescaled to [-1, 1) by its full-scale value
    for dtype, full_scale, zero in ((np.int16, 2**15, 0), (np.int32, 2**31, 0),
                                    (np.uint8, 2**7, 128)):
        pcm = np.array([-full_scale, -full_scale // 2, 0, full_scale // 2, full_scale - 1])
        wavfile.write(path, 16000, (pcm + zero).astype(dtype))
        _, back = read_wav(path)
        assert back.dtype == float
        np.testing.assert_array_equal(back, pcm / full_scale)


def test_range_fields_given_as_lists_are_stored_as_tuples():
    spec = desk_spec(rt60_range=[0.02, 0.06], ser_range_db=[-6.0, 6.0], snr_range_db=[5, 25])
    assert spec == desk_spec()
    assert all(isinstance(getattr(spec, name), tuple) for name in RANGE_FIELDS)


def test_spec_round_trips_through_its_json_form():
    spec = desk_spec(duration=1.5, ser_range_db=(-3.0, 3.0), nonlinearity_probs={"tanh": 1.0})
    assert SceneSpec(**json.loads(json.dumps(spec_to_json(spec)))) == spec
    assert SceneSpec(**json.loads(json.dumps(spec_to_json(SceneSpec())))) == SceneSpec()
