"""Synthetic echo scenes: far-end talk, room echo, near-end speech and noise.

A scene is fully determined by (spec, seed).  The far-end signal is a speech
surrogate (amplitude-modulated pink noise alternating voiced, unvoiced, and
pause segments), the echo path an exponentially decaying random impulse
response, and the microphone picks up the echo of an optionally nonlinear
loudspeaker plus intermittent near-end speech and stationary noise:

    mic = nonlinearity(far_end) * rir  +  near_speech  +  near_noise

Levels are drawn per scene: the speech-to-echo ratio (SER) measures near
speech against the echo, the echo-to-noise ratio (SNR) the echo against the
noise floor.
"""

from __future__ import annotations

import json
import struct
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import fftconvolve

from .errors import ConfigError

__all__ = [
    "Nonlinearity",
    "SceneSpec",
    "Scene",
    "gen_scene",
    "desk_spec",
    "save_scene",
    "load_scene",
    "write_wav",
    "read_wav",
    "spec_to_json",
    "spec_from_json",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Loudspeaker model applied to the far-end signal before the echo path."""

    kind: str = "identity"
    amount: float = 0.0

    def apply(self, x):
        if self.kind == "identity":
            return x
        if self.kind == "hardclip":
            level = self.amount * np.max(np.abs(x))
            return np.clip(x, -level, level)
        if self.kind == "tanh":
            return np.tanh(self.amount * x) / self.amount
        raise ConfigError("nonlinearity", f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Distribution a scene is drawn from."""

    sample_rate: int = 16000
    duration: float = 10.0
    rir_taps: int = 2048
    rt60_range: tuple = (0.08, 0.35)
    ser_range_db: tuple = (-6.0, 6.0)
    snr_range_db: tuple = (5.0, 25.0)
    near_speech_prob: float = 0.8
    noise_prob: float = 1.0
    nonlinearity_probs: dict = field(
        default_factory=lambda: {"identity": 0.6, "hardclip": 0.2, "tanh": 0.2}
    )
    far_rms: float = 0.1

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate", "must be positive")
        if self.duration <= 0:
            raise ConfigError("duration", "must be positive")
        if self.rir_taps < 1:
            raise ConfigError("rir_taps", "must be at least 1")
        total = sum(self.nonlinearity_probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError("nonlinearity_probs", f"probabilities sum to {total}, not 1")

    @property
    def num_samples(self):
        return int(round(self.duration * self.sample_rate))


def desk_spec(**overrides):
    """Small-scale preset: short RIR fully representable at dft_size 512."""
    base = dict(rir_taps=256, rt60_range=(0.02, 0.06))
    base.update(overrides)
    return SceneSpec(**base)


@dataclass
class Scene:
    """One drawn scene; mic == echo + near_speech + near_noise exactly."""

    spec: SceneSpec
    seed: int
    far_end: np.ndarray
    echo: np.ndarray
    near_speech: np.ndarray
    near_noise: np.ndarray
    rir: np.ndarray
    nonlinearity: Nonlinearity
    ser_db: float
    snr_db: float
    rir_switch: tuple = None  # (sample index, second rir) for path-change scenes

    @property
    def mic(self):
        return self.echo + self.near_speech + self.near_noise

    def path_spectrum(self, cfg, which=0):
        """DFT of the (possibly truncated) echo path padded to dft_size."""
        rir = self.rir if which == 0 or self.rir_switch is None else self.rir_switch[1]
        taps = min(rir.size, cfg.hop)
        padded = np.zeros(cfg.dft_size)
        padded[:taps] = rir[:taps]
        return np.fft.fft(padded)


def pink_noise(rng, n):
    """1/f-shaped gaussian noise, unit RMS."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.arange(spectrum.size, dtype=float)
    freqs[0] = 1.0
    spectrum /= np.sqrt(freqs)
    spectrum[0] = 0.0
    out = np.fft.irfft(spectrum, n)
    return out / max(np.sqrt(np.mean(out**2)), 1e-12)


def speech_surrogate(rng, n, sample_rate):
    """Speech-shaped test signal with natural pauses.

    Alternates voiced (slow-modulated pink noise), unvoiced (quiet white
    noise), and silent segments of 80-400 ms.
    """
    out = np.zeros(n)
    pos = 0
    while pos < n:
        seg = int(rng.uniform(0.08, 0.4) * sample_rate)
        seg = min(seg, n - pos)
        kind = rng.choice(3, p=[0.5, 0.25, 0.25])
        if kind == 0:
            burst = pink_noise(rng, seg)
            mod_hz = rng.uniform(2.0, 6.0)
            t = np.arange(seg) / sample_rate
            envelope = 0.4 + 0.6 * np.abs(np.sin(2.0 * np.pi * mod_hz * t + rng.uniform(0, np.pi)))
            ramp = min(seg // 4, int(0.01 * sample_rate) + 1)
            envelope[:ramp] *= np.linspace(0.0, 1.0, ramp)
            envelope[seg - ramp :] *= np.linspace(1.0, 0.0, ramp)
            out[pos : pos + seg] = rng.uniform(0.5, 1.0) * envelope * burst
        elif kind == 1:
            out[pos : pos + seg] = 0.15 * rng.uniform(0.5, 1.0) * rng.standard_normal(seg)
        pos += seg
    return out


def exp_decay_rir(rng, taps, rt60, sample_rate):
    """Exponentially decaying white-noise impulse response, unit energy."""
    tau = rt60 * sample_rate / (3.0 * np.log(10.0))
    delay = int(rng.integers(0, max(1, taps // 16)))
    h = rng.standard_normal(taps) * np.exp(-np.arange(taps) / max(tau, 1.0))
    h[:delay] = 0.0
    norm = np.linalg.norm(h)
    if norm <= 0.0:
        h[delay] = 1.0
        norm = 1.0
    return h / norm


def _active_power(x):
    active = x[x != 0.0]
    if active.size == 0:
        return 0.0
    return float(np.mean(active**2))


def _draw_nonlinearity(rng, probs):
    kinds = sorted(probs)
    weights = np.array([probs[k] for k in kinds])
    kind = kinds[int(rng.choice(len(kinds), p=weights))]
    if kind == "identity":
        return Nonlinearity()
    if kind == "hardclip":
        return Nonlinearity("hardclip", float(rng.uniform(0.5, 0.9)))
    if kind == "tanh":
        return Nonlinearity("tanh", float(rng.uniform(1.0, 4.0)))
    raise ConfigError("nonlinearity_probs", f"unknown kind {kind!r}")


def gen_scene(spec, seed, far_end=None, path_change_at=None):
    """Draw one scene.  Deterministic in (spec, seed, path_change_at).

    ``far_end`` substitutes recorded audio for the surrogate.
    ``path_change_at`` (seconds) switches to a second echo path mid-scene.
    """
    rng = np.random.default_rng(seed)
    n = spec.num_samples

    if far_end is None:
        far_end = speech_surrogate(rng, n, spec.sample_rate)
    else:
        far_end = np.asarray(far_end, dtype=float)
        if far_end.size != n:
            raise ConfigError("far_end", f"expected {n} samples, got {far_end.size}")
    power = _active_power(far_end)
    if power > 0.0:
        far_end = far_end * (spec.far_rms / np.sqrt(power))

    rt60 = float(rng.uniform(*spec.rt60_range))
    rir = exp_decay_rir(rng, spec.rir_taps, rt60, spec.sample_rate)
    nonlinearity = _draw_nonlinearity(rng, spec.nonlinearity_probs)
    driven = nonlinearity.apply(far_end)
    echo = fftconvolve(driven, rir)[:n]

    rir_switch = None
    if path_change_at is not None:
        rir2 = exp_decay_rir(rng, spec.rir_taps, float(rng.uniform(*spec.rt60_range)),
                             spec.sample_rate)
        echo2 = fftconvolve(driven, rir2)[:n]
        switch = int(path_change_at * spec.sample_rate)
        if not 0 < switch < n:
            raise ConfigError("path_change_at", "must fall inside the scene")
        echo = np.concatenate([echo[:switch], echo2[switch:]])
        rir_switch = (switch, rir2)

    ser_db = float(rng.uniform(*spec.ser_range_db))
    snr_db = float(rng.uniform(*spec.snr_range_db))
    echo_power = float(np.mean(echo**2))

    near_speech = np.zeros(n)
    if rng.random() < spec.near_speech_prob and echo_power > 0.0:
        near_speech = speech_surrogate(rng, n, spec.sample_rate)
        sp = _active_power(near_speech)
        if sp > 0.0:
            near_speech *= np.sqrt(echo_power * 10.0 ** (ser_db / 10.0) / sp)

    near_noise = np.zeros(n)
    if rng.random() < spec.noise_prob and echo_power > 0.0:
        near_noise = rng.standard_normal(n)
        near_noise *= np.sqrt(echo_power * 10.0 ** (-snr_db / 10.0))

    return Scene(
        spec=spec,
        seed=seed,
        far_end=far_end,
        echo=echo,
        near_speech=near_speech,
        near_noise=near_noise,
        rir=rir,
        nonlinearity=nonlinearity,
        ser_db=ser_db,
        snr_db=snr_db,
        rir_switch=rir_switch,
    )


def write_wav(path, signal, sample_rate):
    """Mono float32 WAV."""
    wavfile.write(path, sample_rate, np.asarray(signal, dtype=np.float32))


def read_wav(path, expect_rate=None):
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:
        raise OSError(f"{path}: not a readable WAV file: {exc}") from exc
    if expect_rate is not None and rate != expect_rate:
        raise ConfigError("sample_rate", f"{path}: expected {expect_rate} Hz, got {rate}")
    if data.ndim != 1:
        raise ConfigError("wav", f"{path}: expected mono audio")
    if data.dtype == np.int16:
        data = data / 32768.0
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data - 128.0) / 128.0
    return rate, np.asarray(data, dtype=float)


def save_scene(scene, directory, stem):
    """Write WAV components plus a JSON sidecar; returns the sidecar path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rate = scene.spec.sample_rate
    for name, signal in [
        ("farend", scene.far_end),
        ("mic", scene.mic),
        ("echo", scene.echo),
        ("near", scene.near_speech),
        ("noise", scene.near_noise),
    ]:
        write_wav(directory / f"{stem}.{name}.wav", signal, rate)
    paths = {"rir": scene.rir}
    if scene.rir_switch is not None:
        paths["switch_at"], paths["rir_after"] = scene.rir_switch
    np.savez(directory / f"{stem}.rir.npz", **paths)
    meta = {
        "schema": 1,
        "seed": scene.seed,
        "spec": spec_to_json(scene.spec),
        "ser_db": scene.ser_db,
        "snr_db": scene.snr_db,
        "nonlinearity": {"kind": scene.nonlinearity.kind, "amount": scene.nonlinearity.amount},
    }
    sidecar = directory / f"{stem}.json"
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar


def spec_to_json(spec):
    d = asdict(spec)
    for key in ("rt60_range", "ser_range_db", "snr_range_db"):
        d[key] = list(d[key])
    return d


def spec_from_json(d):
    d = dict(d)
    for key in ("rt60_range", "ser_range_db", "snr_range_db"):
        if key in d:
            d[key] = tuple(d[key])
    return SceneSpec(**d)


def load_scene(directory, stem):
    """Rebuild a scene from save_scene output (regenerates nothing).

    A sidecar or echo-path file that does not parse, or a WAV that does not
    match the sidecar (not mono, another sample rate), raises an OSError
    naming it.
    """
    directory = Path(directory)
    sidecar = directory / f"{stem}.json"
    try:
        meta = json.loads(sidecar.read_text())
        spec = spec_from_json(meta["spec"])
        nl = Nonlinearity(meta["nonlinearity"]["kind"], meta["nonlinearity"]["amount"])
        seed, ser_db, snr_db = meta["seed"], meta["ser_db"], meta["snr_db"]
    except (KeyError, TypeError, ValueError) as exc:  # JSON and ConfigErrors are ValueErrors
        raise OSError(f"{sidecar}: not a scene sidecar: {exc!r}") from exc
    rate = spec.sample_rate
    signals = {}
    for name in ("farend", "mic", "echo", "near", "noise"):
        path = directory / f"{stem}.{name}.wav"
        try:
            _, signals[name] = read_wav(path, expect_rate=rate)
        except ConfigError as exc:  # a corrupt scene file, not a bad option
            raise OSError(f"{exc.message}, unlike its sidecar {sidecar.name}") from exc
    paths_file = directory / f"{stem}.rir.npz"
    try:
        with np.load(paths_file) as paths:
            rir = paths["rir"]
            rir_switch = None  # absent for scenes without a path change and in older files
            if "rir_after" in paths:
                rir_switch = (int(paths["switch_at"]), paths["rir_after"])
    except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise OSError(f"{paths_file}: not a scene echo-path file: {exc!r}") from exc
    return Scene(
        spec=spec,
        seed=seed,
        far_end=signals["farend"],
        echo=signals["echo"],
        near_speech=signals["near"],
        near_noise=signals["noise"],
        rir=rir,
        nonlinearity=nl,
        ser_db=ser_db,
        snr_db=snr_db,
        rir_switch=rir_switch,
    )
