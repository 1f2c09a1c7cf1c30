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

The module needs NumPy only: the echo is an FFT convolution sized like
SciPy's ``fftconvolve`` (and bit-identical to it), and scenes persist as mono
float32 WAV files written and read with ``struct`` and ``np.fromfile``.
A spec's JSON form is ``spec_to_json``'s; ``SceneSpec(**d)`` reads it back,
turning the lists of its ``RANGE_FIELDS`` into tuples.  ``PRESETS`` maps each
preset name to the function that builds its spec from keyword overrides.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, is_finite_real, is_int, require

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
    "PRESETS",
]


NONLINEARITY_KINDS = ("identity", "hardclip", "tanh")
_SIDECAR_SCHEMA = 1  # the sidecar format save_scene writes and load_scene reads


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


RANGE_FIELDS = ("rt60_range", "ser_range_db", "snr_range_db")  # (lo, hi) tuples


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
        for name in RANGE_FIELDS:
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))

        def check(name, ok, expected):
            value = getattr(self, name)
            require(ok(value), name, f"expected {expected}, got {value!r}")

        def count(n):
            return is_int(n) and n >= 1

        def span(r):
            return (isinstance(r, tuple) and len(r) == 2
                    and all(map(is_finite_real, r)) and r[0] <= r[1])

        def probability(p):
            return is_finite_real(p) and 0.0 <= p <= 1.0

        def kinds(d):
            return (isinstance(d, dict) and set(d) <= set(NONLINEARITY_KINDS)
                    and all(map(probability, d.values())) and abs(sum(d.values()) - 1.0) <= 1e-9)

        check("sample_rate", count, "an integer >= 1")
        check("rir_taps", count, "an integer >= 1")
        check("duration", lambda s: is_finite_real(s) and is_finite_real(s * self.sample_rate)
              and self.num_samples >= 1, f"a finite time of >= 1 sample at {self.sample_rate} Hz")
        for name in RANGE_FIELDS:
            check(name, span, "two finite numbers lo <= hi")
        for name in ("near_speech_prob", "noise_prob"):
            check(name, probability, "a probability in [0, 1]")
        check("nonlinearity_probs", kinds, f"probabilities of {NONLINEARITY_KINDS} summing to 1")
        check("far_rms", lambda v: is_finite_real(v) and v > 0, "a finite number > 0")

    @property
    def num_samples(self):
        return int(round(self.duration * self.sample_rate))


def desk_spec(**overrides):
    """Small-scale preset: short RIR fully representable at dft_size 512."""
    base = dict(rir_taps=256, rt60_range=(0.02, 0.06))
    base.update(overrides)
    return SceneSpec(**base)


PRESETS = {"desk": desk_spec, "default": SceneSpec}  # name -> spec(**overrides)


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
    noise), and silent segments of 80-400 ms, each at least one sample long.
    """
    out = np.zeros(n)
    pos = 0
    while pos < n:
        seg = max(int(rng.uniform(0.08, 0.4) * sample_rate), 1)
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
    return Nonlinearity("tanh", float(rng.uniform(1.0, 4.0)))  # SceneSpec allows no other kind


def _fast_len(n):
    """Smallest 5-smooth length 2^a 3^b 5^c >= n, the real-input FFT sizes that are fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fftconvolve(a, b):
    """Full linear convolution of two 1-D real arrays, as ``scipy.signal.fftconvolve``."""
    if a.size == 1 or b.size == 1:  # fftconvolve multiplies instead of transforming
        return a * b
    n = a.size + b.size - 1
    size = _fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


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
    echo = _fftconvolve(driven, rir)[:n]

    rir_switch = None
    if path_change_at is not None:
        rir2 = exp_decay_rir(rng, spec.rir_taps, float(rng.uniform(*spec.rt60_range)),
                             spec.sample_rate)
        echo2 = _fftconvolve(driven, rir2)[:n]
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


# WAVE format tags; an extensible fmt chunk names PCM or float by a GUID
# that ends in this tail (RFC 2361), stored little- or big-endian.
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}


def write_wav(path, signal, sample_rate):
    """Mono float32 WAV: RIFF header, 18-byte IEEE-float ``fmt `` chunk, ``fact``, ``data``."""
    data = np.ascontiguousarray(signal, dtype="<f4")
    if data.ndim != 1:
        raise ValueError(f"expected a mono signal, got shape {data.shape}")
    if data.nbytes > 0xFFFFFFFF - 50:
        raise OSError(f"{path}: {data.size} samples do not fit a RIFF WAV file")
    header = struct.pack("<4sI4s4sIHHIIHHH4sII4sI",
                         b"RIFF", 50 + data.nbytes, b"WAVE",
                         b"fmt ", 18, _IEEE_FLOAT, 1, sample_rate, 4 * sample_rate, 4, 32, 0,
                         b"fact", 4, data.size,
                         b"data", data.nbytes)
    with open(path, "wb") as f:
        f.write(header)
        f.write(data)


def _read_fmt(body, order):
    """(format tag, channels, rate, sample width in bytes, sample dtype) of a ``fmt `` chunk."""
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack(order + "HHIIHH",
                                                                      body[:16])
    if tag == _EXTENSIBLE and len(body) >= 18:
        if struct.unpack(order + "H", body[16:18])[0] < 22 or len(body) < 40:
            raise ValueError("extensible fmt chunk too short")
        if body[28:40] == _GUID_TAIL[order]:
            tag = struct.unpack(order + "I", body[24:28])[0]
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"unsupported format tag {tag:#06x} (PCM and IEEE float only)")
    if channels == 0 or block_align % channels:
        raise ValueError(f"{channels} channels in blocks of {block_align} bytes")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(f"byte rate {byte_rate} is not {rate} Hz x {block_align} bytes")
    width = block_align // channels
    if tag == _PCM and (width == 1 and 0 < bits <= 8 or 2 <= width <= 4 and 8 < bits <= 8 * width):
        dtype = "u1" if width in (1, 3) else f"{order}i{width}"  # 24-bit reads as bytes
    elif tag == _IEEE_FLOAT and bits in (32, 64) and bits == 8 * width:
        dtype = f"{order}f{width}"
    else:
        kind = "integer" if tag == _PCM else "floating-point"
        raise ValueError(f"unsupported sample format: {bits}-bit {kind} in {width} bytes")
    return tag, channels, rate, width, np.dtype(dtype)


def read_wav(path, expect_rate=None):
    """(sample rate, float64 samples) of a mono WAV file.

    Reads RIFF (little-endian) and RIFX (big-endian) files whose plain or
    WAVE_FORMAT_EXTENSIBLE ``fmt `` chunk declares integer PCM (8-bit unsigned;
    16-, 24- or 32-bit signed containers, which may hold fewer valid bits) or
    IEEE float at 32 or 64 bits.  PCM is rescaled to [-1, 1) by its container's
    full scale.  Other chunks are skipped.  A file that is none of these, is
    cut short or holds a non-finite float sample raises OSError naming it;
    another sample rate than ``expect_rate``, or more than one channel, raises
    ConfigError.
    """
    with open(path, "rb") as f:
        try:
            riff = f.read(12)
            if len(riff) < 12 or riff[:4] not in (b"RIFF", b"RIFX") or riff[8:] != b"WAVE":
                raise ValueError(f"starts {riff!r}, not a RIFF or RIFX WAVE header")
            order = ">" if riff[:4] == b"RIFX" else "<"
            total = os.fstat(f.fileno()).st_size
            fmt = None
            while True:
                head = f.read(8)
                if len(head) < 8:
                    raise ValueError("no data chunk" if fmt else "no fmt chunk")
                chunk, size = struct.unpack(order + "4sI", head)
                if chunk in (b"fmt ", b"data") and f.tell() + size > total:
                    raise ValueError(f"{chunk.decode()} chunk declares {size} bytes, "
                                     f"holds {total - f.tell()}")
                if chunk == b"data":
                    break
                if chunk == b"fmt ":
                    fmt = _read_fmt(f.read(size), order)
                else:
                    f.seek(size, os.SEEK_CUR)
                f.seek(size % 2, os.SEEK_CUR)  # chunks are padded to an even size
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
        except (ValueError, struct.error) as exc:
            raise OSError(f"{path}: not a readable WAV file: {exc}") from exc
        tag, channels, rate, width, dtype = fmt
        if expect_rate is not None and rate != expect_rate:
            raise ConfigError("sample_rate", f"{path}: expected {expect_rate} Hz, got {rate}")
        if channels != 1:
            raise ConfigError("wav", f"{path}: expected mono audio")
        count = size // width
        data = np.fromfile(f, dtype=dtype, count=count * width // dtype.itemsize)
    if tag == _IEEE_FLOAT:
        samples = np.asarray(data, dtype=float)
        nonfinite = np.flatnonzero(~np.isfinite(samples))
        if nonfinite.size:
            raise OSError(f"{path}: {nonfinite.size} non-finite samples, the first "
                          f"({samples[nonfinite[0]]}) at {nonfinite[0]}")
        return rate, samples
    if width == 1:
        return rate, (data - 128.0) / 128.0
    if width == 3:  # left-justified in an int32, so it scales like 32-bit PCM
        wide = np.zeros((count, 4), dtype="u1")
        (wide[:, 1:] if order == "<" else wide[:, :3])[...] = data.reshape(count, 3)
        data = wide.view(order + "i4")[:, 0]
    return rate, data / float(2 ** (8 * data.itemsize - 1))


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
        "schema": _SIDECAR_SCHEMA,
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
    """The JSON form of ``spec``; ``SceneSpec(**spec_to_json(spec)) == spec``."""
    d = asdict(spec)
    for key in RANGE_FIELDS:
        d[key] = list(d[key])
    return d


def load_scene(directory, stem):
    """Rebuild a scene from save_scene output (regenerates nothing).

    A sidecar or echo-path file that does not parse, a sidecar ``save_scene``
    could not have written (schema, seed, levels, nonlinearity), a WAV that
    does not match the sidecar (not mono, another sample rate or length) or
    holds a non-finite sample, or a mic WAV whose samples are not echo + near
    + noise to float32 rounding raises an OSError naming it.  ``Scene.mic``
    stays the sum of the components.
    """
    directory = Path(directory)
    sidecar = directory / f"{stem}.json"
    try:
        meta = json.loads(sidecar.read_text())
        require(is_int(meta["schema"]) and meta["schema"] == _SIDECAR_SCHEMA, "schema",
                f"expected {_SIDECAR_SCHEMA}, got {meta['schema']!r}")
        spec = SceneSpec(**meta["spec"])
        nl = Nonlinearity(meta["nonlinearity"]["kind"], meta["nonlinearity"]["amount"])
        seed, ser_db, snr_db = meta["seed"], meta["ser_db"], meta["snr_db"]
        require(is_int(seed) and seed >= 0, "seed", f"expected an integer >= 0, got {seed!r}")
        for name, value in (("ser_db", ser_db), ("snr_db", snr_db),
                            ("nonlinearity.amount", nl.amount)):
            require(is_finite_real(value), name, f"expected a finite number, got {value!r}")
        require(nl.kind in NONLINEARITY_KINDS, "nonlinearity",
                f"expected one of {NONLINEARITY_KINDS}, got {nl.kind!r}")
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
        if signals[name].size != spec.num_samples:
            raise OSError(f"{path}: {signals[name].size} samples, but its sidecar "
                          f"{sidecar.name} gives {spec.num_samples}")
    parts = [signals[name] for name in ("echo", "near", "noise")]
    # each of the four files rounds to float32 once: 2^-24 relative apiece, 2x margin
    bad = np.abs(signals["mic"] - sum(parts)) > 2.0**-22 * sum(np.abs(x) for x in parts)
    if bad.any():
        raise OSError(f"{directory / f'{stem}.mic.wav'}: {bad.sum()} samples are not "
                      f"echo + near + noise to float32 rounding, the first at "
                      f"{bad.argmax()}")
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
