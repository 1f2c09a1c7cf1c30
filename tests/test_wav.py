"""The NumPy WAV codec against SciPy's, and the package's SciPy-free import."""

import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import aflearn
from aflearn.cli import main
from aflearn.scenes import read_wav, write_wav

PCM, IEEE_FLOAT, ALAW = 1, 3, 6


def chunk(cid, body, order="<"):
    """One RIFF chunk, padded to an even size."""
    return cid + struct.pack(order + "I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_body(tag, bits, width, rate=16000, order="<", extensible=False):
    """A plain 16-byte mono ``fmt `` body, or a 40-byte WAVE_FORMAT_EXTENSIBLE one."""
    body = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, 1, rate,
                       rate * width, width, bits)
    if extensible:  # cbSize, valid bits, channel mask, then the sub-format GUID
        guid = struct.pack(order + "IHH", tag, 0, 0x10) + bytes.fromhex("800000aa00389b71")
        body += struct.pack(order + "HHI", 22, bits, 0) + guid
    return body


def wav_bytes(chunks, order="<"):
    """A RIFF (or, big-endian, RIFX) WAVE file holding ``chunks``."""
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFX" if order == ">" else b"RIFF") + struct.pack(order + "I", len(body)) + body


def pcm16():
    """A well-formed 16-bit PCM file of 100 samples."""
    data = np.random.default_rng(0).integers(-2**15, 2**15, 100).astype("<i2")
    return wav_bytes([chunk(b"fmt ", fmt_body(PCM, 16, 2)), chunk(b"data", data.tobytes())])


def _rf64():
    """A well-formed RF64 file: 64-bit sizes in a ds64 chunk, 0xFFFFFFFF in the 32-bit ones."""
    data = np.zeros(100, dtype="<i2").tobytes()
    tail = chunk(b"fmt ", fmt_body(PCM, 16, 2)) + b"data\xff\xff\xff\xff" + data
    ds64 = struct.pack("<QQQI", 4 + 36 + len(tail), len(data), 100, 0)
    return b"RF64\xff\xff\xff\xffWAVE" + chunk(b"ds64", ds64) + tail


# Files read_wav must refuse with an OSError that names them.
MALFORMED = {
    "not-riff": lambda: b"not a wav file",
    "header-cut-short": lambda: pcm16()[:30],
    "data-shorter-than-declared": lambda: pcm16()[:-10],
    "no-fmt-chunk": lambda: wav_bytes([chunk(b"data", bytes(200))]),
    "no-data-chunk": lambda: wav_bytes([chunk(b"fmt ", fmt_body(PCM, 16, 2))]),
    "a-law": lambda: wav_bytes([chunk(b"fmt ", fmt_body(ALAW, 8, 1)), chunk(b"data", bytes(100))]),
    "pcm-64-bit": lambda: wav_bytes([chunk(b"fmt ", fmt_body(PCM, 64, 8)),
                                     chunk(b"data", bytes(800))]),
    "float-16-bit": lambda: wav_bytes([chunk(b"fmt ", fmt_body(IEEE_FLOAT, 16, 2)),
                                       chunk(b"data", bytes(200))]),
    "rf64": _rf64,
}


def scipy_read(path):
    """SciPy's reader, integer PCM rescaled by its full scale whatever its byte order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    if data.dtype.kind == "i" and data.dtype.itemsize in (2, 4):
        data = data / (32768.0 if data.dtype.itemsize == 2 else 2147483648.0)
    elif data.dtype.kind == "u":
        data = (data - 128.0) / 128.0
    return rate, np.asarray(data, dtype=float)


# (format tag, bits per sample, container bytes): every sample layout read_wav accepts
LAYOUTS = [(PCM, 8, 1), (PCM, 4, 1), (PCM, 16, 2), (PCM, 12, 2), (PCM, 24, 3), (PCM, 20, 3),
           (PCM, 32, 4), (PCM, 24, 4), (IEEE_FLOAT, 32, 4), (IEEE_FLOAT, 64, 8)]


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"{'pcm' if l[0] == PCM else 'float'}"
                                                          f"{l[1]}in{l[2]}")
def test_read_matches_scipy_on_every_accepted_layout(tmp_path, layout, extensible, order):
    tag, bits, width = layout
    rng = np.random.default_rng(bits * width)
    samples = 101  # odd, so 8- and 24-bit data chunks end in a pad byte
    if tag == IEEE_FLOAT:
        data = rng.standard_normal(samples).astype(f"{order}f{width}").tobytes()
    else:
        data = rng.bytes(samples * width)
    chunks = [chunk(b"LIST", b"odd", order),  # odd-sized chunks are padded and skipped
              chunk(b"fmt ", fmt_body(tag, bits, width, rate=22050, order=order,
                                      extensible=extensible), order),
              chunk(b"fact", b"\x65\0\0\0", order),
              chunk(b"data", data, order),
              chunk(b"JUNK", b"x", order)]
    path = tmp_path / "x.wav"
    path.write_bytes(wav_bytes(chunks, order))
    rate, got = read_wav(path, expect_rate=22050)
    want_rate, want = scipy_read(path)
    assert rate == want_rate == 22050
    assert got.dtype == want.dtype == np.float64 and got.shape == (samples,)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("samples", [0, 1, 1000])
def test_write_matches_scipy_bytes(tmp_path, samples):
    x = np.random.default_rng(samples).standard_normal(samples) * 0.1
    write_wav(tmp_path / "ours.wav", x, 16000)
    wavfile.write(tmp_path / "scipy.wav", 16000, x.astype(np.float32))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
    # a strided view of float32 samples writes the same bytes as a copy
    y = x.astype(np.float32)
    write_wav(tmp_path / "view.wav", np.repeat(y, 2)[::2], 16000)
    assert (tmp_path / "view.wav").read_bytes() == (tmp_path / "ours.wav").read_bytes()
    with pytest.raises(ValueError):
        write_wav(tmp_path / "stereo.wav", np.zeros((samples, 2)), 16000)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_wav_is_an_io_error(tmp_path, case, capsys):
    path = tmp_path / f"{case}.wav"
    path.write_bytes(MALFORMED[case]())
    with pytest.raises(OSError, match=re.escape(str(path))):
        read_wav(path)
    assert main(["cancel", str(path), str(path), "nlms", str(tmp_path / "out.wav")]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_sample_is_an_io_error(tmp_path, width, bad):
    data = np.zeros(100, dtype=f"<f{width}")
    data[[37, 60]] = bad
    path = tmp_path / "x.wav"
    path.write_bytes(wav_bytes([chunk(b"fmt ", fmt_body(IEEE_FLOAT, 8 * width, width)),
                                chunk(b"data", data.tobytes())]))
    with pytest.raises(OSError, match=re.escape(f"{path}: 2 non-finite samples, the first "
                                                f"({float(bad)}) at 37")):
        read_wav(path)


def test_import_loads_no_scipy():
    code = ("import sys, aflearn, aflearn.cli; "
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    src = str(Path(aflearn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
