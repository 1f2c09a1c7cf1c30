"""Overlap-save frequency-domain filtering primitives.

Spectra are full K-bin complex vectors.  A valid filter spectrum is the K-point
DFT of an impulse response whose last R taps vanish; ``project_filter`` enforces
that support constraint.  Each hop consumes R fresh input samples (the analysis
window is the last K samples of the input stream) and emits R output samples,
the alias-free tail of the circular convolution.

``filter_gradient`` returns the gradient of L = ||e||^2 with respect to the
conjugate filter spectrum.  A central finite-difference estimate over the real
and imaginary parts of w matches it as (fd_re + 1j * fd_im) / 2.

All functions accept arbitrary leading batch axes.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "OlsConfig",
    "dft",
    "idft",
    "project_filter",
    "enforce_conjugate_symmetry",
    "hop_spectrum",
    "spectrum_to_hop",
    "ols_apply",
    "af_error",
    "filter_gradient",
    "hop_forward",
    "feature_spectra",
    "stream_frame",
    "stream_hops",
]


@dataclass(frozen=True)
class OlsConfig:
    """Geometry of the overlap-save loop: K-point DFT, hop of R = K/2 samples."""

    dft_size: int
    _: KW_ONLY
    sample_rate: int = 16000

    def __post_init__(self):
        k = self.dft_size
        if k < 4 or (k & (k - 1)) != 0:
            raise ValueError(f"dft_size must be a power of two >= 4, got {k}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @classmethod
    def for_dft_size(cls, dft_size, sample_rate=16000):
        return cls(dft_size, sample_rate=sample_rate)

    @property
    def hop(self):
        """Fresh samples per hop, R = K/2."""
        return self.dft_size // 2

    @property
    def taps(self):
        """Usable time-domain filter length, K - R."""
        return self.dft_size - self.hop

    @property
    def frame_seconds(self):
        return self.hop / self.sample_rate


def _check_len(x, n, name):
    if x.shape[-1] != n:
        raise ValueError(f"{name} must have last axis {n}, got {x.shape[-1]}")


def dft(x, size=None):
    """DFT along the last axis.  ``size`` asserts the expected length."""
    x = np.asarray(x)
    if size is not None:
        _check_len(x, size, "dft input")
    return np.fft.fft(x, axis=-1)


def idft(x, size=None):
    """Inverse DFT along the last axis."""
    x = np.asarray(x)
    if size is not None:
        _check_len(x, size, "idft input")
    return np.fft.ifft(x, axis=-1)


def project_filter(w, taps=None):
    """Zero the last K - taps time-domain taps of a filter spectrum.

    Defaults to taps = K/2, the overlap-save support constraint.  Idempotent,
    linear, and Hermitian as an operator on C^K.
    """
    w = np.asarray(w, dtype=complex)
    k = w.shape[-1]
    if taps is None:
        taps = k // 2
    if not 0 < taps <= k:
        raise ValueError(f"taps must lie in [1, {k}], got {taps}")
    wt = np.fft.ifft(w, axis=-1)
    wt[..., taps:] = 0.0
    return np.fft.fft(wt, axis=-1)


def enforce_conjugate_symmetry(w):
    """Project a spectrum onto DFTs of real signals: w[k] <- conj part-average.

    Equivalent to taking the real part of the impulse response.
    """
    w = np.asarray(w, dtype=complex)
    k = w.shape[-1]
    flip = (-np.arange(k)) % k
    return 0.5 * (w + np.conj(w[..., flip]))


def hop_spectrum(hop_samples, cfg):
    """DFT of one R-sample hop placed in the tail of a K frame (leading zeros)."""
    hop_samples = np.asarray(hop_samples)
    _check_len(hop_samples, cfg.hop, "hop")
    frame = np.zeros(hop_samples.shape[:-1] + (cfg.dft_size,), dtype=hop_samples.dtype)
    frame[..., cfg.dft_size - cfg.hop :] = hop_samples
    return np.fft.fft(frame, axis=-1)


def spectrum_to_hop(spec, cfg):
    """Alias-free tail of a frame spectrum: the real R-sample hop it encodes."""
    spec = np.asarray(spec)
    _check_len(spec, cfg.dft_size, "spectrum")
    return np.fft.ifft(spec, axis=-1)[..., cfg.hop :].real


def _filter_frame(cfg, w, u_frame):
    """(u_freq, y_freq, y_hop) of one K-sample frame filtered through w."""
    u_frame = np.asarray(u_frame)
    _check_len(u_frame, cfg.dft_size, "input frame")
    w = np.asarray(w)
    _check_len(w, cfg.dft_size, "filter")
    if not np.all(np.isfinite(u_frame)):
        raise NumericError("non-finite input frame")
    u_freq = np.fft.fft(u_frame, axis=-1)
    y_freq = u_freq * project_filter(w, cfg.taps)
    y_hop = np.fft.ifft(y_freq, axis=-1)[..., cfg.hop :].real
    return u_freq, y_freq, y_hop


def ols_apply(cfg, w, u_frame):
    """Filter one K-sample input frame through spectrum w.

    Returns (y_hop, y_freq): the R valid output samples and the full output
    spectrum diag(U) . project(w).  The input frame is the last K samples of
    the far-end stream, so consecutive calls overlap by R samples.
    """
    _, y_freq, y_hop = _filter_frame(cfg, w, u_frame)
    return y_hop, y_freq


def af_error(d_hop, y_hop, cfg):
    """Error hop e = d - y and its zero-padded frame spectrum."""
    d_hop = np.asarray(d_hop)
    y_hop = np.asarray(y_hop)
    _check_len(d_hop, cfg.hop, "desired hop")
    _check_len(y_hop, cfg.hop, "output hop")
    e_hop = d_hop - y_hop
    return e_hop, hop_spectrum(e_hop, cfg)


def hop_forward(cfg, w, u_frame, d_hop):
    """One hop: filter the frame through w and score it against d, each FFT once.

    Returns (y_hop, e_hop, u_freq, y_freq, e_freq).
    """
    u_freq, y_freq, y_hop = _filter_frame(cfg, w, u_frame)
    e_hop, e_freq = af_error(d_hop, y_hop, cfg)
    return y_hop, e_hop, u_freq, y_freq, e_freq


def _gradient(u_freq, e_freq, cfg):
    return -project_filter(np.conj(u_freq) * (e_freq / cfg.dft_size), cfg.taps)


def filter_gradient(u_freq, e_hop, cfg):
    """Gradient of ||e||^2 w.r.t. the conjugate filter spectrum.

    Equals -Z_w diag(u)^H Z_y^H e with Z_y^H e computed as fft of the
    zero-padded hop over K.  Independent of the constrained-away filter taps.
    """
    u_freq = np.asarray(u_freq)
    _check_len(u_freq, cfg.dft_size, "input spectrum")
    e_hop = np.asarray(e_hop)
    _check_len(e_hop, cfg.hop, "error hop")
    return _gradient(u_freq, hop_spectrum(e_hop, cfg), cfg)


def feature_spectra(cfg, d_hop, u_freq, y_freq, e_freq):
    """(gradient, far end, desired, error, output) spectra of a hop, as in
    ``optimizer.FEATURE_CHANNELS``; the gradient reuses ``hop_forward``'s e_freq."""
    return (_gradient(u_freq, e_freq, cfg), u_freq, hop_spectrum(d_hop, cfg),
            e_freq, y_freq)


def stream_frame(x, cfg, hop_index):
    """Frame (..., K) of the last K samples of x (..., N) up to (hop_index + 1) * R.

    Zero-padded at the stream head and, for a partial final hop, at the tail.
    """
    x = np.asarray(x)
    k, r = cfg.dft_size, cfg.hop
    stop = (hop_index + 1) * r
    lo = max(0, stop - k)
    avail = x[..., lo:stop]
    frame = np.zeros(x.shape[:-1] + (k,), dtype=x.dtype)
    head = k - (stop - lo)
    frame[..., head : head + avail.shape[-1]] = avail
    return frame


def stream_hops(x, cfg, pad_tail=False):
    """Yield (u_frame, hop_slice) pairs walking a 1-D signal in R-sample hops.

    Each frame is the last K samples ending at the hop boundary, zero-padded
    at the stream head.  ``pad_tail`` zero-fills a final partial hop instead of
    dropping it.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("stream must be 1-D")
    r = cfg.hop
    hops = -(-x.size // r) if pad_tail else x.size // r
    for t in range(hops):
        yield stream_frame(x, cfg, t), slice(t * r, min((t + 1) * r, x.size))
