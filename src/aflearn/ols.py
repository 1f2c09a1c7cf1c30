"""Overlap-save frequency-domain filtering primitives.

A spectrum is either a full K-bin complex vector or, for a real signal, its
K/2+1-bin half spectrum in ``rfft`` layout; K is even and K/2+1 odd, so
``project_filter`` and ``ols_apply`` tell the two apart by the spectrum's
length.  A valid filter spectrum is the DFT of an impulse response whose last
R taps vanish; ``project_filter`` enforces that support constraint and no
other.  A K-bin filter is projected on use; a half-spectrum filter must
already be projected (the classic filters keep it so with their own update).
Each hop consumes R fresh input samples (the analysis window is the last K
samples of the input stream) and emits R output samples, the alias-free tail
of the circular convolution.

There are two hop kernels, one per kind of filter.  ``hop_forward`` is the
classic filters' hop on a K/2+1-bin filter, run on ``rfft``/``irfft``.
``feature_hop`` is the learned rule's hop on a K-bin filter, and
``hop_backward`` its adjoint.  Both take the input frame's spectrum, not the
frame: it depends on the input signal only, so callers take it for a whole
block of hops in one transform over a block of ``hop_frames`` rows.  Both
score the hop in a real (..., K) error frame that the caller owns: its first
R samples stay zero, the hop writes e_hop into its last R and transforms it.

The learned hop's five feature spectra are the rows of one (..., 5, K) raw
buffer in ``layers.FEATURE_CHANNELS`` order, laid out by this module alone:
``input_rows`` fills a block's far-end and desired rows,
``feature_hop`` a hop's gradient, error and output rows, and
``hop_backward`` reads the rows that carry gradient, far end, error and
output.  Neither kernel checks shapes, but ``hop_forward`` rejects a filter
that is not a half spectrum; their callers check shapes once per session or
training window, while the public helpers (``ols_apply``, ``af_error``,
``filter_gradient``, ``hop_spectrum``) check theirs on every call.

``filter_gradient`` returns the gradient of L = ||e||^2 with respect to the
conjugate filter spectrum.  A central finite-difference estimate over the real
and imaginary parts of w matches it as (fd_re + 1j * fd_im) / 2.

All functions accept arbitrary leading batch axes.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, require
from .layers import (
    DESIRED_ROW,
    ERROR_ROW,
    FAREND_ROW,
    GRADIENT_ROW,
    OUTPUT_ROW,
    log_scale_backward,
)

__all__ = [
    "OlsConfig",
    "project_filter",
    "hermitian_spectrum",
    "hop_spectrum",
    "spectrum_to_hop",
    "ols_apply",
    "af_error",
    "filter_gradient",
    "hop_forward",
    "hop_backward",
    "feature_hop",
    "input_rows",
    "hop_frames",
]


@dataclass(frozen=True)
class OlsConfig:
    """Geometry of the overlap-save loop: K-point DFT, hop of R = K/2 samples."""

    dft_size: int
    _: KW_ONLY
    sample_rate: int = 16000

    def __post_init__(self):
        k = self.dft_size
        require(k >= 4 and (k & (k - 1)) == 0, "dft_size",
                f"must be a power of two >= 4, got {k}")
        require(self.sample_rate > 0, "sample_rate", f"must be positive, got {self.sample_rate}")

    @classmethod
    def for_dft_size(cls, dft_size, sample_rate=16000):
        return cls(dft_size, sample_rate=sample_rate)

    @property
    def hop(self):
        """Fresh samples per hop, R = K/2; also the usable filter length K - R."""
        return self.dft_size // 2

    @property
    def frame_seconds(self):
        return self.hop / self.sample_rate


def _check_len(x, n, name):
    if x.shape[-1] != n:
        raise ValueError(f"{name} must have last axis {n}, got {x.shape[-1]}")


def project_filter(w):
    """Zero the last K/2 time-domain taps of a filter spectrum.

    This is the overlap-save support constraint.  Idempotent, linear, and
    Hermitian as an operator on C^K.  A half spectrum (odd length K/2+1) is
    projected through ``irfft``/``rfft`` and so also onto the spectra of real
    responses.
    """
    w = np.asarray(w, dtype=complex)
    n = w.shape[-1]
    k = 2 * (n - 1) if n % 2 else n
    if n % 2:
        wt = np.fft.irfft(w, k, axis=-1)
        wt[..., k // 2 :] = 0.0
        return np.fft.rfft(wt, axis=-1)
    wt = np.fft.ifft(w, axis=-1)
    wt[..., k // 2 :] = 0.0
    return np.fft.fft(wt, axis=-1)


def hermitian_spectrum(half):
    """The K-bin spectrum of a real signal from its K/2+1-bin half spectrum."""
    half = np.asarray(half)
    return np.concatenate([half, np.conj(half[..., -2:0:-1])], axis=-1)


def hop_spectrum(hop_samples, cfg, out=None):
    """DFT of one R-sample hop placed in the tail of a K frame (leading zeros);
    ``out``, if given, receives it."""
    hop_samples = np.asarray(hop_samples)
    _check_len(hop_samples, cfg.hop, "hop")
    frame = np.zeros(hop_samples.shape[:-1] + (cfg.dft_size,), dtype=hop_samples.dtype)
    frame[..., cfg.dft_size - cfg.hop :] = hop_samples
    return np.fft.fft(frame, axis=-1, out=out)


def spectrum_to_hop(spec, cfg):
    """Alias-free tail of a frame spectrum: the real R-sample hop it encodes."""
    spec = np.asarray(spec)
    _check_len(spec, cfg.dft_size, "spectrum")
    return np.fft.ifft(spec, axis=-1)[..., cfg.hop :].real


def ols_apply(cfg, w, u_frame):
    """Filter one K-sample input frame through spectrum w.

    Returns (y_hop, y_freq): the R valid output samples and the output
    spectrum diag(U) . project(w), a half spectrum if w is one.  The input
    frame is the last K samples of the far-end stream, so consecutive calls
    overlap by R samples.
    """
    if not np.all(np.isfinite(u_frame)):
        raise NumericError("non-finite input frame")
    w = np.asarray(w)
    k = cfg.dft_size
    _check_len(u_frame, k, "input frame")
    if w.shape[-1] == k // 2 + 1:  # a half spectrum, taken as projected
        y_freq = np.fft.rfft(u_frame, axis=-1) * w
        return np.fft.irfft(y_freq, k, axis=-1)[..., cfg.hop :], y_freq
    if w.shape[-1] != k:
        raise ValueError(f"filter must have last axis {k} or {k // 2 + 1}, got {w.shape[-1]}")
    y_freq = np.fft.fft(u_frame, axis=-1) * project_filter(w)
    return np.fft.ifft(y_freq, axis=-1)[..., cfg.hop :].real, y_freq


def af_error(d_hop, y_hop, cfg):
    """Error hop e = d - y and its zero-padded frame spectrum."""
    d_hop = np.asarray(d_hop)
    y_hop = np.asarray(y_hop)
    _check_len(d_hop, cfg.hop, "desired hop")
    _check_len(y_hop, cfg.hop, "output hop")
    e_hop = d_hop - y_hop
    return e_hop, hop_spectrum(e_hop, cfg)


def hop_forward(cfg, w, u_freq, d_hop, e_frame):
    """One classic hop: filter the frame spectrum through w and score it against d.

    w is a projected K/2+1-bin half spectrum and u_freq the input frame's
    ``rfft``, which callers take for a block of ``hop_frames`` rows at once.
    e_frame is the caller's real (..., K) error frame: its first R samples
    must be zero, and its last R receive e_hop.  Returns (y_hop, e_hop,
    e_freq), e_freq the frame's half-spectrum ``rfft``; two real transforms,
    ``irfft`` for y_hop and ``rfft`` for e_freq.  Only w's length is checked.
    e_hop is a view of e_frame.
    """
    _check_len(w, cfg.dft_size // 2 + 1, "half-spectrum filter")
    r = cfg.hop
    y_hop = np.fft.irfft(u_freq * w, cfg.dft_size, axis=-1)[..., r:]
    e_hop = np.subtract(d_hop, y_hop, out=e_frame[..., r:])
    return y_hop, e_hop, np.fft.rfft(e_frame, axis=-1)


def hop_backward(cfg, raw, g_y_hop, g_xi):
    """Adjoint of ``feature_hop``: the gradient w.r.t. the conjugate K-bin
    filter of the hop with features raw (..., 5, K), given the gradients of
    its y_hop and of ``build_input(raw)``.  Only the error and output rows
    carry gradient into the hop (e_hop = d_hop - y_hop); g_xi None, for a hop
    whose features carry none, is an all-zero g_xi."""
    k = cfg.dft_size
    u_freq = raw[..., FAREND_ROW, :]
    if g_xi is None:
        return project_filter(np.conj(u_freq) * (hop_spectrum(g_y_hop, cfg) / k))
    rows = slice(ERROR_ROW, OUTPUT_ROW + 1)  # first the error row, last the output row
    g_ey = log_scale_backward(raw[..., rows, :], g_xi[..., rows, :])
    g_y_hop = g_y_hop - k * spectrum_to_hop(g_ey[..., 0, :], cfg)
    g_y_freq = g_ey[..., -1, :] + hop_spectrum(g_y_hop, cfg) / k
    return project_filter(np.conj(u_freq) * g_y_freq)


def filter_gradient(u_freq, e_hop, cfg):
    """Gradient of ||e||^2 w.r.t. the conjugate filter spectrum.

    Equals -Z_w diag(u)^H Z_y^H e with Z_y^H e computed as fft of the
    zero-padded hop over K.  Independent of the constrained-away filter taps.
    """
    u_freq = np.asarray(u_freq)
    _check_len(u_freq, cfg.dft_size, "input spectrum")
    e_hop = np.asarray(e_hop)
    _check_len(e_hop, cfg.hop, "error hop")
    e_freq = hop_spectrum(e_hop, cfg)
    return -project_filter(np.conj(u_freq) * (e_freq / cfg.dft_size))


def input_rows(cfg, frames, d_hops, raw):
    """Fill the far-end and desired rows of a block of raw features.

    frames (n, ..., K) are ``hop_frames`` rows and d_hops (n, ..., R) their
    desired hops; raw (n, ..., 5, K) receives the frames' ``fft`` and the
    hops' ``hop_spectrum``, one transform each, whose rows equal one-hop
    calls bit for bit.  Only the hops' length is checked.
    """
    np.fft.fft(frames, axis=-1, out=raw[..., FAREND_ROW, :])
    hop_spectrum(d_hops, cfg, out=raw[..., DESIRED_ROW, :])


def feature_hop(cfg, w, d_hop, raw, e_frame):
    """One learned hop of a K-bin filter w, its features written into raw.

    raw (..., 5, K) holds one row per ``layers.FEATURE_CHANNELS`` entry; its
    far-end and desired rows must hold what ``input_rows`` writes there.  The
    hop writes the output row u * P(w), the error row (the ``fft`` of
    e_frame, a real (..., K) frame whose first R samples must be zero and
    whose last R receive e_hop) and the gradient row -P(conj(u) * e / K), the
    same values ``ols_apply``, ``af_error`` and ``filter_gradient`` give.  Six
    complex transforms; no shape is checked.  Returns (y_hop, e_hop); e_hop
    is a view of e_frame.
    """
    r = cfg.hop
    u_freq = raw[..., FAREND_ROW, :]
    y_freq = np.multiply(u_freq, project_filter(w), out=raw[..., OUTPUT_ROW, :])
    y_hop = np.fft.ifft(y_freq, axis=-1)[..., r:].real
    e_hop = np.subtract(d_hop, y_hop, out=e_frame[..., r:])
    e_freq = np.fft.fft(e_frame, axis=-1, out=raw[..., ERROR_ROW, :])
    np.negative(project_filter(np.conj(u_freq) * (e_freq / cfg.dft_size)),
                out=raw[..., GRADIENT_ROW, :])
    return y_hop, e_hop


def hop_frames(x, cfg):
    """Read-only, time-major (hops, ..., K) view of the whole hops of x (..., N).

    Row t is frame t of every stream: the last K samples up to (t + 1) * R,
    zero-padded at the stream head, whose last R samples are hop t.  So
    ``hop_frames(d, cfg)[..., cfg.hop:]`` is the (hops, ..., R) view of d's
    hops, and every hop loop reads hop t, and its per-hop buffers, as row t.
    x must hold at least one hop; a trailing partial hop is dropped.
    """
    x = np.asarray(x)
    k, r = cfg.dft_size, cfg.hop
    n = x.shape[-1] // r * r
    padded = np.zeros(x.shape[:-1] + (k - r + n,), dtype=x.dtype)
    padded[..., k - r :] = x[..., :n]
    return np.moveaxis(sliding_window_view(padded, k, axis=-1)[..., ::r, :], -2, 0)
