"""End-to-end echo cancellation over full signals.

A session walks the far-end/microphone pair hop by hop, filters with the
current weights, emits the residual, and lets the chosen adaptation rule
update the weights.  The filter output at hop t always uses the weights from
before the hop-t update.

Only whole hops are processed; a trailing partial hop is dropped and outputs
are trimmed accordingly.  Every session, learned or classic, also takes
(batch, samples) stacks and runs the scenes in lockstep; a 1-D signal pair is
the batch-free case of the same loop.  A learned session's matrix products
cost ``frames * FlopModel.total`` multiply-accumulates per stream.

The hops are walked in blocks of _BLOCK_HOPS.  The spectra that depend only
on the input signals, each frame's and (for the learned rule) each desired
hop's, are taken for a whole block in one transform, whose rows are
bit-identical to one-hop calls; memory stays O(block * K) per stream.  A
non-finite input frame is reported at its own frame, after any failure at
an earlier hop of its block.  A learned session owns one (..., 5, K) raw
feature buffer and one log-scaled one: each hop copies its far-end and
desired spectra into the raw rows, and ``ols.feature_hop`` writes the other
three rows in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classic import (
    kf_step,
    make_kf_state,
    make_nlms_state,
    make_rls_state,
    nlms_step,
    rls_step,
)
from .errors import ConfigError, NumericError
from .layers import DESIRED_ROW, FAREND_ROW, FEATURE_CHANNELS
from .optimizer import GroupState, apply_update, build_input, optimizer_step
from .ols import (
    feature_hop,
    frame_spectra,
    hermitian_spectrum,
    hop_forward,
    hop_frames,
    hop_spectrum,
)

__all__ = ["SessionResult", "run_learned_session", "run_classic_session", "CLASSIC_ALGORITHMS"]

CLASSIC_ALGORITHMS = ("nlms", "rls", "kf")
# hops whose input spectra one transform takes, memory O(block * K) per stream;
# at batch 1 a 32-hop block was no faster, and lockstep sessions peaked higher
_BLOCK_HOPS = 16


@dataclass
class SessionResult:
    """Outputs of one session, trimmed to the processed whole hops."""

    error: np.ndarray
    output: np.ndarray
    weights: np.ndarray
    erle_db: np.ndarray
    frames: int
    snapshots: list

    @property
    def mean_erle_db(self):
        return float(np.mean(self.erle_db)) if self.erle_db.size else 0.0


def _power(x):
    """Sum of squares along the last axis (one dot product per hop)."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _erle_db(d_hops, e_hops):
    """Per-hop 10 log10(||d||^2 / ||e||^2), capped at +-80 dB; 80 dB for a zero residual."""
    num = np.maximum(_power(d_hops), 1e-300)
    den = _power(e_hops)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.clip(10.0 * np.log10(num / den), -80.0, 80.0)
    return np.where(den > 0.0, ratio, 80.0)


def _session_signals(u, d, cfg):
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    if u.shape != d.shape:
        raise ValueError(f"signal shapes differ: {u.shape} vs {d.shape}")
    if u.ndim not in (1, 2):
        raise ValueError(f"session signals must have 1 or 2 axes, got {u.ndim}")
    if u.shape[-1] < cfg.hop:  # a ConfigError, so the CLI exits 2 even from a worker
        raise ConfigError("length", f"need at least one hop of {cfg.hop} samples, "
                                    f"got {u.shape[-1]}")
    return u, d


def _hop_spectra(cfg, u_frames, d_hops, bins, desired_spectra):
    """Yield (t, u_freq, d_freq) per hop: the frame's spectrum on ``bins`` and,
    if ``desired_spectra``, the desired hop's ``hop_spectrum`` (else None).

    Each block of _BLOCK_HOPS hops is transformed in one call up to its first
    frame that is non-finite in any stream; that frame raises when reached.
    Every block overwrites the same block-sized arrays, so a hop's spectra
    are valid until the next hop is drawn.
    """
    hops = u_frames.shape[-2]
    block_shape = u_frames.shape[:-2] + (min(hops, _BLOCK_HOPS),)
    u_freqs = np.empty(block_shape + (bins,), dtype=complex)
    d_freqs = np.empty(block_shape + (cfg.dft_size,), dtype=complex) if desired_spectra else None
    for start in range(0, hops, _BLOCK_HOPS):
        block = u_frames[..., start : start + _BLOCK_HOPS, :]
        finite = np.isfinite(block).all(axis=-1)
        finite = finite.reshape(-1, finite.shape[-1]).all(axis=0)
        valid = len(finite) if finite.all() else int(np.argmin(finite))
        frame_spectra(cfg, block[..., :valid, :], bins, out=u_freqs[..., :valid, :])
        if desired_spectra:
            hop_spectrum(d_hops[..., start : start + valid, :], cfg, out=d_freqs[..., :valid, :])
        for i in range(len(finite)):
            if not finite[i]:
                raise NumericError("non-finite input frame", frame=start + i)
            yield start + i, u_freqs[..., i, :], d_freqs[..., i, :] if desired_spectra else None


def _run(u, d, cfg, w, update_fn, desired_spectra=False, telemetry_path=None,
         snapshot_stride=0):
    """Walk the hops from initial weights w: K bins, or a K/2+1-bin half
    spectrum that the snapshots and the result expand to K bins.

    ``update_fn(w, u_freq, d_hop, d_freq)`` runs one hop on the spectra of
    ``_hop_spectra``; the learned rule asks for ``desired_spectra``.
    """
    spectrum = np.copy if w.shape[-1] == cfg.dft_size else hermitian_spectrum
    u_frames = hop_frames(u, cfg)
    d_hops = hop_frames(d, cfg)[..., cfg.hop :]
    frames = u_frames.shape[-2]
    error = np.empty(d_hops.shape)
    output = np.empty_like(error)
    snapshots = []

    telemetry = open(telemetry_path, "w") if telemetry_path else None
    try:
        for t, u_freq, d_freq in _hop_spectra(cfg, u_frames, d_hops, w.shape[-1],
                                              desired_spectra):
            d_hop = d_hops[..., t, :]
            try:
                w, y_hop, e_hop = update_fn(w, u_freq, d_hop, d_freq)
            except NumericError as exc:  # a non-finite filter update
                raise NumericError(str(exc), frame=t) from exc
            if not np.all(np.isfinite(e_hop)):
                raise NumericError("non-finite residual", frame=t)

            error[..., t, :] = e_hop
            output[..., t, :] = y_hop
            if snapshot_stride and (t + 1) % snapshot_stride == 0:
                snapshots.append((t, spectrum(w)))
            if telemetry is not None:
                row = {"frame": t, "erle_db": np.round(_erle_db(d_hop, e_hop), 4).tolist(),
                       "residual_power": _power(e_hop).tolist()}
                telemetry.write(json.dumps(row) + "\n")
    finally:
        if telemetry is not None:
            telemetry.close()

    return SessionResult(
        error=error.reshape(u.shape[:-1] + (-1,)),
        output=output.reshape(u.shape[:-1] + (-1,)),
        weights=spectrum(w),
        erle_db=_erle_db(d_hops, error),
        frames=frames,
        snapshots=snapshots,
    )


def run_learned_session(params, u, d, cfg, **kwargs):
    """Run a trained update rule over a signal pair.

    ``u`` and ``d`` are 1-D signals or (batch, samples) stacks; a stack runs
    its scenes in lockstep and every result array gains the leading batch axis.
    """
    u, d = _session_signals(u, d, cfg)
    batch = u.shape[:-1]
    state = GroupState.zeros(params.structure, cfg.dft_size, params.hidden_size,
                             batch_shape=batch)
    raw, xi = np.empty((2,) + batch + (len(FEATURE_CHANNELS), cfg.dft_size), dtype=complex)
    e_frame = np.zeros(batch + (cfg.dft_size,))  # the hop's error frame, see feature_hop

    def update(w, u_freq, d_hop, d_freq):
        nonlocal state
        raw[..., FAREND_ROW, :] = u_freq
        raw[..., DESIRED_ROW, :] = d_freq
        y_hop, e_hop = feature_hop(cfg, w, d_hop, raw, e_frame)
        delta, state = optimizer_step(params, build_input(raw, out=xi), state)
        return apply_update(w, delta), y_hop, e_hop

    w = np.zeros(batch + (cfg.dft_size,), dtype=complex)
    return _run(u, d, cfg, w, update, desired_spectra=True, **kwargs)


def run_classic_session(algorithm, u, d, cfg, hyper=None, **kwargs):
    """Run a classical baseline ('nlms', 'rls', 'kf'); signals as in ``run_learned_session``."""
    if algorithm not in CLASSIC_ALGORITHMS:
        raise ConfigError("algorithm", f"unknown baseline {algorithm!r}")
    u, d = _session_signals(u, d, cfg)
    hyper = dict(hyper or {})
    bins = cfg.dft_size // 2 + 1  # real signals: the filter and its spectra are half spectra
    # built per call, so a step patched into this module's namespace is the one that runs
    make_state, step = {
        "nlms": (lambda: make_nlms_state(**hyper), nlms_step),
        "rls": (lambda: make_rls_state(bins, **hyper), rls_step),
        "kf": (lambda: make_kf_state(bins, **hyper), kf_step),
    }[algorithm]
    try:
        state = make_state()
    except TypeError as exc:  # a hyperparameter this baseline does not take
        raise ConfigError("hyper", f"{algorithm}: {exc}") from None

    def update(w, u_freq, d_hop, _):
        nonlocal state
        if algorithm == "kf":
            w = state.transition * w  # the hop is filtered through the prediction
        y_hop, e_hop, _, e_freq = hop_forward(cfg, w, u_freq, d_hop)
        w_new, state = step(state, u_freq, e_freq, w)
        return w_new, y_hop, e_hop

    w = np.zeros(u.shape[:-1] + (bins,), dtype=complex)
    return _run(u, d, cfg, w, update, **kwargs)
