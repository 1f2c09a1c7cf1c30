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

One hop loop serves both kinds of filter and walks the hops in blocks of
_BLOCK_HOPS.  What depends only on the input signals is taken for a whole
block at once, into block-sized buffers whose rows are bit-identical to
one-hop calls, so memory stays O(block * K) per stream.  The loop reads and
writes per-hop rows through time-major views, and each session owns its
hop's zero-headed error frame.  A classic session takes the frames' half
spectra in one ``rfft``, and their conjugates and per-bin powers in one
elementwise pass each.  A learned session owns one time-major
(block, ..., 5, K) raw feature block and one log-scaled (..., 5, K) buffer:
``ols.input_rows`` fills the block's far-end and desired rows, and hop i
runs on row i, where ``ols.feature_hop`` writes the other three in place.

A non-finite input frame is reported at its own frame, after any failure at
an earlier hop of its block.  A filter update that goes non-finite is
reported at the hop that made it: a learned rule's at once, a classic
filter's when the next residual or input frame is non-finite, or, after the
last hop, by one check of the final filter; a finite session pays no per-hop
check for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classic import (
    NlmsState,
    kf_step,
    make_kf_state,
    make_rls_state,
    nlms_step,
    rls_step,
)
from .errors import ConfigError, NumericError
from .layers import FEATURE_CHANNELS
from .metrics import erle_db, hop_powers
from .optimizer import GroupState, apply_update, build_input, optimizer_step
from .ols import feature_hop, hermitian_spectrum, hop_forward, hop_frames, input_rows

__all__ = ["SessionResult", "run_learned_session", "run_classic_session", "CLASSIC_ALGORITHMS"]

CLASSIC_ALGORITHMS = ("nlms", "rls", "kf")
# hops whose input spectra and statistics are taken at once, memory O(block * K)
# per stream; at batch 1 a 32-hop block was no faster, and lockstep sessions
# peaked higher
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


def _block_hops(u, cfg):
    """Hops per block of the session over ``u``."""
    return min(u.shape[-1] // cfg.hop, _BLOCK_HOPS)


def _block_rows(u, cfg, bins, dtype=complex):
    """A (..., block, bins) buffer for one block of per-hop rows of the
    session over ``u``, and its time-major view, whose row i is hop i."""
    rows = np.empty(u.shape[:-1] + (_block_hops(u, cfg), bins), dtype)
    return rows, np.moveaxis(rows, -2, 0)


def _failure(w, message, t):
    """The error for a failure seen at hop t.  A classic filter's update is
    checked only here: a non-finite w, the update of hop t - 1, comes first."""
    if not np.isfinite(w).all():
        return NumericError("non-finite filter update", frame=t - 1)
    return NumericError(message, frame=t)


def _run(u, d, cfg, w, take_block, hop, telemetry_path=None, snapshot_stride=0):
    """Walk the hops from initial weights w: K bins, or a K/2+1-bin half
    spectrum that the snapshots and the result expand to K bins.

    Per block of _BLOCK_HOPS hops, ``take_block(frames, d_block)`` takes the
    input statistics of its (..., n, K) frames and (..., n, R) desired hops,
    up to the block's first frame that is non-finite in any stream; that
    frame raises when reached.  ``hop(w, i, d_hop)`` then runs the block's
    hop i and returns (w_new, y_hop, e_hop).
    """
    spectrum = np.copy if w.shape[-1] == cfg.dft_size else hermitian_spectrum
    u_frames = hop_frames(u, cfg)
    frames = u_frames.shape[-2]
    d_hops = d[..., : frames * cfg.hop].reshape(d.shape[:-1] + (frames, cfg.hop))
    error = np.empty(d_hops.shape)
    output = np.empty_like(error)
    d_rows, e_rows, y_rows = (np.moveaxis(x, -2, 0) for x in (d_hops, error, output))
    snapshots = []

    telemetry = open(telemetry_path, "w") if telemetry_path else None
    try:
        for start in range(0, frames, _BLOCK_HOPS):
            block = u_frames[..., start : start + _BLOCK_HOPS, :]
            finite = np.isfinite(block).all(axis=-1)
            finite = finite.reshape(-1, finite.shape[-1]).all(axis=0)
            valid = len(finite) if finite.all() else int(np.argmin(finite))
            take_block(block[..., :valid, :], d_hops[..., start : start + valid, :])
            for t in range(start, start + valid):
                d_hop = d_rows[t]
                try:
                    w_new, y_hop, e_hop = hop(w, t - start, d_hop)
                except NumericError as exc:  # a learned rule's non-finite filter update
                    raise NumericError(str(exc), frame=t) from exc
                if not np.isfinite(e_hop).all():
                    raise _failure(w, "non-finite residual", t)
                w = w_new
                e_rows[t] = e_hop
                y_rows[t] = y_hop
                if snapshot_stride and (t + 1) % snapshot_stride == 0:
                    snapshots.append((t, spectrum(w)))
                if telemetry is not None:
                    e_power = hop_powers(e_hop)
                    erle = np.round(erle_db(hop_powers(d_hop), e_power), 4)
                    row = {"frame": t, "erle_db": erle.tolist(), "residual_power": e_power.tolist()}
                    telemetry.write(json.dumps(row) + "\n")
            if valid < len(finite):
                raise _failure(w, "non-finite input frame", start + valid)
        if not np.isfinite(w).all():  # the last hop's update
            raise NumericError("non-finite filter update", frame=frames - 1)
    finally:
        if telemetry is not None:
            telemetry.close()

    return SessionResult(
        error=error.reshape(u.shape[:-1] + (-1,)),
        output=output.reshape(u.shape[:-1] + (-1,)),
        weights=spectrum(w),
        erle_db=erle_db(hop_powers(d_hops), hop_powers(error)),
        frames=frames,
        snapshots=snapshots,
    )


def run_learned_session(params, u, d, cfg, **kwargs):
    """Run a trained update rule over a signal pair.

    ``u`` and ``d`` are 1-D signals or (batch, samples) stacks; a stack runs
    its scenes in lockstep and every result array gains the leading batch axis.
    """
    u, d = _session_signals(u, d, cfg)
    k = cfg.dft_size
    batch = u.shape[:-1]
    state = GroupState.zeros(params.structure, k, params.hidden_size, batch_shape=batch)
    features = (len(FEATURE_CHANNELS), k)
    raw = np.empty((_block_hops(u, cfg),) + batch + features, dtype=complex)  # time-major
    xi = np.empty(batch + features, dtype=complex)
    e_frame = np.zeros(batch + (k,))  # the hop's error frame, see feature_hop

    def take_block(frames, d_block):
        n = frames.shape[-2]
        input_rows(cfg, np.moveaxis(frames, -2, 0), np.moveaxis(d_block, -2, 0), raw[:n])

    def hop(w, i, d_hop):
        nonlocal state
        y_hop, e_hop = feature_hop(cfg, w, d_hop, raw[i], e_frame)
        delta, state = optimizer_step(params, build_input(raw[i], out=xi), state)
        return apply_update(w, delta), y_hop, e_hop

    w = np.zeros(batch + (k,), dtype=complex)
    return _run(u, d, cfg, w, take_block, hop, **kwargs)


def run_classic_session(algorithm, u, d, cfg, hyper=None, **kwargs):
    """Run a classical baseline ('nlms', 'rls', 'kf'); signals as in ``run_learned_session``."""
    if algorithm not in CLASSIC_ALGORITHMS:
        raise ConfigError("algorithm", f"unknown baseline {algorithm!r}")
    u, d = _session_signals(u, d, cfg)
    hyper = dict(hyper or {})
    bins = cfg.dft_size // 2 + 1  # real signals: the filter and its spectra are half spectra
    # built per call, so a step patched into this module's namespace is the one that runs
    make_state, step = {
        "nlms": (lambda: NlmsState(**hyper), nlms_step),
        "rls": (lambda: make_rls_state(bins, **hyper), rls_step),
        "kf": (lambda: make_kf_state(bins, **hyper), kf_step),
    }[algorithm]
    try:
        state = make_state()
    except TypeError as exc:  # a hyperparameter this baseline does not take
        raise ConfigError("hyper", f"{algorithm}: {exc}") from None
    predict = algorithm == "kf"  # the hop is filtered through the prediction
    e_frame = np.zeros(u.shape[:-1] + (cfg.dft_size,))  # the hop's error frame, see hop_forward
    u_freqs, u_rows = _block_rows(u, cfg, bins)
    u_conj, conj_rows = _block_rows(u, cfg, bins)
    u_power, power_rows = _block_rows(u, cfg, bins, float)

    def take_block(frames, _):
        n = frames.shape[-2]
        spectra = np.fft.rfft(frames, axis=-1, out=u_freqs[..., :n, :])
        np.conjugate(spectra, out=u_conj[..., :n, :])
        np.add(spectra.real**2, spectra.imag**2, out=u_power[..., :n, :])

    def hop(w, i, d_hop):
        nonlocal state
        if predict:
            w = state.transition * w
        y_hop, e_hop, e_freq = hop_forward(cfg, w, u_rows[i], d_hop, e_frame)
        w_new, state = step(state, conj_rows[i], power_rows[i], e_freq, w)
        return w_new, y_hop, e_hop

    w = np.zeros(u.shape[:-1] + (bins,), dtype=complex)
    return _run(u, d, cfg, w, take_block, hop, **kwargs)
