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
from .optimizer import GroupState, apply_update, build_input, optimizer_step
from .ols import feature_spectra, hermitian_spectrum, hop_forward, hop_frames

__all__ = ["SessionResult", "run_learned_session", "run_classic_session", "CLASSIC_ALGORITHMS"]

CLASSIC_ALGORITHMS = ("nlms", "rls", "kf")


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


def _run(u, d, cfg, w, update_fn, telemetry_path=None, snapshot_stride=0):
    """Walk the hops from initial weights w: K bins, or a K/2+1-bin half
    spectrum that the snapshots and the result expand to K bins."""
    spectrum = np.copy if w.shape[-1] == cfg.dft_size else hermitian_spectrum
    u_frames = hop_frames(u, cfg)
    d_hops = hop_frames(d, cfg)[..., cfg.hop :]
    frames = u_frames.shape[-2]
    error = np.empty(d_hops.shape)
    output = np.empty_like(error)
    snapshots = []

    telemetry = open(telemetry_path, "w") if telemetry_path else None
    try:
        for t in range(frames):
            d_hop = d_hops[..., t, :]
            try:
                w, y_hop, e_hop = update_fn(w, u_frames[..., t, :], d_hop)
            except NumericError as exc:  # a non-finite input frame or filter update
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
    state = GroupState.zeros(params.structure, cfg.dft_size, params.hidden_size,
                             batch_shape=u.shape[:-1])

    def update(w, frame, d_hop):
        nonlocal state
        y_hop, e_hop, *spectra = hop_forward(cfg, w, frame, d_hop)
        xi = build_input(*feature_spectra(cfg, d_hop, *spectra))
        delta, state = optimizer_step(params, xi, state)
        return apply_update(w, delta), y_hop, e_hop

    w = np.zeros(u.shape[:-1] + (cfg.dft_size,), dtype=complex)
    return _run(u, d, cfg, w, update, **kwargs)


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

    def update(w, frame, d_hop):
        nonlocal state
        if algorithm == "kf":
            w = state.transition * w  # the hop is filtered through the prediction
        y_hop, e_hop, u_freq, _, e_freq = hop_forward(cfg, w, frame, d_hop)
        w_new, state = step(state, u_freq, e_freq, w)
        return w_new, y_hop, e_hop

    w = np.zeros(u.shape[:-1] + (bins,), dtype=complex)
    return _run(u, d, cfg, w, update, **kwargs)
