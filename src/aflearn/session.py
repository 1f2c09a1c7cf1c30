"""End-to-end echo cancellation over full signals.

A session walks the far-end/microphone pair hop by hop, filters with the
current weights, emits the residual, and lets the chosen adaptation rule
update the weights.  The filter output at hop t always uses the weights from
before the hop-t update.

Only whole hops are processed; a trailing partial hop is dropped and outputs
are trimmed accordingly.  Learned sessions also take (batch, samples) stacks
and run the scenes in lockstep; a 1-D signal pair is the batch-free case of
the same loop.
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
from .flops import FlopCounter
from .optimizer import GroupState, apply_update, build_input, optimizer_step
from .ols import feature_spectra, hop_forward, stream_frame

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
    flops: int
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


def _session_signals(u, d, cfg, max_ndim):
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    if u.shape != d.shape:
        raise ValueError(f"signal shapes differ: {u.shape} vs {d.shape}")
    if not 1 <= u.ndim <= max_ndim:
        raise ValueError(f"session signals must have 1 to {max_ndim} axes, got {u.ndim}")
    if u.shape[-1] < cfg.hop:
        raise ValueError(f"need at least {cfg.hop} samples, got {u.shape[-1]}")
    return u, d


def _run(u, d, cfg, update_fn, telemetry_path=None, snapshot_stride=0, count_flops=False):
    r = cfg.hop
    frames = u.shape[-1] // r
    n = frames * r
    error = np.empty(u.shape[:-1] + (n,))
    output = np.empty_like(error)
    snapshots = []
    counter = FlopCounter() if count_flops else None
    w = np.zeros(u.shape[:-1] + (cfg.dft_size,), dtype=complex)

    telemetry = open(telemetry_path, "w") if telemetry_path else None
    try:
        for t in range(frames):
            hop = slice(t * r, (t + 1) * r)
            d_hop = d[..., hop]
            w, y_hop, e_hop = update_fn(w, stream_frame(u, cfg, t), d_hop, counter)
            if not np.all(np.isfinite(e_hop)):
                raise NumericError("non-finite residual", frame=t)

            error[..., hop] = e_hop
            output[..., hop] = y_hop
            if snapshot_stride and (t + 1) % snapshot_stride == 0:
                snapshots.append((t, w.copy()))
            if telemetry is not None:
                row = {"frame": t, "erle_db": np.round(_erle_db(d_hop, e_hop), 4).tolist(),
                       "residual_power": _power(e_hop).tolist()}
                telemetry.write(json.dumps(row) + "\n")
    finally:
        if telemetry is not None:
            telemetry.close()

    hops_shape = u.shape[:-1] + (frames, r)
    return SessionResult(
        error=error,
        output=output,
        weights=w,
        erle_db=_erle_db(d[..., :n].reshape(hops_shape), error.reshape(hops_shape)),
        frames=frames,
        flops=counter.total if counter else 0,
        snapshots=snapshots,
    )


def run_learned_session(params, u, d, cfg, **kwargs):
    """Run a trained update rule over a signal pair.

    ``u`` and ``d`` are 1-D signals or (batch, samples) stacks; a stack runs
    its scenes in lockstep and every result array gains the leading batch axis.
    """
    u, d = _session_signals(u, d, cfg, max_ndim=2)
    state = GroupState.zeros(params.structure, cfg.dft_size, params.hidden_size,
                             batch_shape=u.shape[:-1])

    def update(w, frame, d_hop, counter):
        nonlocal state
        y_hop, e_hop, *spectra = hop_forward(cfg, w, frame, d_hop)
        xi = build_input(*feature_spectra(cfg, d_hop, *spectra))
        delta, state = optimizer_step(params, xi, state, counter=counter)
        return apply_update(w, delta), y_hop, e_hop

    return _run(u, d, cfg, update, **kwargs)


def run_classic_session(algorithm, u, d, cfg, hyper=None, **kwargs):
    """Run one of the classical baselines ('nlms', 'rls', 'kf') over 1-D signals."""
    if algorithm not in CLASSIC_ALGORITHMS:
        raise ConfigError("algorithm", f"unknown baseline {algorithm!r}")
    u, d = _session_signals(u, d, cfg, max_ndim=1)
    hyper = dict(hyper or {})
    k = cfg.dft_size
    # built per call, so a step patched into this module's namespace is the one that runs
    make_state, step = {
        "nlms": (lambda: make_nlms_state(**hyper), nlms_step),
        "rls": (lambda: make_rls_state(k, **hyper), rls_step),
        "kf": (lambda: make_kf_state(k, **hyper), kf_step),
    }[algorithm]
    state = make_state()

    def update(w, frame, d_hop, counter):
        nonlocal state
        if algorithm == "kf":
            w = state.transition * w  # the hop is filtered through the prediction
        y_hop, e_hop, u_freq, _, e_freq = hop_forward(cfg, w, frame, d_hop)
        w_new, state = step(state, u_freq, e_freq, w)
        return w_new, y_hop, e_hop

    return _run(u, d, cfg, update, **kwargs)
