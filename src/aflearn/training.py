"""Meta-training of the learned update rule by truncated backpropagation.

A training window replays ``unroll`` consecutive hops of a scene through the
filter recursion w_{t+1} = w_t + delta_t and scores the log mean-square
residual of the window.  Gradients flow through the error/output feature
channels and the filter recursion; the analytic-gradient channel and the raw
input/desired channels are treated as data.  Windows are truncated: the
incoming filter state and hidden state of each window are constants.

Scenes in a batch run in lockstep with a leading batch axis, which is exactly
equivalent to averaging per-scene gradients but keeps the matrix products
large enough to be efficient.  Windows use the sessions' frame builder and
hop kernel (``ols.stream_frame``, ``ols.hop_forward``); validation runs
``run_learned_session`` on stacked scenes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, NumericError
from .metrics import serle_db
from .optimizer import (
    GroupState,
    _build_input_backward,
    _build_input_forward,
    _optimizer_backward,
    _optimizer_forward,
    init_meta_params,
    tensors_to_flat,
    flat_into_tensors,
)
from .ols import feature_spectra, hop_forward, hop_spectrum, project_filter, stream_frame
from .scenes import gen_scene
from .session import run_learned_session

__all__ = [
    "TrainSchedule",
    "AdamState",
    "meta_loss",
    "window_gradient",
    "adam_step",
    "clip_gradients",
    "train_update_rule",
    "evaluate_mean_serle",
]

LOSS_EPS = 1e-9


@dataclass
class TrainSchedule:
    """Adam learning rate plus plateau handling on the validation metric."""

    lr: float = 1e-4
    decay: float = 0.5
    plateau_patience: int = 5
    stop_patience: int = 16
    clip_norm: float = 10.0


def meta_loss(d_hops, y_hops, eps=LOSS_EPS):
    """ln of the window mean-square residual, averaged over the batch.

    Inputs are (L, batch, R) or (L, R); the log is taken per scene.
    """
    d_hops = np.asarray(d_hops, dtype=float)
    y_hops = np.asarray(y_hops, dtype=float)
    if d_hops.shape != y_hops.shape:
        raise ValueError("desired/output windows must have the same shape")
    diff = d_hops - y_hops
    if diff.ndim == 2:
        diff = diff[:, None, :]
    mse = np.mean(diff**2, axis=(0, 2))
    return float(np.mean(np.log(mse + eps)))


def window_gradient(params, cfg, w, state, frames, d_hops, want_grads=True, eps=LOSS_EPS):
    """Forward/backward over one truncated window.

    frames (L, batch, K) and d_hops (L, batch, R) are time-major.  Returns
    (loss, grads-or-None, w_out, state_out, y_hops); grads follow the
    paired-real convention and already include the batch mean.
    """
    length = frames.shape[0]
    k, r = cfg.dft_size, cfg.hop
    caches = [] if want_grads else None
    y_hops = np.empty(d_hops.shape)

    for t in range(length):
        y_hop, _, u_freq, y_freq, e_freq = hop_forward(cfg, w, frames[t], d_hops[t])
        xi, raw = _build_input_forward(*feature_spectra(cfg, d_hops[t], u_freq, y_freq, e_freq))
        delta, state, opt_cache = _optimizer_forward(params, xi, state)
        w = w + delta
        y_hops[t] = y_hop
        if want_grads:
            caches.append((u_freq, raw, opt_cache))

    diff = d_hops - y_hops
    mse = np.mean(diff**2, axis=(0, 2))
    loss = float(np.mean(np.log(mse + eps)))
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    if not want_grads:
        return loss, None, w, state, y_hops

    batch = diff.shape[1]
    g_y_hops = -2.0 * diff / (length * r) / (mse + eps)[None, :, None] / batch
    g_w = np.zeros_like(w)
    g_state = GroupState(h0=np.zeros_like(state.h0), h1=np.zeros_like(state.h1))
    g_tensors = params.zeros_like()

    for t in reversed(range(length)):
        u_freq, raw, opt_cache = caches[t]
        g_xi, g_state = _optimizer_backward(params, g_w, g_state, opt_cache, g_tensors)
        channel_grads = _build_input_backward(raw, g_xi)
        g_e_freq, g_y_freq = channel_grads[3], channel_grads[4]
        # adjoint of e_freq = fft(pad(e_hop)) back to the real hop
        g_e_hop = (k * np.fft.ifft(g_e_freq, axis=-1)[..., r:]).real
        g_y_hop = g_y_hops[t] - g_e_hop
        # adjoint of y_hop = Re(ifft(y_freq)[r:])
        g_y_freq = g_y_freq + hop_spectrum(g_y_hop, cfg) / k
        g_w = g_w + project_filter(np.conj(u_freq) * g_y_freq, cfg.taps)

    return loss, g_tensors, w, state, y_hops


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size):
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def adam_step(flat, grad, adam, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update on the interleaved real parameter vector."""
    adam.step += 1
    adam.m = beta1 * adam.m + (1.0 - beta1) * grad
    adam.v = beta2 * adam.v + (1.0 - beta2) * grad**2
    m_hat = adam.m / (1.0 - beta1**adam.step)
    v_hat = adam.v / (1.0 - beta2**adam.step)
    return flat - lr * m_hat / (np.sqrt(v_hat) + eps)


def clip_gradients(g_tensors, max_norm):
    """Global-norm clip over all tensors; returns the pre-clip norm."""
    total = 0.0
    for g in g_tensors.values():
        total += float(np.sum(g.real**2 + g.imag**2))
    norm = np.sqrt(total)
    if max_norm and max_norm < norm < np.inf:  # a non-finite norm is the caller's to report
        scale = max_norm / norm
        for name in g_tensors:
            g_tensors[name] = g_tensors[name] * scale
    return norm


def evaluate_mean_serle(params, scenes, cfg, chunk=8):
    """Mean echo-suppression score of lockstep sessions over ``scenes``.

    Scenes without a single audible echo frame are skipped.
    """
    scores = []
    for lo in range(0, len(scenes), chunk):
        group = scenes[lo : lo + chunk]
        u = np.stack([s.far_end for s in group])
        d = np.stack([s.mic for s in group])
        y = run_learned_session(params, u, d, cfg).output
        for i, scene in enumerate(group):
            echo = scene.echo[: y.shape[1]]
            try:
                scores.append(serle_db(echo, echo - y[i], cfg.hop))
            except MetricUndefinedError:
                continue
    if not scores:
        raise MetricUndefinedError("no scene with audible echo")
    return float(np.mean(scores))


def train_update_rule(
    structure,
    hidden_size,
    cfg,
    scene_spec,
    train_seeds,
    val_seeds,
    schedule=None,
    epochs=20,
    batch_size=8,
    unroll=20,
    init_seed=0,
    log=None,
    checkpoint_cb=None,
    resume=None,
):
    """Meta-train an update rule; returns (best params, per-epoch history).

    Scenes are regenerated from their seeds each epoch, so the training set
    is defined entirely by (scene_spec, train_seeds).  ``checkpoint_cb``, if
    given, is called after every epoch with (best-so-far params, schedule
    state dict) so callers can persist progress before a possible divergence.
    ``resume`` restores a schedule state: a dict with params, epoch, lr,
    best_val, and since_improve (optimizer moments restart from zero).
    """
    schedule = schedule or TrainSchedule()
    params = init_meta_params(structure, hidden_size, seed=init_seed)
    shuffle_rng = np.random.default_rng(init_seed + 1)

    lr = schedule.lr
    best_score = -np.inf
    since_improve = 0
    start_epoch = 0
    if resume is not None:
        params = resume["params"].copy()
        start_epoch = resume["epoch"] + 1
        lr = resume["lr"]
        best_score = resume["best_val"]
        since_improve = resume["since_improve"]
        for _ in range(start_epoch):  # replay the shuffle stream
            shuffle_rng.permutation(len(train_seeds))

    flat = params.to_flat()
    adam = AdamState.zeros(flat.size)
    val_scenes = [gen_scene(scene_spec, s) for s in val_seeds]
    best_flat = flat.copy()
    history = []

    for epoch in range(start_epoch, epochs):
        start = time.time()
        order = np.array(train_seeds)[shuffle_rng.permutation(len(train_seeds))]
        losses = []
        for lo in range(0, len(order), batch_size):
            seeds = order[lo : lo + batch_size]
            scenes = [gen_scene(scene_spec, int(s)) for s in seeds]
            u = np.stack([s.far_end for s in scenes])
            d = np.stack([s.mic for s in scenes])
            hops = u.shape[1] // cfg.hop
            w = np.zeros((len(seeds), cfg.dft_size), dtype=complex)
            state = GroupState.zeros(structure, cfg.dft_size, hidden_size,
                                     batch_shape=(len(seeds),))
            for win_start in range(0, hops - unroll + 1, unroll):
                frames = np.stack(
                    [stream_frame(u, cfg, win_start + t) for t in range(unroll)]
                )
                d_hops = np.stack(
                    [d[:, (win_start + t) * cfg.hop : (win_start + t + 1) * cfg.hop]
                     for t in range(unroll)]
                )
                where = (f"epoch {epoch}, window from hop {win_start}, "
                         f"scene seeds {seeds.tolist()}")
                try:
                    loss, grads, w, state, _ = window_gradient(
                        params, cfg, w, state, frames, d_hops
                    )
                except NumericError as exc:
                    raise NumericError(f"{exc} in {where}") from exc
                losses.append(loss)
                norm = clip_gradients(grads, schedule.clip_norm)
                if not np.isfinite(norm):  # stop before Adam spreads it into the parameters
                    raise NumericError(f"non-finite gradient norm {norm} in {where}")
                flat = adam_step(flat, tensors_to_flat(grads), adam, lr)
                flat_into_tensors(flat, params.tensors)

        score = evaluate_mean_serle(params, val_scenes, cfg)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_serle_db": score,
                "lr": lr,
                "seconds": round(time.time() - start, 2),
            }
        )
        if log:
            log(history[-1])

        if score > best_score:
            best_score = score
            best_flat = flat.copy()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve % schedule.plateau_patience == 0:
                lr *= schedule.decay
        if checkpoint_cb:
            checkpoint_cb(
                params.from_flat(best_flat),
                {
                    "epoch": epoch,
                    "lr": lr,
                    "best_val": best_score,
                    "since_improve": since_improve,
                },
            )
        if since_improve >= schedule.stop_patience:
            break

    best = params.from_flat(best_flat)
    return best, history
