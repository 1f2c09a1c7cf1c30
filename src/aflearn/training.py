"""Meta-training of the learned update rule by truncated backpropagation.

A training window replays ``unroll`` consecutive hops of a scene through the
filter recursion w_{t+1} = w_t + delta_t and scores the log mean-square
residual of the window.  Gradients flow through the error/output feature
channels and the filter recursion; the analytic-gradient channel and the raw
input/desired channels are treated as data.  Windows are truncated: the
incoming filter state and hidden state of each window are constants.

Scenes in a batch run with a leading batch axis, in balanced chunks of
scenes: each chunk runs its forward, its scenes' share of the loss adjoint
and its backward, and adds its parameter gradients into the window's one
holder, so the window's gradient is the batch mean of the per-scene ones
however the batch is cut.  A chunk is the largest balanced share of the
batch whose one step's gate gradients (3H x C complex, 48 H C bytes a scene)
fit ``CHUNK_BYTES``, half a 2 MiB L2 (``WindowWorkspace.chunk_size``).  The
rule exists because the step's elementwise passes over a batch that spills
the cache cost many times those over a chunk that stays in it, while the
matrix products gain nothing from a larger batch (a stacked product is one
GEMM per scene); and because the window's memory then follows the chunk,
not the batch.  Each batch builds its frame and desired-hop views once with
the sessions' frame builder (``ols.hop_frames``), and a window is a slice of
their rows.  The feature rows are ``ols``'s: each chunk fills
the far-end and desired rows of its raw features in one transform each
(``ols.input_rows``), runs the sessions' learned hop (``ols.feature_hop``),
which fills the other rows, forward, and the hop kernel's adjoint
(``ols.hop_backward``), which reads the rows that carry gradient, backward.

A window's forward is the sessions' own (``feature_hop``, ``build_input``,
``optimizer_step``), told to write into a ``WindowWorkspace`` of hop-first,
group-last arrays (features (..., 5, K), GRU activations (..., H, C)) for
one chunk, which is the window's only cache.  Per hop it holds each operand
the backward cannot rebuild with one operation once: the raw features (whose
far-end, error and output rows the hop kernel's adjoint reads), the
log-scaled features, and per GRU layer the hidden state, the z|r gates and
the candidate c.  The backward reads a step's operands from those rows and
rebuilds only r * h, with the step's own operation.  It takes the rule's two
linear ends folded: the down-projection with layer 0's input product, and
the output dense layer with the up-projection, each one product whose weight
is the product of the two, so neither the layer-0 input nor the output dense
layer's result is ever rebuilt (``GroupSampler.downsample_backward``,
``upsample_backward``).
The backward's intermediates live in the workspace too: it holds one
step's worth of backward arrays (the gate gradients, three work arrays and
the state gradient), which every step and both GRU layers reuse while they
are still in cache; ``_optimizer_backward`` takes the workspace and a step
index and reads everything from it.  Per step the backward allocates only
the small per-scene weight-gradient products it sums over the chunk and,
for block and banded layouts, the one window copy of ``gather`` and the one
of ``scatter``.  The last step has no backward at all: its delta only sets
the carried filter, which no loss term of the window reads.  Step 0 has no
hop adjoint: hop 0 and its features depend only on the incoming filter.
``train_update_rule`` keeps one workspace per batch size and reuses it for
every window, so training maps that memory once.
Every layer's backward adds its parameter gradients into the window's one
gradient holder (``MetaParams.zeros_like``); clipping scales it in place, and
Adam updates the float view of the parameter buffer in place.
``TrainSchedule`` is the one owner of the schedule: the names, defaults and
checks of the ``schedule`` keys of ``aflearn train``'s config, and
``train_update_rule`` the one judge of whether a resume fits the run.
Validation and ``aflearn eval`` score scenes through ``scene_scores``, in
lockstep chunks of up to ``LOCKSTEP_CHUNK``.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import MetricUndefinedError, NumericError, check_number, require
from .metrics import serle_db
from .layers import FEATURE_CHANNELS, dense_backward
from .optimizer import (
    GroupState,
    build_input,
    init_meta_params,
    optimizer_step,
)
from .ols import feature_hop, hop_backward, hop_frames, input_rows
from .scenes import gen_scene
from .session import run_learned_session

__all__ = [
    "TrainSchedule",
    "AdamState",
    "meta_loss",
    "WindowWorkspace",
    "window_gradient",
    "adam_step",
    "clip_gradients",
    "train_update_rule",
    "scene_scores",
    "evaluate_mean_serle",
]

LOSS_EPS = 1e-9
CHUNK_BYTES = 2**20  # one step's gate gradients of a window chunk: half a 2 MiB L2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainSchedule:
    """Adam learning rate plus plateau handling on the validation metric.

    Every ``plateau_patience`` epochs without a better validation score the rate
    is multiplied by ``lr_decay``; after ``stop_patience`` training stops.
    ``clip`` is the global gradient-norm ceiling (0: none).  Building one checks
    and coerces every field, raising ``ConfigError("schedule.<field>", ...)``.
    """

    lr: float = 1e-4
    lr_decay: float = 0.5
    plateau_patience: int = 5
    stop_patience: int = 16
    clip: float = 10.0

    def __post_init__(self):
        self.lr = check_number(self.lr, "schedule.lr", float, 0.0)
        self.lr_decay = check_number(self.lr_decay, "schedule.lr_decay", float, 0.0)
        require(self.lr_decay <= 1.0, "schedule.lr_decay", "must be <= 1")
        for name in ("plateau_patience", "stop_patience"):
            setattr(self, name, check_number(getattr(self, name), f"schedule.{name}", int, 1))
        self.clip = check_number(self.clip, "schedule.clip", float, 0.0)


def meta_loss(d_hops, y_hops):
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
    return float(np.mean(np.log(mse + LOSS_EPS)))


class WindowWorkspace:
    """Time-major arrays a training window's forward writes and its backward reads.

    For a window of ``length`` hops over a (batch,) stack the scene axis of
    every array is one chunk of ``chunk`` scenes (``chunk_size``), not the
    batch: ``window_gradient`` runs the batch chunk by chunk through it.  Per
    GRU layer it holds the hidden trajectory (length + 1, chunk, H, C), whose
    row 0 is the incoming state and row t + 1 step t's new state, the z|r
    gates (length, chunk, 2H, C) and the candidate c (length, chunk, H, C);
    and the raw and log-scaled features (length, chunk, 5, K).  It also holds
    one step's backward intermediates, which both GRU layers and every step
    share: the gate gradients ``gates`` (chunk, 3H, C), three (chunk, H, C)
    ``work`` arrays (the gradient flowing between layers and the GRU
    backward's pair), the state gradient ``g_state`` a step hands the step
    before, and the downsample's window gradients ``g_windows`` (chunk,
    5 * width, C).  A smaller last chunk uses the leading scenes of every
    array (``rows``).  ``window_gradient`` overwrites it all on every call,
    so one workspace serves every window of its shape in turn.
    """

    def __init__(self, structure, hidden_size, num_bins, batch, length):
        groups = structure.group_count(num_bins)
        self.chunk = chunk = self.chunk_size(structure, hidden_size, num_bins, batch)
        state = (chunk, hidden_size, groups)

        def arrays(shape, count=2):
            return tuple(np.empty(shape, dtype=complex) for _ in range(count))

        self.shape = (structure, hidden_size, num_bins, batch, length)
        self.hidden = arrays((length + 1,) + state)
        self.zr = arrays((length, chunk, 2 * hidden_size, groups))
        self.c = arrays((length,) + state)
        self.raw, self.xi = arrays((length, chunk, len(FEATURE_CHANNELS), num_bins))
        self.gates = np.empty((chunk, 3 * hidden_size, groups), dtype=complex)
        self.work = arrays(state, 3)
        self.g_state = GroupState(*arrays(state))
        window = len(FEATURE_CHANNELS) * structure.width
        self.g_windows = np.empty((chunk, window, groups), dtype=complex)

    @staticmethod
    def chunk_size(structure, hidden_size, num_bins, batch):
        """Scenes per chunk of a ``batch``-scene window: the largest balanced
        chunk whose one step's gate gradients fit ``CHUNK_BYTES``; one scene's
        are 3H x C complex values, 48 H C bytes."""
        fits = max(1, CHUNK_BYTES // (48 * hidden_size * structure.group_count(num_bins)))
        parts = -(-batch // fits)
        return -(-batch // parts)

    def rows(self, scenes):
        """This workspace cut to its leading ``scenes`` scenes, for a smaller
        last chunk: the same memory, so the window still maps it once."""
        if scenes == self.chunk:
            return self
        cut = copy.copy(self)
        cut.hidden, cut.zr, cut.c = (tuple(a[:, :scenes] for a in layers)
                                     for layers in (self.hidden, self.zr, self.c))
        cut.raw, cut.xi = self.raw[:, :scenes], self.xi[:, :scenes]
        cut.gates, cut.g_windows = self.gates[:scenes], self.g_windows[:scenes]
        cut.work = tuple(a[:scenes] for a in self.work)
        cut.g_state = GroupState(self.g_state.h0[:scenes], self.g_state.h1[:scenes])
        return cut

    def state(self, t):
        """The hidden state step t starts from: row t of both trajectories."""
        return GroupState(h0=self.hidden[0][t], h1=self.hidden[1][t])

    def step_out(self, t):
        """Step t's GRU destinations, as ``optimizer_step`` takes them."""
        return tuple((hidden[t + 1], zr[t], c[t])
                     for hidden, zr, c in zip(self.hidden, self.zr, self.c))


def _optimizer_backward(params, g_delta, ws, t, grads):
    """Backward through step t of the window whose forward wrote ``ws``; returns g_xi.

    ``ws.g_state`` holds dL/d(new hidden) on entry and dL/d(previous hidden)
    on return.  The step's operands are read back from ``ws.xi[t]``,
    ``ws.state(t)`` and ``ws.step_out(t)``.  The rule's two linear ends are
    taken folded: the output dense layer with the up-projection
    (``upsample_backward``), and the down-projection with layer 0's input
    product (``downsample_backward``), so neither the layer-0 input nor the
    output dense layer's result is rebuilt.  Layer 1's input product goes
    through ``dense_backward``.  Each backward adds its parameter gradients
    into its part of ``grads``, a holder from ``params.zeros_like()``.  Every
    intermediate goes into the workspace's gate gradients and three work
    arrays, and g_xi is a view of it.
    """
    (h0, zr0, c0), (h1, zr1, c1) = ws.step_out(t)
    state = ws.state(t)
    gru0, gru1 = params.grus
    sampler = params.sampler
    flow, *work = ws.work
    g_h1 = sampler.upsample_backward(g_delta, h1, params.out_weight, params.out_bias,
                                     grads.sampler, grads.out_weight, grads.out_bias, out=flow)
    g_h1 += ws.g_state.h1
    g_gates, _ = gru1.backward(g_h1, state.h1, zr1, c1, grads.grus[1],
                               out=(ws.g_state.h1, ws.gates, work))
    g_h0 = dense_backward(g_gates, h0, gru1.w, grads.grus[1].w, out=flow)
    g_h0 += ws.g_state.h0
    g_gates, _ = gru0.backward(g_h0, state.h0, zr0, c0, grads.grus[0],
                               out=(ws.g_state.h0, ws.gates, work))
    return sampler.downsample_backward(g_gates, sampler.windows(ws.xi[t]), gru0.w,
                                       grads.sampler, grads.grus[0].w, out=ws.g_windows)


def window_gradient(params, cfg, w, state, frames, d_hops, workspace=None):
    """Forward/backward over one truncated window.

    frames (L, batch, K) and d_hops (L, batch, R) are ``hop_frames`` rows.
    Returns (loss, grads, w_out, state_out, y_hops); grads is a holder laid
    out like ``params`` (``params.zeros_like()``), follows the paired-real
    convention and already includes the batch mean.  The batch runs in
    chunks of ``workspace.chunk`` scenes (``WindowWorkspace.chunk_size``),
    each through its forward, loss adjoint and backward in turn, all adding
    into the one holder; the loss is ``meta_loss`` over the whole window.
    The forward writes every operand the backward reads into ``workspace``
    (a ``WindowWorkspace`` of this window's shape; a fresh one if None),
    whose scene axis is one chunk, and the backward keeps its intermediates
    there; nothing returned aliases it.
    """
    length, batch = frames.shape[:2]
    shape = (params.structure, params.hidden_size, cfg.dft_size, batch, length)
    ws = workspace or WindowWorkspace(*shape)
    if ws.shape != shape:
        raise ValueError(f"workspace is for {ws.shape}, window needs {shape}")
    if not np.all(np.isfinite(frames)):
        raise NumericError("non-finite input frame")
    y_hops = np.empty(d_hops.shape)
    grads = params.zeros_like()
    carried = []  # per chunk: w, h0, h1, copied out before the next chunk reuses the rows
    for lo in range(0, batch, ws.chunk):
        scenes = slice(lo, min(lo + ws.chunk, batch))
        chunk = ws.rows(scenes.stop - lo)
        chunk.hidden[0][0], chunk.hidden[1][0] = state.h0[scenes], state.h1[scenes]
        w_chunk = _chunk_gradient(params, cfg, w[scenes], frames[:, scenes], d_hops[:, scenes],
                                  y_hops[:, scenes], chunk, grads, batch)
        carried.append((w_chunk, *(h[length].copy() for h in chunk.hidden)))
    w, h0, h1 = (np.concatenate(parts) for parts in zip(*carried))
    return meta_loss(d_hops, y_hops), grads, w, GroupState(h0=h0, h1=h1), y_hops


def _chunk_gradient(params, cfg, w, frames, d_hops, y_hops, ws, grads, batch):
    """One chunk of a ``batch``-scene window, from filter w and the incoming
    state in ``ws.state(0)``: its forward, its scenes' share of the loss
    adjoint and its backward, adding into ``grads``.  Writes the chunk's
    outputs into ``y_hops`` and returns its carried w; its carried state is
    ``ws.state(length)``."""
    length, scenes = frames.shape[:2]
    state = ws.state(0)
    input_rows(cfg, frames, d_hops, ws.raw)
    e_frame = np.zeros((scenes, cfg.dft_size))  # the hop's error frame, see feature_hop

    for t in range(length):
        y_hops[t], _ = feature_hop(cfg, w, d_hops[t], ws.raw[t], e_frame)
        delta, state = optimizer_step(params, build_input(ws.raw[t], out=ws.xi[t]), state,
                                      out=ws.step_out(t))
        w = w + delta

    diff = d_hops - y_hops  # meta_loss's adjoint, per scene
    mse = np.mean(diff**2, axis=(0, 2))
    if not np.all(np.isfinite(mse)):
        raise NumericError("non-finite training loss")
    g_y_hops = -2.0 * diff / (length * cfg.hop) / (mse + LOSS_EPS)[None, :, None] / batch
    g_w = np.zeros_like(w)
    # Step t's backward takes the gradient of the filter its delta set, from
    # the adjoint of hop t + 1, whose features' gradient step t + 1's backward
    # gave.  The last step has no backward: its delta and new state only set
    # the carried w and state, which no loss term of this window reads, so
    # the last hop's features carry no gradient (g_xi None).  Step 0's
    # features get no hop adjoint: hop 0 and its features are functions of
    # the window's incoming filter, a constant.
    ws.g_state.h0[...] = ws.g_state.h1[...] = 0.0
    g_xi = None
    for t in reversed(range(length - 1)):
        # g_xi is a view of the workspace: read here, before step t's backward
        g_w += hop_backward(cfg, ws.raw[t + 1], g_y_hops[t + 1], g_xi)
        g_xi = _optimizer_backward(params, g_w, ws, t, grads)
    return w


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size):
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def adam_step(flat, grad, adam, lr):
    """One Adam update of the real parameter vector ``flat``, in place; returns it."""
    adam.step += 1
    adam.m = ADAM_BETA1 * adam.m + (1.0 - ADAM_BETA1) * grad
    adam.v = ADAM_BETA2 * adam.v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = adam.m / (1.0 - ADAM_BETA1**adam.step)
    v_hat = adam.v / (1.0 - ADAM_BETA2**adam.step)
    flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return flat


def clip_gradients(g_tensors, max_norm):
    """Global-norm clip over all tensors, scaling them in place; returns the pre-clip norm.

    The norm is summed tensor by tensor in the dict's order.
    """
    total = 0.0
    for g in g_tensors.values():
        total += float(np.sum(g.real**2 + g.imag**2))
    norm = np.sqrt(total)
    if max_norm and max_norm < norm < np.inf:  # a non-finite norm is the caller's to report
        scale = max_norm / norm
        for g in g_tensors.values():
            g *= scale
    return norm


LOCKSTEP_CHUNK = 8  # scenes per lockstep session when scoring


def scene_scores(session, scenes, cfg, chunk=LOCKSTEP_CHUNK):
    """Per scene, in input order: (serle_db, or None without audible echo, mean erle_db, frames).

    ``session(u, d)`` runs a (batch, samples) stack; each run of consecutive
    equal-length scenes goes through it in lockstep chunks of up to ``chunk``.
    """
    scores = []
    for _, run in groupby(scenes, key=lambda scene: scene.far_end.size):
        run = list(run)
        for lo in range(0, len(run), chunk):
            group = run[lo : lo + chunk]
            result = session(np.stack([s.far_end for s in group]),
                             np.stack([s.mic for s in group]))
            for scene, y, erle in zip(group, result.output, result.erle_db):
                echo = scene.echo[: y.size]
                try:
                    serle = serle_db(echo, echo - y, cfg.hop)
                except MetricUndefinedError:
                    serle = None
                scores.append((serle, float(np.mean(erle)), result.frames))
    return scores


def evaluate_mean_serle(params, scenes, cfg):
    """Mean echo-suppression score of lockstep sessions over ``scenes``.

    Scenes without a single audible echo frame are skipped.
    """
    scores = scene_scores(lambda u, d: run_learned_session(params, u, d, cfg), scenes, cfg)
    scores = [serle for serle, _, _ in scores if serle is not None]
    if not scores:
        raise MetricUndefinedError("no scene with audible echo")
    return float(np.mean(scores))


def _has_audible_echo(scene, cfg):
    """Whether a session on ``scene`` gets a score, whatever its output: serle_db
    skips the frames where the echo is silent and raises if every frame is."""
    try:
        serle_db(scene.echo, scene.echo, cfg.hop)
    except MetricUndefinedError:
        return False
    return True


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
    An empty ``train_seeds``, a ``batch_size`` or ``unroll`` below 1, or an
    ``unroll`` longer than a scene (no window would fit), raises ConfigError
    naming it, as does a ``resume`` of another structure or hidden size
    (``resume``) or with no epoch left (``epochs``), before any scene is drawn.
    """
    require(len(train_seeds) >= 1, "train_seeds", "must name at least one scene")
    require(batch_size >= 1, "batch_size", f"must be >= 1, got {batch_size}")
    require(unroll >= 1, "unroll", f"must be >= 1, got {unroll}")
    hops = scene_spec.num_samples // cfg.hop
    require(unroll <= hops, "unroll", f"{unroll} hops per window, but a scene has only "
                                      f"{hops} whole hops of {cfg.hop} samples")
    schedule = schedule or TrainSchedule()
    params = init_meta_params(structure, hidden_size, seed=init_seed)
    shuffle_rng = np.random.default_rng(init_seed + 1)

    lr = schedule.lr
    best_score = -np.inf
    since_improve = 0
    start_epoch = 0
    if resume is not None:
        params = resume["params"].copy()
        require(params.structure == structure and params.hidden_size == hidden_size, "resume",
                f"checkpoint is {params.structure.label}/H={params.hidden_size}, "
                f"config wants {structure.label}/H={hidden_size}")
        require(resume["epoch"] + 1 < epochs, "epochs", f"the checkpoint finished epoch "
                f"{resume['epoch']} of 0..{epochs - 1}: nothing is left to train")
        start_epoch = resume["epoch"] + 1
        lr = resume["lr"]
        best_score = resume["best_val"]
        since_improve = resume["since_improve"]
        for _ in range(start_epoch):  # replay the shuffle stream
            shuffle_rng.permutation(len(train_seeds))

    flat = params.buffer.view(np.float64)  # Adam updates the parameters through it
    adam = AdamState.zeros(flat.size)
    val_scenes = [gen_scene(scene_spec, s) for s in val_seeds]
    if not any(_has_audible_echo(scene, cfg) for scene in val_scenes):  # fail before an epoch
        raise MetricUndefinedError("no scene with audible echo among validation seeds "
                                   f"{[int(s) for s in val_seeds]}")
    workspaces = {}  # one per batch size, reused by every window of every epoch
    best = params.copy()
    history = []

    for epoch in range(start_epoch, epochs):
        start = time.perf_counter()
        order = np.array(train_seeds)[shuffle_rng.permutation(len(train_seeds))]
        losses = []
        for lo in range(0, len(order), batch_size):
            seeds = order[lo : lo + batch_size]
            scenes = [gen_scene(scene_spec, int(s)) for s in seeds]
            u_frames = hop_frames(np.stack([s.far_end for s in scenes]), cfg)
            d_hops = hop_frames(np.stack([s.mic for s in scenes]), cfg)[..., cfg.hop :]
            w = np.zeros((len(seeds), cfg.dft_size), dtype=complex)
            state = GroupState.zeros(structure, cfg.dft_size, hidden_size,
                                     batch_shape=(len(seeds),))
            if len(seeds) not in workspaces:
                workspaces[len(seeds)] = WindowWorkspace(structure, hidden_size, cfg.dft_size,
                                                         len(seeds), unroll)
            for win_start in range(0, len(u_frames) - unroll + 1, unroll):
                window = slice(win_start, win_start + unroll)
                # the desired hops contiguous, as the loss reduction expects
                frames = u_frames[window]
                d_window = np.ascontiguousarray(d_hops[window])
                where = (f"epoch {epoch}, window from hop {win_start}, "
                         f"scene seeds {seeds.tolist()}")
                try:
                    loss, grads, w, state, _ = window_gradient(
                        params, cfg, w, state, frames, d_window, workspaces[len(seeds)]
                    )
                except NumericError as exc:
                    raise NumericError(f"{exc} in {where}") from exc
                losses.append(loss)
                norm = clip_gradients(grads.tensors, schedule.clip)
                if not np.isfinite(norm):  # stop before Adam spreads it into the parameters
                    raise NumericError(f"non-finite gradient norm {norm} in {where}")
                adam_step(flat, grads.buffer.view(np.float64), adam, lr)

        score = evaluate_mean_serle(params, val_scenes, cfg)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_serle_db": score,
                "lr": lr,
                "seconds": round(time.perf_counter() - start, 2),
            }
        )
        if log:
            log(history[-1])

        if score > best_score:
            best_score = score
            best = params.copy()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve % schedule.plateau_patience == 0:
                lr *= schedule.lr_decay
        if checkpoint_cb:
            checkpoint_cb(
                best,
                {
                    "epoch": epoch,
                    "lr": lr,
                    "best_val": best_score,
                    "since_improve": since_improve,
                },
            )
        if since_improve >= schedule.stop_patience:
            break

    return best, history
