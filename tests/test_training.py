"""Truncated-BPTT gradients, Adam bookkeeping, and a miniature training run."""

import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import aflearn.training
from aflearn.errors import ConfigError, MetricUndefinedError, NumericError
from aflearn.metrics import serle_db
from aflearn.ols import OlsConfig
from aflearn.optimizer import GroupState, init_meta_params
from aflearn.scenes import desk_spec, gen_scene
from aflearn.session import run_classic_session, run_learned_session
from aflearn.structures import DependencyStructure
from aflearn.training import (
    AdamState,
    TrainSchedule,
    WindowWorkspace,
    adam_step,
    clip_gradients,
    evaluate_mean_serle,
    meta_loss,
    scene_scores,
    train_update_rule,
    window_gradient,
)

from oracles import fd_gradient, reference_window, rel_error, unfolded_training_backward

STRUCTURES = [
    DependencyStructure.diagonal(),
    DependencyStructure.block(4),
    DependencyStructure.banded(4),
]


def test_meta_loss_hand_computed():
    d = np.zeros((2, 1, 3))
    y = np.ones((2, 1, 3))
    assert abs(meta_loss(d, y) - np.log(1.0 + 1e-9)) < 1e-15
    # per-scene logs are averaged, not pooled
    d = np.zeros((1, 2, 2))
    y = np.stack([np.full((1, 2), 1.0), np.full((1, 2), 3.0)], axis=1)
    expected = 0.5 * (np.log(1.0 + 1e-9) + np.log(9.0 + 1e-9))
    assert abs(meta_loss(d, y) - expected) < 1e-12


def test_meta_loss_accepts_unbatched_windows():
    d = np.zeros((3, 4))
    y = np.ones((3, 4))
    assert abs(meta_loss(d, y) - np.log(1.0 + 1e-9)) < 1e-15


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_window_gradient_matches_fd(structure):
    # full unroll through the filter recursion, state carry, and features
    cfg = OlsConfig(8)
    hidden, unroll, batch = 4, 3, 2
    params = init_meta_params(structure, hidden, seed=1)
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((unroll, batch, cfg.dft_size))
    d_hops = 0.5 * rng.standard_normal((unroll, batch, cfg.hop))
    w0 = 0.1 * (rng.standard_normal((batch, cfg.dft_size))
                + 1j * rng.standard_normal((batch, cfg.dft_size)))
    c = structure.group_count(cfg.dft_size)
    state0 = GroupState(
        h0=0.3 * (rng.standard_normal((batch, hidden, c))
                  + 1j * rng.standard_normal((batch, hidden, c))),
        h1=0.3 * (rng.standard_normal((batch, hidden, c))
                  + 1j * rng.standard_normal((batch, hidden, c))),
    )

    # the gradient channel is fed to the network but not differentiated
    # through, so the finite-difference loss holds it at the values the
    # unperturbed trajectory produced
    base_loss, base_y, frozen = reference_window(params, cfg, w0, state0, frames, d_hops)

    loss_ref, grads, _, _, y_hops = window_gradient(
        params, cfg, w0, state0, frames, d_hops
    )
    assert abs(loss_ref - base_loss) < 1e-12
    assert rel_error(y_hops, base_y) < 1e-12

    for name in params.tensors:
        fd = fd_gradient(
            lambda: reference_window(params, cfg, w0, state0, frames, d_hops, frozen)[0],
            params.tensors[name], eps=1e-6
        )
        assert rel_error(grads.tensors[name], fd) < 1e-3, name


def test_window_gradient_state_carry_matches_long_window():
    # two carried windows produce the same outputs as one double window
    structure = DependencyStructure.block(4)
    cfg = OlsConfig(16)
    params = init_meta_params(structure, 4, seed=3)
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((6, 1, 16))
    d_hops = rng.standard_normal((6, 1, 8))
    w = np.zeros((1, 16), dtype=complex)
    state = GroupState.zeros(structure, 16, 4, batch_shape=(1,))

    _, _, w_a, state_a, y_a = window_gradient(
        params, cfg, w, state, frames[:3], d_hops[:3]
    )
    _, _, w_a, state_a, y_b = window_gradient(
        params, cfg, w_a, state_a, frames[3:], d_hops[3:]
    )
    _, _, w_full, state_full, y_full = window_gradient(
        params, cfg, w, state, frames, d_hops
    )
    assert rel_error(np.concatenate([y_a, y_b]), y_full) < 1e-12
    assert rel_error(w_a, w_full) < 1e-12
    assert rel_error(state_a.h1, state_full.h1) < 1e-12


def _window_inputs(structure, k=16, hidden=4, batch=2, length=3, seed=4):
    cfg = OlsConfig(k)
    params = init_meta_params(structure, hidden, seed=3)
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((2 * length, batch, k))
    d_hops = rng.standard_normal((2 * length, batch, k // 2))
    w = 0.1 * (rng.standard_normal((batch, k)) + 1j * rng.standard_normal((batch, k)))
    c = structure.group_count(k)
    state = GroupState(*(0.3 * (rng.standard_normal((batch, hidden, c))
                                + 1j * rng.standard_normal((batch, hidden, c))) for _ in range(2)))
    return params, cfg, w, state, frames, d_hops


def _returned_arrays(result):
    """loss, gradient buffer, w, h0, h1 and y of a ``window_gradient`` result."""
    loss, grads, w, state, y_hops = result
    return [np.array(loss), grads.buffer, w, state.h0, state.h1, y_hops]


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_reused_workspace_matches_fresh_windows(structure):
    params, cfg, w, state, frames, d_hops = _window_inputs(structure)
    length, batch = 3, frames.shape[1]
    workspace = WindowWorkspace(structure, 4, cfg.dft_size, batch, length)
    carry_fresh = carry_reused = (w, state)
    returned = []
    for win in (slice(0, length), slice(length, 2 * length)):
        fresh = window_gradient(params, cfg, *carry_fresh, frames[win], d_hops[win])
        reused = window_gradient(params, cfg, *carry_reused, frames[win], d_hops[win], workspace)
        for a, b in zip(_returned_arrays(fresh), _returned_arrays(reused)):
            assert np.array_equal(a, b)
        returned.append(_returned_arrays(reused)[2:])  # w, h0, h1, y
        carry_fresh, carry_reused = fresh[2:4], reused[2:4]
    # the second window overwrote the workspace, not what the first one returned
    first_again = window_gradient(params, cfg, w, state, frames[:length], d_hops[:length])
    for got, want in zip(returned[0], _returned_arrays(first_again)[2:]):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="workspace"):
        window_gradient(params, cfg, w, state, frames[:2], d_hops[:2], workspace)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_folded_backward_matches_the_unfolded_reference(structure):
    # the folded linear ends only reorder sums: three windows carried through
    # one workspace against the same windows stepped back through the
    # unfolded chain (rebuilt layer-0 input and output dense result)
    k, hidden, batch, length = 64, 8, 3, 6
    cfg = OlsConfig(k)
    params = init_meta_params(structure, hidden, seed=3)
    rng = np.random.default_rng(5)
    params.buffer[...] += 0.05 * (rng.standard_normal(params.buffer.shape)
                                  + 1j * rng.standard_normal(params.buffer.shape))  # biases too
    frames = rng.standard_normal((3 * length, batch, k))
    d_hops = rng.standard_normal((3 * length, batch, k // 2))
    w = np.zeros((batch, k), dtype=complex)
    state = GroupState.zeros(structure, k, hidden, batch_shape=(batch,))
    workspace = WindowWorkspace(structure, hidden, k, batch, length)
    for lo in range(0, 3 * length, length):
        window = frames[lo : lo + length], d_hops[lo : lo + length]
        with unfolded_training_backward():
            want = _returned_arrays(window_gradient(params, cfg, w, state, *window))
        folded = window_gradient(params, cfg, w, state, *window, workspace)
        got = _returned_arrays(folded)
        assert rel_error(got[1], want[1]) < 1e-13
        for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):  # the forward is unchanged
            assert np.array_equal(a, b)
        w, state = folded[2:4]


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_window_backward_takes_no_hop_adjoint_at_step_0(structure, monkeypatch):
    # hop 0 and step 0's features depend on the incoming filter, a constant
    calls = []
    for name in ("hop_backward", "log_scale_backward"):
        def counted(*args, name=name, real=getattr(aflearn.training, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(aflearn.training, name, counted)
    params, cfg, w, state, frames, d_hops = _window_inputs(structure, length=4)
    window_gradient(params, cfg, w, state, frames[:4], d_hops[:4])
    assert calls.count("hop_backward") == 3 and calls.count("log_scale_backward") == 2


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_window_backward_skips_the_last_step(structure, monkeypatch):
    # the last step's delta only sets the carried w, which no loss term reads
    real = aflearn.training._optimizer_backward
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(aflearn.training, "_optimizer_backward", counted)
    params, cfg, w, state, frames, d_hops = _window_inputs(structure, length=4)
    window_gradient(params, cfg, w, state, frames[:4], d_hops[:4])
    assert len(calls) == 3


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_one_hop_window_has_a_zero_parameter_gradient(structure):
    params, cfg, w, state, frames, d_hops = _window_inputs(structure, length=1)
    loss, grads, _, _, _ = window_gradient(params, cfg, w, state, frames[:1], d_hops[:1])
    assert np.isfinite(loss)
    assert not grads.buffer.any()


def test_non_finite_window_frame_is_a_numeric_error():
    params, cfg, w, state, frames, d_hops = _window_inputs(DependencyStructure.diagonal())
    frames[2, 1, 5] = np.inf
    with pytest.raises(NumericError, match="non-finite input frame"):
        window_gradient(params, cfg, w, state, frames[:3], d_hops[:3])


def _force_chunks(monkeypatch, structure, hidden, k, scenes):
    """Shrink the chunk budget so a window's chunks hold ``scenes`` scenes."""
    per_scene = 48 * hidden * structure.group_count(k)
    monkeypatch.setattr(aflearn.training, "CHUNK_BYTES", scenes * per_scene)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_chunked_window_matches_the_one_chunk_window(structure, monkeypatch):
    # two carried batch-5 windows cut 2, 2, 1 against the same windows run
    # whole: the forward is per scene, so only the gradient's sum order moves
    k, hidden, batch, length = 64, 8, 5, 6
    params, cfg, w, state, frames, d_hops = _window_inputs(structure, k, hidden, batch,
                                                           length)
    params.buffer[...] += 0.05  # off the zero biases
    whole = WindowWorkspace(structure, hidden, k, batch, length)
    _force_chunks(monkeypatch, structure, hidden, k, 2)
    chunked = WindowWorkspace(structure, hidden, k, batch, length)
    assert (whole.chunk, chunked.chunk) == (batch, 2)
    chunks = []
    real = aflearn.training._chunk_gradient

    def counted(*args):
        chunks.append(args[3].shape[1])  # the chunk's frames (L, scenes, K)
        return real(*args)

    monkeypatch.setattr(aflearn.training, "_chunk_gradient", counted)
    carry_whole = carry_chunked = (w, state)
    for win in (slice(0, length), slice(length, 2 * length)):
        want = _returned_arrays(window_gradient(params, cfg, *carry_whole, frames[win],
                                                d_hops[win], whole))
        got = _returned_arrays(window_gradient(params, cfg, *carry_chunked, frames[win],
                                               d_hops[win], chunked))
        assert rel_error(got[1], want[1]) < 1e-15
        for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):  # loss, w, h0, h1, y
            assert np.array_equal(a, b)
        carry_whole = carry_chunked = (got[2], GroupState(got[3], got[4]))
    assert chunks == [5, 2, 2, 1] * 2


@pytest.mark.parametrize("label, hidden, chunk", [
    ("diagonal", 16, 2), ("diagonal", 8, 4), ("banded:4", 16, 4),
    ("block:4", 16, 8), ("block:4", 8, 8), ("banded:4", 8, 8)])
def test_window_chunk_rule_at_k512_batch_8(label, hidden, chunk):
    # the largest balanced chunk whose one step's gate gradients fit 1 MiB
    structure = DependencyStructure.parse(label)
    assert WindowWorkspace.chunk_size(structure, hidden, 512, 8) == chunk


# (fresh, reused-workspace) peak budgets of one window, in units of one
# (L, chunk, H, C) complex array; at (K, H, B) = (64, 8, 4) the chunk is the
# batch.  Measured: diagonal 11.51 and 0.92, block:4 16.94 and 2.34, banded:4
# 13.74 and 1.65; the workspace holds the backward's arrays too, so a reused
# one leaves mostly the forward's transients.
# The folded layer-0 end's weight gradient sums per-scene (3H, 5 * width)
# products, where the unfolded chain formed (H, 5 * width) and (3H, H) ones;
# ``layers._add_outer`` adds them scene by scene into one total, and forming
# the whole (B, 3H, 5 * width) stack instead costs block:4, H = 8 (5 * width
# = 20 > H) 0.28 more, reused.
# Block windows cost 0.3 more than when they were group-major: flattening a
# block's group-last windows, and scattering their gradient back, copies
# 5K values per scene where the group-major layout had views.
# Caching r*h per GRU layer, the layer-0 input or the output dense result
# again adds at least 1 unit each; keeping a banded window's L gathered
# feature windows adds 2.3 (reused: 5.9).
MEMORY_BUDGETS = {"diagonal": (12.5, 1.4), "block:4": (17.5, 2.7), "banded:4": (14.6, 2.3)}
# A batch-8 window in chunks of 2 against a batch-2 window, both fresh:
# measured 1.15 (diagonal), 1.10 (block:4) and 1.11 (banded:4) times the
# batch-2 peak, the batch-sized outputs and carried state making the
# difference; one batch-8 chunk would be 3.7 to 3.9 times it.
CHUNKED_PEAK_RATIO = 1.25


def _window_peak(structure, k, hidden, batch, length, workspace=None):
    """tracemalloc's peak over one warm ``window_gradient`` call."""
    params, cfg, w, state, frames, d_hops = _window_inputs(structure, k, hidden, batch, length)
    args = (params, cfg, w, state, frames[:length], d_hops[:length], workspace)
    window_gradient(*args)  # warm caches
    tracemalloc.start()
    try:
        window_gradient(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_window_cache_memory_budget():
    # with a reused workspace the call itself holds only its transient arrays
    k, hidden, batch, length = 64, 8, 4, 8
    for label, budgets in MEMORY_BUDGETS.items():
        structure = DependencyStructure.parse(label)
        workspace = WindowWorkspace(structure, hidden, k, batch, length)
        unit = length * workspace.chunk * hidden * structure.group_count(k) * 16
        for extra, budget in zip((None, workspace), budgets):
            peak = _window_peak(structure, k, hidden, batch, length, extra)
            assert peak / unit < budget, (label, "fresh" if extra is None else "reused",
                                          peak / unit)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_chunked_window_memory_follows_the_chunk(structure, monkeypatch):
    k, hidden, length = 64, 8, 8
    _force_chunks(monkeypatch, structure, hidden, k, 2)
    ratio = (_window_peak(structure, k, hidden, 8, length)
             / _window_peak(structure, k, hidden, 2, length))
    assert ratio < CHUNKED_PEAK_RATIO, ratio


def test_adam_step_first_update_is_lr_sized():
    adam = AdamState.zeros(4)
    flat = np.zeros(4)
    grad = np.array([1.0, -2.0, 3.0, 0.5])
    out = adam_step(flat, grad, adam, lr=0.1)
    # bias correction makes the first step ~lr * sign(grad)
    assert np.allclose(out, -0.1 * np.sign(grad), atol=1e-6)
    assert adam.step == 1


def test_clip_gradients_global_norm():
    g = {"a": np.array([3.0 + 0j]), "b": np.array([4.0j])}
    norm = clip_gradients(g, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    clipped = np.sqrt(sum(float(np.sum(v.real**2 + v.imag**2)) for v in g.values()))
    assert abs(clipped - 1.0) < 1e-12
    g2 = {"a": np.array([0.3 + 0j])}
    norm2 = clip_gradients(g2, max_norm=1.0)
    assert abs(norm2 - 0.3) < 1e-12
    assert g2["a"][0] == 0.3 + 0j


def test_clip_and_adam_update_the_parameter_buffer_in_place():
    structure = DependencyStructure.banded(4)
    cfg = OlsConfig(16)
    params = init_meta_params(structure, 4, seed=3)
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((3, 2, 16))
    d_hops = rng.standard_normal((3, 2, 8))
    w = np.zeros((2, 16), dtype=complex)
    state = GroupState.zeros(structure, 16, 4, batch_shape=(2,))
    _, grads, _, _, _ = window_gradient(params, cfg, w, state, frames, d_hops)

    max_norm = 1e-3
    assert clip_gradients(grads.tensors, max_norm) > max_norm
    # a clip that rebinds the views would leave the holder's buffer, which Adam reads, unclipped
    assert abs(np.linalg.norm(grads.buffer.view(np.float64)) - max_norm) < 1e-12 * max_norm
    before = params.to_flat()
    adam = AdamState.zeros(before.size)
    adam_step(params.buffer.view(np.float64), grads.buffer.view(np.float64), adam, lr=0.1)
    assert not np.array_equal(params.to_flat(), before)

    for holder in (params, grads):
        views = [*holder.tensors.values(), holder.sampler.down_kernel,
                 holder.sampler.up_kernel, holder.out_weight, holder.out_bias]
        views += [field for layer in holder.grus for field in vars(layer).values()]
        for view in views:
            assert np.shares_memory(view, holder.buffer)
        # the stacked gate fields and the named tensors are the same memory
        assert np.array_equal(holder.grus[1].b[8:], holder.tensors["gru1.b_c"])
        assert np.array_equal(holder.grus[0].u[4:8], holder.tensors["gru0.u_r"])


def test_batched_outputs_match_sequential_session():
    structure = DependencyStructure.banded(4)
    cfg = OlsConfig(64)
    params = init_meta_params(structure, 4, seed=5)
    spec = desk_spec(duration=0.2, rir_taps=32)
    scenes = [gen_scene(spec, seed) for seed in (0, 1, 2)]
    u = np.stack([s.far_end for s in scenes])
    d = np.stack([s.mic for s in scenes])
    stacked = run_learned_session(params, u, d, cfg)
    assert stacked.output.shape == (3, stacked.frames * cfg.hop)
    assert stacked.erle_db.shape == (3, stacked.frames)
    for i, scene in enumerate(scenes):
        res = run_learned_session(params, scene.far_end, scene.mic, cfg)
        assert stacked.frames == res.frames
        assert rel_error(stacked.output[i], res.output) < 1e-10
        assert rel_error(stacked.error[i], res.error) < 1e-10
        assert rel_error(stacked.weights[i], res.weights) < 1e-10
        np.testing.assert_allclose(stacked.erle_db[i], res.erle_db, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("algorithm", ["nlms", "rls", "kf"])
def test_batched_classic_outputs_match_sequential_session(algorithm):
    cfg = OlsConfig(64)
    spec = desk_spec(duration=0.2, rir_taps=32)
    scenes = [gen_scene(spec, seed) for seed in (0, 1, 2)]
    u = np.stack([s.far_end for s in scenes])
    d = np.stack([s.mic for s in scenes])
    stacked = run_classic_session(algorithm, u, d, cfg, snapshot_stride=7)
    assert stacked.weights.shape == (3, cfg.dft_size)
    for i, scene in enumerate(scenes):
        res = run_classic_session(algorithm, scene.far_end, scene.mic, cfg, snapshot_stride=7)
        assert stacked.frames == res.frames
        assert np.array_equal(stacked.output[i], res.output)
        assert np.array_equal(stacked.error[i], res.error)
        assert np.array_equal(stacked.weights[i], res.weights)
        assert np.array_equal(stacked.erle_db[i], res.erle_db)
        assert len(stacked.snapshots) == len(res.snapshots)
        for (t, w_stack), (t1, w) in zip(stacked.snapshots, res.snapshots):
            assert t == t1 and np.array_equal(w_stack[i], w)


def test_scene_scores_keep_input_order_across_lengths():
    cfg = OlsConfig(64)
    params = init_meta_params(DependencyStructure.block(4), 4, seed=2)
    short, long = desk_spec(duration=0.2, rir_taps=32), desk_spec(duration=0.3, rir_taps=32)
    silent = gen_scene(short, 9, far_end=np.zeros(short.num_samples))
    scenes = [gen_scene(short, 0), gen_scene(long, 1), gen_scene(long, 2), silent,
              gen_scene(short, 3)]
    calls = []

    def session(u, d):
        calls.append(u.shape[0])
        return run_learned_session(params, u, d, cfg)

    scores = scene_scores(session, scenes, cfg, chunk=3)
    assert calls == [1, 2, 2]  # runs of equal length, in lockstep chunks
    assert [frames for _, _, frames in scores] == [100, 150, 150, 100, 100]
    assert scores[3][0] is None  # no audible echo, no SERLE
    for scene, (serle, erle, _) in zip(scenes, scores):
        single = run_learned_session(params, scene.far_end, scene.mic, cfg)
        assert erle == single.mean_erle_db
        if serle is not None:
            echo = scene.echo[: single.output.size]
            assert serle == serle_db(echo, echo - single.output, cfg.hop)


def test_evaluate_mean_serle_runs():
    structure = DependencyStructure.block(4)
    cfg = OlsConfig(64)
    params = init_meta_params(structure, 4, seed=6)
    spec = desk_spec(duration=0.2, rir_taps=32)
    scenes = [gen_scene(spec, seed) for seed in range(3)]
    score = evaluate_mean_serle(params, scenes, cfg)
    assert np.isfinite(score)


@pytest.mark.slow
def test_train_update_rule_miniature():
    structure = DependencyStructure.block(4)
    cfg = OlsConfig(64)
    spec = desk_spec(duration=0.2, rir_taps=32)
    schedule = TrainSchedule(lr=1e-3, clip=10.0)
    params, history = train_update_rule(
        structure,
        hidden_size=4,
        cfg=cfg,
        scene_spec=spec,
        train_seeds=range(8),
        val_seeds=range(100, 103),
        schedule=schedule,
        epochs=2,
        batch_size=4,
        unroll=5,
        init_seed=7,
    )
    assert len(history) == 2
    for row in history:
        assert np.isfinite(row["train_loss"])
        assert np.isfinite(row["val_serle_db"])
        assert row["lr"] == 1e-3
    fresh = init_meta_params(structure, 4, seed=7)
    moved = sum(
        float(np.abs(params.tensors[n] - fresh.tensors[n]).max()) for n in params.tensors
    )
    assert moved > 0.0


def test_unroll_longer_than_a_scene_is_a_config_error():
    # 0.05 s at 16 kHz is 25 whole hops of 32 samples: a 25-hop window fits ...
    spec = desk_spec(duration=0.05, rir_taps=16)
    args = (DependencyStructure.block(4), 4, OlsConfig(64), spec, [0, 1], [2])
    _, history = train_update_rule(*args, epochs=1, batch_size=2, unroll=25)
    assert np.isfinite(history[0]["train_loss"])
    # ... and a 30-hop one fails before the first epoch, naming both lengths
    with pytest.raises(ConfigError) as info:
        train_update_rule(*args, epochs=2, batch_size=2, unroll=30)
    assert info.value.field == "unroll"
    assert "30" in info.value.message and "25" in info.value.message


def test_train_schedule_coerces_its_fields():
    schedule = TrainSchedule(lr=1, lr_decay=1, clip=0)  # 0 turns clipping off
    assert (schedule.lr, schedule.lr_decay, schedule.clip) == (1.0, 1.0, 0.0)
    assert all(type(x) is float for x in (schedule.lr, schedule.lr_decay, schedule.clip))
    assert type(TrainSchedule(plateau_patience=np.int64(3)).plateau_patience) is int


BAD_SCHEDULES = [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -float("inf")), ("lr", -1e-3),
    ("lr", "0.1"), ("lr_decay", -0.1), ("lr_decay", 1.5), ("lr_decay", float("nan")),
    ("plateau_patience", 0), ("plateau_patience", 2.0), ("plateau_patience", True),
    ("stop_patience", 0), ("stop_patience", 1.5), ("clip", -1.0), ("clip", float("inf")),
]


@pytest.mark.parametrize("field, value", BAD_SCHEDULES)
def test_train_schedule_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError) as info:
        TrainSchedule(**{field: value})
    assert info.value.field == f"schedule.{field}"


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("batch_size", -2),
                                          ("unroll", 0), ("unroll", -3)])
def test_empty_batch_or_window_is_a_config_error(field, value):
    args = (DependencyStructure.block(4), 4, OlsConfig(64),
            desk_spec(duration=0.05, rir_taps=16), [0, 1], [2])
    with pytest.raises(ConfigError) as info:
        train_update_rule(*args, epochs=1, **{"batch_size": 2, "unroll": 5, field: value})
    assert info.value.field == field
    assert str(value) in info.value.message


def test_epoch_seconds_survive_a_wall_clock_step_back(monkeypatch):
    # the wall clock reads 1000 s when the epoch starts and 10 s from then on
    readings = iter([1000.0])
    clock = SimpleNamespace(time=lambda: next(readings, 10.0), perf_counter=time.perf_counter)
    monkeypatch.setattr(aflearn.training, "time", clock)
    _, history = train_update_rule(DependencyStructure.block(4), 4, OlsConfig(64),
                                   desk_spec(duration=0.2, rir_taps=32), train_seeds=[5, 6],
                                   val_seeds=[100], epochs=1, batch_size=2, unroll=5)
    assert history[0]["seconds"] >= 0


def test_empty_train_seeds_is_a_config_error():
    with pytest.raises(ConfigError) as info:
        train_update_rule(DependencyStructure.block(4), 4, OlsConfig(64),
                          desk_spec(duration=0.05, rir_taps=16), [], [2], epochs=1,
                          batch_size=2, unroll=5)
    assert info.value.field == "train_seeds"


@pytest.mark.parametrize("bad", ["nan", "inf", "loss"])
def test_non_finite_gradient_stops_training_before_the_update(bad, monkeypatch):
    real = aflearn.training.window_gradient
    calls = []

    def poisoned(*args, **kwargs):
        loss, grads, w, state, y_hops = real(*args, **kwargs)
        calls.append(loss)
        if len(calls) == 2:
            if bad == "loss":
                raise NumericError("non-finite training loss")
            grads.tensors["gru1.b_c"][0] = float(bad)
        return loss, grads, w, state, y_hops

    monkeypatch.setattr(aflearn.training, "window_gradient", poisoned)
    with pytest.raises(NumericError) as info:
        train_update_rule(DependencyStructure.block(4), 4, OlsConfig(64),
                          desk_spec(duration=0.2, rir_taps=32), train_seeds=[5, 6],
                          val_seeds=[100], epochs=1, batch_size=2, unroll=5, init_seed=7)
    # raised where the gradient appeared: before Adam, so no later window ran
    assert len(calls) == 2
    message = str(info.value)
    assert "epoch 0" in message and "hop 5" in message
    seeds = re.search(r"scene seeds \[([0-9, ]+)\]", message).group(1)
    assert sorted(int(x) for x in seeds.split(",")) == [5, 6]


def test_silent_validation_set_fails_before_the_first_window(monkeypatch):
    # at 0.2 s, desk seeds 105 and 109 draw a far end that pauses throughout
    spec = desk_spec(duration=0.2, rir_taps=32)
    for seed in (105, 109):
        assert not gen_scene(spec, seed).echo.any()
    real = aflearn.training.window_gradient
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(aflearn.training, "window_gradient", counted)
    args = (DependencyStructure.block(4), 4, OlsConfig(64), spec)
    with pytest.raises(MetricUndefinedError) as info:
        train_update_rule(*args, train_seeds=[2, 3], val_seeds=[105, 109], epochs=1,
                          batch_size=2, unroll=5)
    assert calls == []
    assert "[105, 109]" in str(info.value)
    # one silent scene among audible ones is skipped, as evaluate_mean_serle does
    _, history = train_update_rule(*args, train_seeds=[2, 3], val_seeds=[105, 100], epochs=1,
                                   batch_size=2, unroll=5)
    assert calls and np.isfinite(history[0]["val_serle_db"])


def _resume_state(params, epoch):
    return {"params": params, "epoch": epoch, "lr": 1e-3, "best_val": 0.0, "since_improve": 0}


@pytest.mark.parametrize("structure, hidden", [(DependencyStructure.banded(4), 4),
                                               (DependencyStructure.block(4), 8)],
                         ids=["structure", "hidden_size"])
def test_resume_of_another_rule_fails_before_a_scene_is_drawn(structure, hidden, monkeypatch):
    drawn = []
    monkeypatch.setattr(aflearn.training, "gen_scene", lambda *args: drawn.append(args))
    resume = _resume_state(init_meta_params(structure, hidden, seed=0), epoch=0)
    with pytest.raises(ConfigError) as info:
        train_update_rule(DependencyStructure.block(4), 4, OlsConfig(64),
                          desk_spec(duration=0.2, rir_taps=32), [5, 6], [100], epochs=3,
                          batch_size=2, unroll=5, resume=resume)
    assert info.value.field == "resume"
    assert structure.label in info.value.message and f"H={hidden}" in info.value.message
    assert drawn == []


@pytest.mark.parametrize("epoch, epochs", [(1, 2), (4, 3)])
def test_resume_with_no_epoch_left_fails_before_a_scene_is_drawn(epoch, epochs, monkeypatch):
    drawn = []
    monkeypatch.setattr(aflearn.training, "gen_scene", lambda *args: drawn.append(args))
    structure = DependencyStructure.block(4)
    resume = _resume_state(init_meta_params(structure, 4, seed=0), epoch)
    with pytest.raises(ConfigError) as info:
        train_update_rule(structure, 4, OlsConfig(64), desk_spec(duration=0.2, rir_taps=32),
                          [5, 6], [100], epochs=epochs, batch_size=2, unroll=5, resume=resume)
    assert info.value.field == "epochs"
    assert f"epoch {epoch} of 0..{epochs - 1}" in info.value.message
    assert drawn == []
