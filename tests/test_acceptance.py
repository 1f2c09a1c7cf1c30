"""Capability gate: one test per advertised guarantee, with pinned tolerances.

Every guarantee is checked against an oracle that shares no code with the
library: direct convolution, central finite differences, brute-force Jacobian
probing, closed-form operation counts, direct metric formulas, and re-run
byte comparison.  The desk-scale training comparison carries the ``nightly``
marker (roughly two hours of CPU); everything else completes in minutes and
runs per-commit.
"""

import hashlib

import numpy as np
import pytest

from aflearn import (
    DependencyStructure,
    FlopModel,
    OlsConfig,
    TrainSchedule,
    evaluate_mean_serle,
    load_checkpoint,
    misalignment_db,
    run_classic_session,
    save_checkpoint,
    serle_db,
    si_sdr_db,
    train_update_rule,
)
from aflearn.cli import main
from aflearn.layers import ComplexGruLayer, GroupSampler, dense, log_scale, log_scale_backward
from aflearn.ols import af_error, filter_gradient, hop_frames, ols_apply
from aflearn.optimizer import GroupState, init_meta_params, optimizer_step
from aflearn.scenes import desk_spec, gen_scene, write_wav
from aflearn.training import window_gradient

from oracles import (counted_macs, fd_gradient, gru_backward_with_input, reference_window,
                     rel_error)

ALL_STRUCTURES = [
    DependencyStructure.diagonal(),
    DependencyStructure.block(4),
    DependencyStructure.banded(4),
]


# ---------------------------------------------------------------------------
# 1. Streaming filter output equals time-domain convolution.
# ---------------------------------------------------------------------------

def test_streaming_filter_matches_direct_convolution():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in (16, 64):
        cfg = OlsConfig(k)
        for _ in range(50):
            taps = rng.standard_normal(cfg.hop)
            w = np.fft.fft(np.concatenate([taps, np.zeros(cfg.hop)]))
            x = rng.standard_normal(6 * k + cfg.hop)
            hops = [ols_apply(cfg, w, frame)[0] for frame in hop_frames(x, cfg)]
            y = np.concatenate(hops)
            ref = np.convolve(x, taps)[: y.size]
            worst = max(worst, rel_error(y, ref))
    assert worst < 1e-8
    print(f"\n[ols vs convolution] worst rel err {worst:.2e} over 100 pairs")


# ---------------------------------------------------------------------------
# 2. Gradient suite: analytic adjoints match central finite differences.
# ---------------------------------------------------------------------------

def _probe_loss(out, c):
    """Real scalar Re<c, out>, whose gradient w.r.t. ``out`` is exactly c."""
    return float(np.sum(np.real(np.conj(c) * out)))


def test_filter_gradient_matches_finite_differences():
    # the residual power is quadratic in the filter, so central differences
    # are exact up to round-off; probe 25 directions inside the constrained
    # tap subspace where the projected gradient lives
    rng = np.random.default_rng(21)
    cfg = OlsConfig(16)
    frame = rng.standard_normal(cfg.dft_size)
    d_hop = rng.standard_normal(cfg.hop)
    u_freq = np.fft.fft(frame)
    w = np.fft.fft(np.concatenate([rng.standard_normal(cfg.hop), np.zeros(cfg.hop)]))

    def loss(w_probe):
        y_hop, _ = ols_apply(cfg, w_probe, frame)
        return float(np.sum((d_hop - y_hop) ** 2))

    y_hop, _ = ols_apply(cfg, w, frame)
    e_hop, _ = af_error(d_hop, y_hop, cfg)
    grad = filter_gradient(u_freq, e_hop, cfg)

    # conjugate-coordinate convention: moving along v changes the loss by
    # 2 Re<g, v>, twice the real inner product with the returned gradient
    eps = 1e-4
    worst = 0.0
    for _ in range(25):
        v_taps = rng.standard_normal(cfg.hop) + 1j * rng.standard_normal(cfg.hop)
        v = np.fft.fft(np.concatenate([v_taps, np.zeros(cfg.hop)]))
        fd = (loss(w + eps * v) - loss(w - eps * v)) / (2.0 * eps)
        analytic = 2.0 * float(np.sum(np.real(np.conj(grad) * v)))
        worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-30))
    assert worst < 1e-5
    print(f"\n[filter gradient] worst directional rel err {worst:.2e}")


def test_log_compression_backward_matches_fd():
    rng = np.random.default_rng(22)
    z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    g = log_scale_backward(z, c)
    fd = fd_gradient(lambda: _probe_loss(log_scale(z), c), z)
    assert rel_error(g, fd) < 1e-5


def test_gru_layer_backward_matches_fd():
    rng = np.random.default_rng(23)
    layer = ComplexGruLayer.init(rng, input_size=3, hidden_size=4)
    x = 0.5 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    h = 0.5 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))

    h_new, zr, cand = layer.step(x, h)
    grads = ComplexGruLayer(*(np.zeros_like(t) for t in (layer.w, layer.u, layer.b)))
    g_x, g_h = gru_backward_with_input(layer, c, x, h, zr, cand, grads)

    worst = 0.0

    def loss():
        return _probe_loss(layer.step(x, h)[0], c)

    worst = max(worst, rel_error(g_x, fd_gradient(loss, x)))
    worst = max(worst, rel_error(g_h, fd_gradient(loss, h)))
    for name, g in vars(grads).items():
        fd = fd_gradient(loss, getattr(layer, name))
        worst = max(worst, rel_error(g, fd))
    assert worst < 1e-5
    print(f"\n[gru layer] worst rel err {worst:.2e} over inputs, state, 9 tensors")


@pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.label)
def test_group_sampler_backward_matches_fd(structure):
    rng = np.random.default_rng(24)
    k, h = 8, 3
    sampler = GroupSampler.init(rng, structure, h)
    feats = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))

    # each backward is folded with the layer on its far side: a GRU layer's
    # input product w0 on the group inputs, the output dense layer (weight,
    # bias) under the up-projection
    w0 = rng.standard_normal((3 * h, h)) + 1j * rng.standard_normal((3 * h, h))
    c_gates = rng.standard_normal((3 * h, structure.group_count(k))) + 1j * rng.standard_normal(
        (3 * h, structure.group_count(k))
    )
    grads = GroupSampler(structure, np.zeros_like(sampler.down_kernel),
                         np.zeros_like(sampler.up_kernel))
    g_w0 = np.zeros_like(w0)
    g_feats = sampler.downsample_backward(c_gates, sampler.windows(feats), w0, grads, g_w0)
    loss_down = lambda: _probe_loss(w0 @ sampler.downsample(feats), c_gates)
    assert rel_error(g_feats, fd_gradient(loss_down, feats)) < 1e-5
    assert rel_error(grads.down_kernel, fd_gradient(loss_down, sampler.down_kernel)) < 1e-5
    assert rel_error(g_w0, fd_gradient(loss_down, w0)) < 1e-5

    groups = sampler.downsample(feats)
    weight = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    bias = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    g_weight, g_bias = np.zeros_like(weight), np.zeros_like(bias)
    c_bins = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    g_groups = sampler.upsample_backward(c_bins, groups, weight, bias, grads, g_weight, g_bias)
    loss_up = lambda: _probe_loss(sampler.upsample(dense(groups, weight, bias)), c_bins)
    assert rel_error(g_groups, fd_gradient(loss_up, groups)) < 1e-5
    assert rel_error(grads.up_kernel, fd_gradient(loss_up, sampler.up_kernel)) < 1e-5
    assert rel_error(g_weight, fd_gradient(loss_up, weight)) < 1e-5
    assert rel_error(g_bias, fd_gradient(loss_up, bias)) < 1e-5


@pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.label)
def test_unrolled_meta_gradient_matches_fd(structure):
    # three chained update steps through the filter recursion; the gradient
    # feature channel is treated as a constant by the rule, so the
    # finite-difference loss pins it at the unperturbed trajectory's values
    cfg = OlsConfig(8)
    hidden, unroll = 4, 3
    params = init_meta_params(structure, hidden, seed=31)
    rng = np.random.default_rng(32)
    frames = rng.standard_normal((unroll, 1, cfg.dft_size))
    d_hops = 0.5 * rng.standard_normal((unroll, 1, cfg.hop))
    w0 = 0.1 * (rng.standard_normal((1, cfg.dft_size))
                + 1j * rng.standard_normal((1, cfg.dft_size)))
    c = structure.group_count(cfg.dft_size)
    state0 = GroupState(
        h0=0.3 * (rng.standard_normal((1, hidden, c)) + 1j * rng.standard_normal((1, hidden, c))),
        h1=0.3 * (rng.standard_normal((1, hidden, c)) + 1j * rng.standard_normal((1, hidden, c))),
    )

    base_loss, _, frozen = reference_window(params, cfg, w0, state0, frames, d_hops)
    loss_ref, grads, _, _, _ = window_gradient(params, cfg, w0, state0, frames, d_hops)
    assert abs(loss_ref - base_loss) < 1e-12

    worst = 0.0
    for name in params.tensors:
        fd = fd_gradient(lambda: reference_window(params, cfg, w0, state0, frames, d_hops,
                                                  frozen)[0], params.tensors[name], eps=1e-6)
        err = rel_error(grads.tensors[name], fd)
        worst = max(worst, err)
        assert err < 1e-3, name
    print(f"\n[bptt {structure.label}] worst tensor rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Group-structure laws and update locality.
# ---------------------------------------------------------------------------

def _expected_windows(structure, k):
    """Window membership restated from the layout law, not from the library."""
    if structure.kind == "diagonal":
        return [[i] for i in range(k)]
    b = structure.width
    if structure.kind == "block":
        return [list(range(s, s + b)) for s in range(0, k, b)]
    return [[(s + t) % k for t in range(b)] for s in range(0, k, b // 2)]


def test_group_count_follows_structure_law():
    for k in (8, 16, 32, 64):
        assert DependencyStructure.diagonal().group_count(k) == k
        for b in (2, 4, 8):
            assert DependencyStructure.block(b).group_count(k) == k // b
            assert DependencyStructure.banded(b).group_count(k) == 2 * k // b


@pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.label)
def test_update_jacobian_sparsity_matches_layout(structure):
    k, h = 16, 3
    params = init_meta_params(structure, h, seed=41)
    rng = np.random.default_rng(42)
    xi = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
    state = GroupState.zeros(structure, k, h)
    delta0, _ = optimizer_step(params, xi, state)

    windows = _expected_windows(structure, k)
    expected = np.zeros((k, k), dtype=bool)
    for win in windows:
        for i in win:
            for j in win:
                expected[i, j] = True

    coupled = np.empty(0)
    uncoupled = np.empty(0)
    for j in range(k):
        probe = xi.copy()
        probe[:, j] += 1e-3 * (1.0 + 1.0j)
        delta_j, _ = optimizer_step(params, probe, GroupState.zeros(structure, k, h))
        diff = np.abs(delta_j - delta0)
        coupled = np.append(coupled, diff[expected[:, j]])
        uncoupled = np.append(uncoupled, diff[~expected[:, j]])

    # bins outside a shared window run on bit-identical inputs: exactly zero
    assert uncoupled.size == 0 or uncoupled.max() == 0.0
    assert coupled.min() > 1e-12

    if structure.kind == "banded":
        # each input bin touches the union of its two covering windows
        span = 3 * structure.width // 2
        assert (expected.sum(axis=0) == span).all()
    print(f"\n[{structure.label}] coupled min {coupled.min():.1e}, "
          f"uncoupled max {0.0 if uncoupled.size == 0 else uncoupled.max():.1e}")


# ---------------------------------------------------------------------------
# 4. Classical baselines identify a static path and track an abrupt change.
# ---------------------------------------------------------------------------

def _identification_spec():
    return desk_spec(
        near_speech_prob=0.0, noise_prob=0.0, nonlinearity_probs={"identity": 1.0}
    )


def test_classic_rules_identify_static_path():
    cfg = OlsConfig(512)
    scene = gen_scene(_identification_spec(), seed=42)
    w_true = scene.path_spectrum(cfg)
    bounds = {"nlms": -20.0, "rls": -30.0, "kf": -30.0}
    reached = {}
    for alg, bound in bounds.items():
        result = run_classic_session(alg, scene.far_end, scene.mic, cfg)
        reached[alg] = misalignment_db(result.weights, w_true)
        assert reached[alg] <= bound, f"{alg}: {reached[alg]:.1f} dB > {bound} dB"
    print("\n[identification] " + "  ".join(
        f"{alg} {db:+.1f} dB" for alg, db in reached.items()))


def test_kalman_reconverges_after_abrupt_path_change():
    cfg = OlsConfig(512)
    scene = gen_scene(_identification_spec(), seed=42, path_change_at=5.0)
    result = run_classic_session("kf", scene.far_end, scene.mic, cfg)
    mis = misalignment_db(result.weights, scene.path_spectrum(cfg, which=1))
    assert mis <= -30.0
    print(f"\n[kalman re-convergence] {mis:+.1f} dB vs the post-change path")


# ---------------------------------------------------------------------------
# 5. Cost model: counted multiplies equal the closed form exactly.
# ---------------------------------------------------------------------------

def test_flop_count_matches_instrumented_execution():
    rng = np.random.default_rng(51)
    checked = 0
    for k in (8, 16, 32, 64):
        layouts = [DependencyStructure.diagonal()]
        for b in (2, 4, 8):
            layouts += [DependencyStructure.block(b), DependencyStructure.banded(b)]
        for structure in layouts:
            for h in (2, 5):
                params = init_meta_params(structure, h, seed=51)
                xi = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
                with counted_macs() as counted:
                    optimizer_step(params, xi, GroupState.zeros(structure, k, h))
                assert counted.total == FlopModel(structure, k, h).total
                checked += 1
    print(f"\n[flops] counted MACs == closed form on {checked} layouts")


def test_diagonal_recurrent_cost_scales_quadratically_in_state_size():
    for h in (2, 4, 8, 16):
        small = FlopModel(DependencyStructure.diagonal(), 512, h)
        large = FlopModel(DependencyStructure.diagonal(), 512, 2 * h)
        assert large.gru_term == 4 * small.gru_term
        assert large.output_term == 4 * small.output_term
        assert large.sampler_term == 2 * small.sampler_term


def test_grouped_structures_cost_less_per_frame_at_equal_state_size():
    k, h = 512, 32
    base = FlopModel(DependencyStructure.diagonal(), k, h).total
    for b in (4, 8):
        block = FlopModel(DependencyStructure.block(b), k, h).total
        banded = FlopModel(DependencyStructure.banded(b), k, h).total
        assert block < base and banded < base
        assert banded == 2 * block
    print(f"\n[flops @ K=512 H=32] diagonal {base:,}, "
          f"block(8) {FlopModel(DependencyStructure.block(8), k, h).total:,}, "
          f"banded(8) {FlopModel(DependencyStructure.banded(8), k, h).total:,}")


# ---------------------------------------------------------------------------
# 6. Desk-scale learning: trained rules beat NLMS at its default step size 0.5.
# ---------------------------------------------------------------------------

@pytest.mark.nightly
def test_trained_structures_beat_nlms_on_held_out_scenes():
    cfg = OlsConfig(512)
    spec = desk_spec()
    train_seeds = list(range(200))
    val_seeds = [1_000_000 + i for i in range(20)]
    test_scenes = [gen_scene(spec, 2_000_000 + i) for i in range(20)]

    nlms_scores = []
    for scene in test_scenes:
        result = run_classic_session("nlms", scene.far_end, scene.mic, cfg)
        echo = scene.echo[: result.output.size]
        nlms_scores.append(serle_db(echo, echo - result.output, cfg.hop))
    nlms = float(np.mean(nlms_scores))
    print(f"\n[nightly] nlms held-out mean {nlms:+.2f} dB (bar {nlms + 2.0:+.2f} dB)")

    scores = {}
    for structure in ALL_STRUCTURES:
        params, _ = train_update_rule(
            structure, 16, cfg, spec, train_seeds, val_seeds,
            schedule=TrainSchedule(lr=1e-3), epochs=6, batch_size=8, unroll=20,
            init_seed=0,
            log=lambda h, s=structure.label: print(
                f"[nightly {s}] epoch {h['epoch']} train {h['train_loss']:+.3f} "
                f"val {h['val_serle_db']:+.2f} dB ({h['seconds']:.0f}s)", flush=True),
        )
        scores[structure.label] = evaluate_mean_serle(params, test_scenes, cfg)
        print(f"[nightly] {structure.label} held-out mean "
              f"{scores[structure.label]:+.2f} dB", flush=True)

    margin = scores["banded:4"] - scores["diagonal"]
    print(f"[nightly] banded - diagonal margin {margin:+.2f} dB "
          f"(soft expectation >= -0.25 dB; grouped rules should not trail)")
    for label, score in scores.items():
        assert score >= nlms + 2.0, (
            f"{label}: {score:+.2f} dB does not clear nlms {nlms:+.2f} dB by 2 dB"
        )


# ---------------------------------------------------------------------------
# 7. Metric oracles: direct-formula reimplementations.
# ---------------------------------------------------------------------------

def test_serle_matches_direct_reimplementation():
    rng = np.random.default_rng(71)
    frame = 64
    echo = rng.standard_normal(40 * frame)
    echo[5 * frame : 9 * frame] = 0.0  # force discarded silent frames
    residual = echo - 0.8 * echo + 0.05 * rng.standard_normal(echo.size)

    vals = []
    powers = [float(np.sum(echo[i * frame : (i + 1) * frame] ** 2)) for i in range(40)]
    threshold = 1e-6 * np.mean(powers)
    for i in range(40):
        if powers[i] <= threshold:
            continue
        res = float(np.sum(residual[i * frame : (i + 1) * frame] ** 2))
        vals.append(np.clip(10.0 * np.log10(powers[i] / res), -80.0, 80.0))
    direct = float(np.mean(vals))

    assert abs(serle_db(echo, residual, frame) - direct) < 1e-10
    print(f"\n[serle oracle] {direct:+.4f} dB, silent frames skipped: 4")


def test_si_sdr_matches_direct_formula_and_invariances():
    rng = np.random.default_rng(72)
    s = rng.standard_normal(4000)
    est = 0.7 * s + 0.3 * rng.standard_normal(4000)

    a = float(est @ s) / float(s @ s)
    direct = np.clip(10.0 * np.log10(np.sum((a * s) ** 2) / np.sum((a * s - est) ** 2)),
                     -80.0, 80.0)
    assert abs(si_sdr_db(est, s) - direct) < 1e-10

    assert abs(si_sdr_db(3.7 * est, s) - si_sdr_db(est, s)) < 1e-6

    noise = rng.standard_normal(4000)
    noise -= (float(noise @ s) / float(s @ s)) * s
    noise *= np.sqrt(0.01 * float(s @ s) / float(noise @ noise))
    twenty = si_sdr_db(s + noise, s)
    assert abs(twenty - 20.0) < 1e-6
    print(f"\n[si-sdr oracle] direct {direct:+.4f} dB, orthogonal case {twenty:.8f} dB")


# ---------------------------------------------------------------------------
# 8. Determinism and persistence.
# ---------------------------------------------------------------------------

def _tiny_training_run(path):
    cfg = OlsConfig(64)
    spec = desk_spec(duration=0.6, rir_taps=32, rt60_range=(0.02, 0.04))
    params, _ = train_update_rule(
        DependencyStructure.block(4), 4, cfg, spec, list(range(4)), [100, 101],
        schedule=TrainSchedule(lr=1e-3), epochs=2, batch_size=2, unroll=8, init_seed=0,
    )
    save_checkpoint(path, params, dft_size=cfg.dft_size, metadata={"epochs": 2})
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixed_seed_training_reproduces_checkpoint_bytes(tmp_path):
    first = _tiny_training_run(tmp_path / "a.ckpt")
    second = _tiny_training_run(tmp_path / "b.ckpt")
    assert first == second
    print(f"\n[determinism] identical checkpoint sha256 {first[:16]}…")


def test_checkpoint_roundtrip_is_byte_identical(tmp_path):
    _tiny_training_run(tmp_path / "a.ckpt")
    params, header = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "b.ckpt", params, dft_size=header.get("dft_size"),
                    metadata=header.get("metadata"))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_echo_canceller_output_is_bit_identical(tmp_path):
    scene = gen_scene(desk_spec(duration=1.0, rir_taps=64, rt60_range=(0.02, 0.04)), seed=8)
    farend = tmp_path / "farend.wav"
    mic = tmp_path / "mic.wav"
    write_wav(farend, scene.far_end, scene.spec.sample_rate)
    write_wav(mic, scene.mic, scene.spec.sample_rate)
    outputs = []
    for name in ("a.wav", "b.wav"):
        out = tmp_path / name
        assert main(["cancel", str(farend), str(mic), "kf", str(out),
                     "--dft-size", "128"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
