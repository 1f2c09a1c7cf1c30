"""Full-signal sessions: outputs, telemetry, snapshots, and failure frames."""

import json
import tracemalloc

import numpy as np
import pytest

import aflearn.session
from aflearn.errors import ConfigError, NumericError
from aflearn.classic import make_kf_state
from aflearn.metrics import erle_curve_db
from aflearn.ols import OlsConfig, hop_frames, ols_apply
from aflearn.optimizer import init_meta_params
from aflearn.session import (
    _BLOCK_HOPS as BLOCK,
    CLASSIC_ALGORITHMS,
    run_classic_session,
    run_learned_session,
)
from aflearn.structures import DependencyStructure

from oracles import hop_by_hop_session, rel_error

CFG = OlsConfig(32)


def _signals(n, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    h = rng.standard_normal(CFG.hop) * 0.5 ** np.arange(CFG.hop)
    d = np.convolve(u, h)[:n]
    return u, d


def test_session_outputs_reconstruct_microphone():
    u, d = _signals(10 * CFG.hop + 5)
    result = run_classic_session("nlms", u, d, CFG)
    assert result.frames == 10
    assert result.error.size == result.output.size == 10 * CFG.hop
    # the residual is defined as microphone minus filter output, sample for sample
    np.testing.assert_allclose(result.error + result.output, d[: 10 * CFG.hop], atol=1e-12)
    assert result.erle_db.shape == (10,)
    assert np.isfinite(result.mean_erle_db)


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
def test_classic_algorithms_run_and_adapt(algorithm):
    u, d = _signals(80 * CFG.hop)
    result = run_classic_session(algorithm, u, d, CFG)
    # all baselines should attenuate a static linear echo within 80 frames
    assert float(np.mean(result.erle_db[-10:])) > 10.0


def test_unknown_algorithm_rejected():
    u, d = _signals(4 * CFG.hop)
    with pytest.raises(ConfigError):
        run_classic_session("lms", u, d, CFG)


def test_mismatched_lengths_rejected():
    u, d = _signals(4 * CFG.hop)
    with pytest.raises(ValueError):
        run_classic_session("nlms", u, d[:-1], CFG)
    # a stack is (batch, samples); a third axis is not a session
    with pytest.raises(ValueError):
        run_classic_session("nlms", u.reshape(1, 1, -1), d.reshape(1, 1, -1), CFG)


def test_unknown_hyperparameter_names_the_field():
    u, d = _signals(4 * CFG.hop)
    with pytest.raises(ConfigError) as info:
        run_classic_session("rls", u, d, CFG, hyper={"step_size": 0.5})
    assert info.value.field == "hyper"


def test_telemetry_stream_one_row_per_frame(tmp_path):
    u, d = _signals(12 * CFG.hop)
    path = tmp_path / "telemetry.jsonl"
    result = run_classic_session("nlms", u, d, CFG, telemetry_path=str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == result.frames
    assert [row["frame"] for row in rows] == list(range(result.frames))
    for row, erle in zip(rows, result.erle_db):
        assert set(row) == {"frame", "erle_db", "residual_power"}
        assert abs(row["erle_db"] - erle) < 1e-3
        assert row["residual_power"] >= 0.0


def test_per_hop_erle_is_the_metric_and_silent_hops_read_0_db(tmp_path):
    # a recording that starts with digital silence: where the desired hop and
    # the residual are both exactly zero, a session's ERLE and its telemetry
    # read 0 dB, as metrics.erle_curve_db does, not a cancelled echo's +80 dB
    silent = 3
    u, d = _signals(20 * CFG.hop)
    u, d = (np.concatenate([np.zeros(silent * CFG.hop), x]) for x in (u, d))
    path = tmp_path / "telemetry.jsonl"
    result = run_classic_session("nlms", u, d, CFG, telemetry_path=str(path))
    assert np.array_equal(result.erle_db, erle_curve_db(d, result.error, CFG.hop))
    assert np.array_equal(result.erle_db[:silent], np.zeros(silent))
    assert np.all(result.erle_db[silent + 1 :] > 0.0)  # hop `silent` is filtered by w = 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["erle_db"] for row in rows] == np.round(result.erle_db, 4).tolist()
    assert [row["residual_power"] for row in rows[:silent]] == [0.0] * silent

    # a lockstep stack scores each scene's hops the same way
    params = init_meta_params(DependencyStructure.diagonal(), 4, seed=1)
    stack = run_learned_session(params, np.stack([u, u[::-1]]), np.stack([d, d[::-1]]), CFG)
    for erle, d_scene, e_scene in zip(stack.erle_db, (d, d[::-1]), stack.error):
        assert np.array_equal(erle, erle_curve_db(d_scene, e_scene, CFG.hop))
    assert np.array_equal(stack.erle_db[0, :silent], np.zeros(silent))


def test_snapshots_taken_every_stride():
    u, d = _signals(25 * CFG.hop)
    result = run_classic_session("nlms", u, d, CFG, snapshot_stride=10)
    assert [t for t, _ in result.snapshots] == [9, 19]
    for _, w in result.snapshots:
        assert w.shape == (CFG.dft_size,)
        assert np.iscomplexobj(w)


# hyperparameters under which a silent far-end frame's update divides 0/0
DEGENERATE = {"nlms": {"eps": 0.0}, "rls": {"forget": 0.0, "eps": 0.0},
              "kf": {"obs_noise": 0.0, "p0": 0.0, "process_noise": 0.0}}


def test_numeric_failure_reports_frame_index(monkeypatch):
    # a classic update that goes non-finite is reported at its own hop, not
    # at the next hop's residual
    u, d = _signals(6 * CFG.hop)
    u[: CFG.hop] = 0.0  # a silent first frame
    for algorithm, hyper in DEGENERATE.items():
        with pytest.raises(NumericError, match="non-finite filter update") as info, \
                np.errstate(invalid="ignore", divide="ignore"):
            run_classic_session(algorithm, u, d, CFG, hyper=hyper)
        assert info.value.frame == 0, algorithm
    # a NaN far-end sample reaches the first frame whose window holds it, in
    # the first block of hops and in the second
    params = init_meta_params(DependencyStructure.block(4), 4, seed=0)
    for hops, bad in ((6, 3), (BLOCK + 8, BLOCK + 3)):
        u, d = _signals(hops * CFG.hop)
        u[bad * CFG.hop + 1] = np.nan
        sessions = {"learned": lambda: run_learned_session(params, u, d, CFG)}
        sessions.update({alg: lambda alg=alg: run_classic_session(alg, u, d, CFG)
                         for alg in CLASSIC_ALGORITHMS})
        for name, session in sessions.items():
            with pytest.raises(NumericError, match="non-finite input frame") as info:
                session()
            assert info.value.frame == bad, (name, hops)
    # a failure at an earlier hop of the NaN frame's block is still the one reported:
    # the silent far end of frame BLOCK + 2 in NLMS ...
    u, d = _signals((BLOCK + 8) * CFG.hop)
    u[(BLOCK + 1) * CFG.hop : (BLOCK + 3) * CFG.hop] = 0.0
    u[(BLOCK + 5) * CFG.hop + 1] = np.nan
    with pytest.raises(NumericError, match="non-finite filter update") as info, \
            np.errstate(invalid="ignore"):
        run_classic_session("nlms", u, d, CFG, hyper={"eps": 0.0})
    assert info.value.frame == BLOCK + 2
    # ... also when the very next frame holds the NaN ...
    u[(BLOCK + 3) * CFG.hop + 1] = np.nan
    with pytest.raises(NumericError, match="non-finite filter update") as info, \
            np.errstate(invalid="ignore"):
        run_classic_session("nlms", u, d, CFG, hyper={"eps": 0.0})
    assert info.value.frame == BLOCK + 2
    # ... and a learned update that goes non-finite at hop BLOCK + 1
    u, d = _signals((BLOCK + 8) * CFG.hop)
    u[(BLOCK + 5) * CFG.hop + 1] = np.nan
    real_step, hops_run = aflearn.session.optimizer_step, []

    def failing_step(params, xi, state):
        delta, state = real_step(params, xi, state)
        hops_run.append(None)
        return (delta * np.nan if len(hops_run) == BLOCK + 2 else delta), state

    monkeypatch.setattr(aflearn.session, "optimizer_step", failing_step)
    with pytest.raises(NumericError, match="non-finite filter update") as info:
        run_learned_session(params, u, d, CFG)
    assert info.value.frame == BLOCK + 1
    # a classic update that goes non-finite at the last hop, which no later
    # residual shows, is still reported
    hops = 6
    u, d = _signals(hops * CFG.hop)
    for algorithm in CLASSIC_ALGORITHMS:
        name, calls = f"{algorithm}_step", []

        def failing_classic(state, *args, real_step=getattr(aflearn.session, name), calls=calls):
            w, state = real_step(state, *args)
            calls.append(None)
            return (w * np.nan if len(calls) == hops else w), state

        monkeypatch.setattr(aflearn.session, name, failing_classic)
        with pytest.raises(NumericError, match="non-finite filter update") as info:
            run_classic_session(algorithm, u, d, CFG)
        assert info.value.frame == hops - 1, algorithm


def test_lockstep_stack_reports_its_earliest_non_finite_frame():
    # two streams of three hold a NaN far-end sample, one in the first block of
    # hops and one in the second; whichever stream holds the earlier one, the
    # stack fails at that frame
    hops, early, late = BLOCK + 8, 3, BLOCK + 3
    params = init_meta_params(DependencyStructure.block(4), 4, seed=0)
    for first, second in ((0, 2), (2, 0)):
        u, d = (np.stack(pair) for pair in zip(*(_signals(hops * CFG.hop, s) for s in range(3))))
        u[first, early * CFG.hop + 1] = np.nan
        u[second, late * CFG.hop + 1] = np.nan
        sessions = {"learned": lambda: run_learned_session(params, u, d, CFG)}
        sessions.update({alg: lambda alg=alg: run_classic_session(alg, u, d, CFG)
                         for alg in CLASSIC_ALGORITHMS})
        for name, session in sessions.items():
            with pytest.raises(NumericError, match="non-finite input frame") as info:
                session()
            assert info.value.frame == early, (name, first)


def test_blocked_sessions_match_the_hop_by_hop_loop():
    # a lockstep batch of 3 over a hop count that is not a multiple of the block
    hops = 2 * BLOCK + 7
    u, d = (np.stack(pair) for pair in zip(*(_signals(hops * CFG.hop, seed) for seed in range(3))))
    # the classic sessions' snapshots too; the oracle's classic steps read
    # each hop's own conj(U) and |U|^2, the sessions' a whole block's
    stride = 5
    runs = {alg: (lambda alg=alg: run_classic_session(alg, u, d, CFG, snapshot_stride=stride),
                  {"algorithm": alg, "snapshot_stride": stride})
            for alg in CLASSIC_ALGORITHMS}
    for label in ("diagonal", "block:4", "banded:4"):
        params = init_meta_params(DependencyStructure.parse(label), 4, seed=1)
        runs[label] = (lambda params=params: run_learned_session(params, u, d, CFG),
                       {"params": params})
    for name, (session, kind) in runs.items():
        result = session()
        expected = hop_by_hop_session(CFG, u, d, **kind)
        *expected, snapshots = expected
        actual = (result.output, result.error, result.weights, result.erle_db)
        for field, a, e in zip(("output", "error", "weights", "erle_db"), actual, expected):
            assert np.array_equal(a, e), (name, field)
        assert [t for t, _ in result.snapshots] == [t for t, _ in snapshots], name
        for (t, a), (_, e) in zip(result.snapshots, snapshots):
            assert np.array_equal(a, e), (name, t)


def test_session_memory_does_not_grow_with_blocks():
    # a session over 4N hops peaks no higher than one over N hops plus what
    # grows with the signal: the result's error, output and erle_db, and two
    # arrays as large as error, hop_frames' zero-padded copy of u and the
    # squared hops that metrics.hop_powers takes for erle_db (a classic
    # session, whose hop needs little memory, peaks there)
    params = init_meta_params(DependencyStructure.diagonal(), 4, seed=0)
    sessions = {"learned": lambda u, d: run_learned_session(params, u, d, CFG)}
    sessions.update({alg: lambda u, d, alg=alg: run_classic_session(alg, u, d, CFG)
                     for alg in CLASSIC_ALGORITHMS})

    def peak(session, hops):
        u, d = _signals(hops * CFG.hop)
        tracemalloc.start()
        try:
            result = session(u, d)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return top, 3 * result.error.nbytes + result.output.nbytes + result.erle_db.nbytes

    n = 2 * BLOCK + BLOCK // 2  # both runs pass from one whole block to the next
    for name, session in sessions.items():
        peak(session, n)  # warm caches
        (small, small_size), (big, big_size) = peak(session, n), peak(session, 4 * n)
        # a (hops, K) complex spectrum of the whole session would add as much
        # again, and a classic session's (hops, K/2+1) power alone over 25%
        assert big - small < 1.1 * (big_size - small_size), \
            (name, big - small, big_size - small_size)


def test_learned_session_smoke():
    params = init_meta_params(DependencyStructure.block(4), 4, seed=0)
    u, d = _signals(9 * CFG.hop)
    result = run_learned_session(params, u, d, CFG)
    assert result.frames == 9
    assert np.all(np.isfinite(result.error))
    np.testing.assert_allclose(result.error + result.output, d[: 9 * CFG.hop], atol=1e-12)


def test_kf_residual_is_the_innovation():
    # each hop is filtered through the prediction transition * w of the
    # previous posterior, so the residual is the Kalman innovation
    hops = 12
    u, d = _signals(hops * CFG.hop, seed=3)
    result = run_classic_session("kf", u, d, CFG, snapshot_stride=1)
    transition = make_kf_state(CFG.dft_size).transition
    posteriors = [np.zeros(CFG.dft_size, dtype=complex)] + [w for _, w in result.snapshots]
    assert [t for t, _ in result.snapshots] == list(range(hops))
    for t in range(hops):
        y_pred, _ = ols_apply(CFG, transition * posteriors[t], hop_frames(u, CFG)[t])
        hop = slice(t * CFG.hop, (t + 1) * CFG.hop)
        assert rel_error(result.error[hop], d[hop] - y_pred) < 1e-12, t
    assert rel_error(result.weights, posteriors[-1]) == 0.0


# (transform kind, calls per hop, calls per block): complex fft/ifft on K bins
# for the learned rule, real rfft/irfft on K/2+1 bins for the classic filters;
# a block transforms its frames, and for the learned rule its desired hops, once
FFT_CALLS = {"learned": ("fft", 6, 2), "nlms": ("rfft", 4, 1), "rls": ("rfft", 4, 1),
             "kf": ("rfft", 4, 1)}


@pytest.mark.parametrize("algorithm", sorted(FFT_CALLS))
def test_per_hop_call_budget(algorithm, monkeypatch):
    hops = BLOCK + 8  # one whole block and a partial one
    blocks = 2
    u, d = _signals(hops * CFG.hop)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted("fft", getattr(np.fft, name)))
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted("rfft", getattr(np.fft, name)))
    # perfbench/tracing.py times hops through these names in aflearn.session
    steps = tuple(f"{name}_step" for name in CLASSIC_ALGORITHMS)
    for name in ("build_input", "optimizer_step", "apply_update") + steps:
        monkeypatch.setattr(aflearn.session, name,
                            counted(name, getattr(aflearn.session, name)))
    kind, per_hop, per_block = FFT_CALLS[algorithm]
    if algorithm == "learned":
        params = init_meta_params(DependencyStructure.diagonal(), 4, seed=0)
        assemblies = ("concatenate", "stack")
        for name in assemblies:
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        run_learned_session(params, u[: CFG.hop], d[: CFG.hop], CFG)
        one_hop = {name: calls.get(name, 0) for name in assemblies}
        calls.clear()
        run_learned_session(params, u, d, CFG)
        for name in ("build_input", "optimizer_step", "apply_update"):
            assert calls[name] == hops, name
        # the GRU gate stacks are views of the parameters, and the hop writes
        # its features into the session's one buffer: no hop assembles either
        assert {name: calls.get(name, 0) for name in assemblies} == one_hop
        assert "rfft" not in calls
    else:
        run_classic_session(algorithm, u, d, CFG)
        # no complex transform at all: only the real ones and the step
        assert calls == {"rfft": calls["rfft"], f"{algorithm}_step": hops}
    assert calls[kind] == per_hop * hops + per_block * blocks
