"""Full-signal sessions: outputs, telemetry, snapshots, and failure frames."""

import json

import numpy as np
import pytest

import aflearn.session
from aflearn.errors import ConfigError, NumericError
from aflearn.classic import make_kf_state
from aflearn.ols import OlsConfig, hop_frames, ols_apply
from aflearn.optimizer import init_meta_params
from aflearn.session import CLASSIC_ALGORITHMS, run_classic_session, run_learned_session
from aflearn.structures import DependencyStructure

from oracles import rel_error

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


def test_snapshots_taken_every_stride():
    u, d = _signals(25 * CFG.hop)
    result = run_classic_session("nlms", u, d, CFG, snapshot_stride=10)
    assert [t for t, _ in result.snapshots] == [9, 19]
    for _, w in result.snapshots:
        assert w.shape == (CFG.dft_size,)
        assert np.iscomplexobj(w)


def test_numeric_failure_reports_frame_index():
    u, d = _signals(6 * CFG.hop)
    u[: CFG.hop] = 0.0  # silent far end + eps=0 divides 0/0 in the first update
    with pytest.raises(NumericError) as info, np.errstate(invalid="ignore"):
        run_classic_session("nlms", u, d, CFG, hyper={"eps": 0.0})
    assert info.value.frame == 1
    # a NaN far-end sample reaches the first frame whose window holds it
    u, d = _signals(6 * CFG.hop)
    u[3 * CFG.hop + 1] = np.nan
    params = init_meta_params(DependencyStructure.block(4), 4, seed=0)
    sessions = {"learned": lambda: run_learned_session(params, u, d, CFG)}
    sessions.update({alg: lambda alg=alg: run_classic_session(alg, u, d, CFG)
                     for alg in CLASSIC_ALGORITHMS})
    for name, session in sessions.items():
        with pytest.raises(NumericError, match="non-finite input frame") as info:
            session()
        assert info.value.frame == 3, name


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


# (transform kind, calls per hop): complex fft/ifft on K bins for the learned
# rule, real rfft/irfft on K/2+1 bins for the classic filters
FFT_CALLS_PER_HOP = {"learned": ("fft", 8), "nlms": ("rfft", 5), "rls": ("rfft", 5),
                     "kf": ("rfft", 5)}


@pytest.mark.parametrize("algorithm", sorted(FFT_CALLS_PER_HOP))
def test_per_hop_call_budget(algorithm, monkeypatch):
    hops = 6
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
    kind, per_hop = FFT_CALLS_PER_HOP[algorithm]
    if algorithm == "learned":
        params = init_meta_params(DependencyStructure.diagonal(), 4, seed=0)
        monkeypatch.setattr(np, "concatenate", counted("concatenate", np.concatenate))
        run_learned_session(params, u[: CFG.hop], d[: CFG.hop], CFG)
        one_hop = calls.get("concatenate", 0)
        calls.clear()
        run_learned_session(params, u, d, CFG)
        for name in ("build_input", "optimizer_step", "apply_update"):
            assert calls[name] == hops, name
        # the GRU gate stacks are views of the parameters: no hop assembles them
        assert calls.get("concatenate", 0) == one_hop
        assert "rfft" not in calls
    else:
        run_classic_session(algorithm, u, d, CFG)
        # no complex transform at all: only the real ones and the step
        assert calls == {"rfft": calls["rfft"], f"{algorithm}_step": hops}
    assert calls[kind] == per_hop * hops
