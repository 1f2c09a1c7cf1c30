"""Metric implementations against hand-computed values and basic laws."""

import numpy as np
import pytest

from aflearn.errors import MetricUndefinedError
from aflearn.metrics import (
    bootstrap_mean_ci,
    erle_curve_db,
    frame_powers,
    measure_rtf,
    misalignment_db,
    serle_db,
    si_sdr_db,
)


def test_frame_powers():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(frame_powers(x, 2), [5.0, 25.0])
    with pytest.raises(ValueError):
        frame_powers(np.zeros(1), 2)
    with pytest.raises(ValueError):
        frame_powers(np.arange(12.0).reshape(2, 6), 4)


def test_serle_hand_computed():
    # frame powers 8, 0, 2 against 2, 50, 2; the silent middle frame is dropped
    echo = np.array([2.0, 2.0, 0.0, 0.0, 1.0, 1.0])
    residual = np.array([1.0, 1.0, 5.0, 5.0, 1.0, 1.0])
    assert abs(serle_db(echo, residual, 2) - 3.010299956639812) < 1e-10


def test_serle_perfect_cancellation_caps():
    echo = np.ones(8)
    assert serle_db(echo, np.zeros(8), 4) == 80.0


def test_serle_all_silent_is_undefined():
    with pytest.raises(MetricUndefinedError):
        serle_db(np.zeros(8), np.ones(8), 4)


def test_serle_discards_only_silent_frames():
    rng = np.random.default_rng(0)
    echo = np.concatenate([rng.standard_normal(64), np.zeros(64)])
    residual = 0.5 * echo + np.concatenate([np.zeros(64), 1e3 * np.ones(64)])
    # the loud junk lives entirely in silent echo frames and must not count
    assert abs(serle_db(echo, residual, 8) - 10 * np.log10(4.0)) < 1e-9


def test_erle_curve():
    d = np.array([2.0, 0.0, 1.0, 0.0])
    e = np.array([1.0, 0.0, 2.0, 0.0])
    curve = erle_curve_db(d, e, 2)
    assert np.allclose(curve, [10 * np.log10(4.0), -10 * np.log10(4.0)])


def test_si_sdr_hand_computed():
    ref = np.ones(4)
    est = np.array([1.1, 0.9, 1.0, 1.0])
    assert abs(si_sdr_db(est, ref) - 23.010299956639813) < 1e-10


def test_si_sdr_scale_invariance():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(256)
    est = ref + 0.1 * rng.standard_normal(256)
    base = si_sdr_db(est, ref)
    assert abs(si_sdr_db(7.3 * est, ref) - base) < 1e-6


def test_si_sdr_identity_is_capped():
    ref = np.ones(16)
    assert si_sdr_db(ref, ref) == 80.0
    with pytest.raises(MetricUndefinedError):
        si_sdr_db(ref, np.zeros(16))


def test_misalignment_hand_computed():
    w_true = np.array([2.0 + 0j, 0.0 + 0j])
    w_est = np.array([2.0 + 1j, 0.0 + 0j])
    assert abs(misalignment_db(w_est, w_true) + 6.020599913279624) < 1e-10
    with pytest.raises(MetricUndefinedError):
        misalignment_db(w_est, np.zeros(2, dtype=complex))


def test_bootstrap_ci_brackets_mean():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(30) + 5.0
    mean, lo, hi = bootstrap_mean_ci(values)
    assert lo <= mean <= hi
    assert abs(mean - values.mean()) < 1e-12
    assert hi - lo < 2.0


def test_measure_rtf_reports_ratio_and_context():
    from aflearn.scenes import desk_spec, gen_scene

    scene = gen_scene(desk_spec(duration=0.5, rir_taps=32, rt60_range=(0.02, 0.04)), seed=1)
    report = measure_rtf(lambda s: None, scene, repeats=3)
    # a no-op "session" should be far faster than real time on any machine
    assert report["rtf"] < 0.05
    assert report["rtf_min"] <= report["rtf"] <= report["rtf_max"]
    assert report["repeats"] == 3
    assert report["platform"] and report["python"]
    with pytest.raises(ValueError):
        measure_rtf(lambda s: None, scene, repeats=0)
