"""Evaluation metrics for echo cancellation runs.

Frame-based ratios work on non-overlapping hops of ``frame`` samples; frames
whose reference power falls below a relative silence threshold are discarded
so speech pauses do not dominate the averages.  Individual frame ratios are
capped to +-80 dB before averaging.  Bootstrap intervals use a fixed level,
resample count and seed, so a summary of the same scores is reproducible.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from .errors import MetricUndefinedError

__all__ = [
    "frame_powers",
    "serle_db",
    "erle_curve_db",
    "si_sdr_db",
    "misalignment_db",
    "bootstrap_mean_ci",
    "measure_rtf",
]

CAP_DB = 80.0
SILENCE_REL = 1e-6
CI_CONFIDENCE = 0.95  # bootstrap_mean_ci: two-sided level, resamples, fixed seed
CI_DRAWS = 2000
CI_SEED = 0


def frame_powers(x, frame):
    """Sum of squares per non-overlapping length-``frame`` block (tail dropped)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if frame <= 0:
        raise ValueError("frame must be positive")
    n = (x.size // frame) * frame
    if n == 0:
        raise ValueError(f"need at least {frame} samples, got {x.size}")
    return (x[:n].reshape(-1, frame) ** 2).sum(axis=1)


def _active_mask(ref_powers):
    threshold = SILENCE_REL * float(ref_powers.mean())
    return ref_powers > threshold


def serle_db(echo, residual_echo, frame):
    """Mean per-frame echo suppression 10 log10(||d_u||^2 / ||d_u - y||^2).

    ``echo`` is the unmixed echo component at the microphone and
    ``residual_echo`` what remains of it after subtracting the filter output.
    Silent echo frames are discarded; raises MetricUndefinedError if every
    frame is silent.
    """
    echo = np.asarray(echo, dtype=float)
    residual_echo = np.asarray(residual_echo, dtype=float)
    if echo.shape != residual_echo.shape:
        raise ValueError("echo and residual must have the same shape")
    num = frame_powers(echo, frame)
    den = frame_powers(residual_echo, frame)
    mask = _active_mask(num)
    if not mask.any():
        raise MetricUndefinedError("all echo frames are silent")
    ratios = 10.0 * np.log10(
        np.maximum(num[mask], 1e-300) / np.maximum(den[mask], 1e-300)
    )
    return float(np.clip(ratios, -CAP_DB, CAP_DB).mean())


def erle_curve_db(desired, error, frame):
    """Instantaneous per-frame 10 log10(||d||^2 / ||e||^2), capped, no discards."""
    num = frame_powers(desired, frame)
    den = frame_powers(error, frame)
    ratios = 10.0 * np.log10(np.maximum(num, 1e-300) / np.maximum(den, 1e-300))
    return np.clip(ratios, -CAP_DB, CAP_DB)


def si_sdr_db(estimate, reference):
    """Scale-invariant signal-to-distortion ratio in dB.

    The target is the projection of the estimate onto the reference,
    a = <est, ref> / ||ref||^2.
    """
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if estimate.shape != reference.shape:
        raise ValueError("estimate and reference must have the same shape")
    ref_energy = float(reference @ reference)
    if ref_energy <= 0.0:
        raise MetricUndefinedError("silent reference")
    alpha = float(estimate @ reference) / ref_energy
    target = alpha * reference
    distortion = estimate - target
    dist_energy = float(distortion @ distortion)
    if dist_energy <= 0.0:
        return CAP_DB
    return float(10.0 * np.log10(float(target @ target) / dist_energy))


def misalignment_db(w_est, w_true):
    """Normalized filter mismatch 10 log10(||w_est - w_true||^2 / ||w_true||^2)."""
    w_est = np.asarray(w_est)
    w_true = np.asarray(w_true)
    if w_est.shape != w_true.shape:
        raise ValueError("filters must have the same shape")
    ref = float(np.vdot(w_true, w_true).real)
    if ref <= 0.0:
        raise MetricUndefinedError("zero reference filter")
    err = w_est - w_true
    return float(10.0 * np.log10(max(float(np.vdot(err, err).real), 1e-300) / ref))


def measure_rtf(session_fn, scene, repeats=1):
    """Real-time factor: wall-clock processing time over audio duration.

    Calls ``session_fn(scene)`` ``repeats`` times and reports the per-run
    ratios together with machine context.  The numbers depend on hardware
    and load, so they are informational only -- nothing should gate on them.
    """
    duration = float(scene.spec.duration)
    if duration <= 0.0:
        raise MetricUndefinedError("scene has no duration")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    ratios = []
    for _ in range(repeats):
        start = time.perf_counter()
        session_fn(scene)
        ratios.append((time.perf_counter() - start) / duration)
    return {
        "rtf": float(np.mean(ratios)),
        "rtf_min": float(min(ratios)),
        "rtf_max": float(max(ratios)),
        "repeats": int(repeats),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def bootstrap_mean_ci(values):
    """Percentile bootstrap CI for the mean of a small sample: (mean, lo, hi)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise MetricUndefinedError("no values")
    rng = np.random.default_rng(CI_SEED)
    idx = rng.integers(0, values.size, size=(CI_DRAWS, values.size))
    means = values[idx].mean(axis=1)
    lo = float(np.percentile(means, 100.0 * (1.0 - CI_CONFIDENCE) / 2.0))
    hi = float(np.percentile(means, 100.0 * (1.0 + CI_CONFIDENCE) / 2.0))
    return float(values.mean()), lo, hi
