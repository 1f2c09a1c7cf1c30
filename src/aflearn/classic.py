"""Hand-tuned frequency-domain adaptive filters: NLMS, per-bin RLS, per-bin Kalman.

All three share the overlap-save geometry and the hop kernel from ols.py and
keep the filter constrained via project_filter after every update.  Every step
has the same contract, ``step(state, u_conj, u_power, e_freq, w) -> (w_new,
state)``.  The current input frame's DFT U enters only through u_conj =
conj(U) and u_power = |U|^2 (computed as ``U.real**2 + U.imag**2``), which
depend on the input signal alone, so a session takes them for a whole block
of hops at once.  e_freq is the zero-padded error-hop spectrum that
``ols.hop_forward`` produced by filtering that frame through ``w``.
Sessions pass K/2+1-bin half spectra (``rfft`` layout, RLS/KF ``p`` sized to
match), so the filter stays the projected spectrum of a real response; full
K-bin spectra give the same first K/2+1 bins.

The Kalman filter models the echo path as a scalar-gain random walk per bin
(w' = A w + process noise) and re-estimates the observation noise from a
smoothed mean of the residual frame power (one per scene of a stack), so it
keeps adapting after abrupt path changes without manual resets.  The session
predicts ``A w`` before the hop, so the hop kernel's error is the innovation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ols import project_filter

__all__ = [
    "NlmsState",
    "RlsState",
    "KfState",
    "nlms_step",
    "rls_step",
    "kf_step",
    "make_rls_state",
    "make_kf_state",
]


@dataclass(frozen=True)
class NlmsState:
    """Normalized LMS: fixed step size, per-bin instantaneous power normalization."""

    step_size: float = 0.5
    eps: float = 1e-3


@dataclass(frozen=True)
class RlsState:
    """Exponentially weighted RLS with a scalar inverse-correlation term per bin."""

    p: np.ndarray
    forget: float = 0.99
    eps: float = 1e-8


@dataclass(frozen=True)
class KfState:
    """Diagonal random-walk Kalman filter with adaptive observation noise."""

    p: np.ndarray
    obs_noise: float  # becomes one per scene, shape (..., 1), after the first update
    process_noise: float = 1e-3
    transition: float = 0.999
    noise_smoothing: float = 0.99


def make_rls_state(num_bins, p0=1e2, **hyper):
    return RlsState(p=np.full(num_bins, float(p0)), **hyper)


def make_kf_state(num_bins, p0=1.0, obs_noise=1e-2, **hyper):
    return KfState(p=np.full(num_bins, float(p0)), obs_noise=float(obs_noise), **hyper)


def nlms_step(state, u_conj, u_power, e_freq, w):
    """One constrained NLMS update; returns (w_new, state)."""
    step = state.step_size * u_conj * e_freq / (u_power + state.eps)
    return project_filter(w + step), state


def rls_step(state, u_conj, u_power, e_freq, w):
    """One constrained per-bin RLS update; returns (w_new, state_new).

    The scalar p per bin tracks the inverse of the exponentially weighted
    input power; with forget = 1 this reduces to 1 / sum |u|^2.
    """
    denom = state.forget + state.p * u_power + state.eps
    gain = state.p * u_conj / denom
    w_new = project_filter(w + gain * e_freq)
    return w_new, replace(state, p=state.p / denom)


def kf_step(state, u_conj, u_power, e_freq, w):
    """One Kalman update of the predicted filter; returns (w_new, state_new).

    ``w`` is the prediction ``state.transition * w_post`` and ``e_freq`` the
    innovation: the error spectrum of the hop filtered through that prediction.
    """
    p_pred = state.transition**2 * state.p + state.process_noise
    innovation_var = p_pred * u_power + state.obs_noise
    gain = p_pred * u_conj / innovation_var
    w_new = project_filter(w + gain * e_freq)
    p_new = p_pred * state.obs_noise / innovation_var

    e_power = e_freq.real**2 + e_freq.imag**2
    n = e_freq.shape[-1]
    if n % 2:  # a half spectrum of K = 2(n - 1) bins: Parseval counts bins 1 ... K/2-1 twice
        inner = np.sum(e_power[..., 1:-1], axis=-1, keepdims=True)
        residual = (2.0 * inner + e_power[..., :1] + e_power[..., -1:]) / (2 * (n - 1))
    else:
        residual = np.sum(e_power, axis=-1, keepdims=True) / n
    beta = state.noise_smoothing
    obs_new = beta * state.obs_noise + (1.0 - beta) * residual
    return w_new, replace(state, p=p_new, obs_noise=obs_new)
