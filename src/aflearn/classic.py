"""Hand-tuned frequency-domain adaptive filters: NLMS, per-bin RLS, per-bin Kalman.

All three share the overlap-save geometry and the hop kernel from ols.py and
keep the filter constrained via project_filter after every update.  Every step
has the same contract, ``step(state, u_freq, e_freq, w) -> (w_new, state)``:
u_freq is the K-point DFT of the current input frame and e_freq the
zero-padded error-hop spectrum that ``ols.hop_forward`` produced by filtering
that frame through ``w``.

The Kalman filter models the echo path as a scalar-gain random walk per bin
(w' = A w + process noise) and re-estimates the observation noise from a
smoothed mean of the residual frame power, so it keeps adapting after abrupt
path changes without manual resets.  The session predicts ``A w`` before the
hop, so the error the hop kernel hands to ``kf_step`` is the innovation.
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
    "make_nlms_state",
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
    obs_noise: float
    process_noise: float = 1e-3
    transition: float = 0.999
    noise_smoothing: float = 0.99


def make_nlms_state(step_size=0.5, eps=1e-3):
    return NlmsState(step_size=step_size, eps=eps)


def make_rls_state(num_bins, p0=1e2, forget=0.99, eps=1e-8):
    return RlsState(p=np.full(num_bins, float(p0)), forget=forget, eps=eps)


def make_kf_state(num_bins, p0=1.0, obs_noise=1e-2, process_noise=1e-3,
                  transition=0.999, noise_smoothing=0.99):
    return KfState(
        p=np.full(num_bins, float(p0)),
        obs_noise=float(obs_noise),
        process_noise=process_noise,
        transition=transition,
        noise_smoothing=noise_smoothing,
    )


def nlms_step(state, u_freq, e_freq, w):
    """One constrained NLMS update; returns (w_new, state)."""
    power = u_freq.real**2 + u_freq.imag**2
    step = state.step_size * np.conj(u_freq) * e_freq / (power + state.eps)
    return project_filter(w + step), state


def rls_step(state, u_freq, e_freq, w):
    """One constrained per-bin RLS update; returns (w_new, state_new).

    The scalar p per bin tracks the inverse of the exponentially weighted
    input power; with forget = 1 this reduces to 1 / sum |u|^2.
    """
    power = u_freq.real**2 + u_freq.imag**2
    denom = state.forget + state.p * power + state.eps
    gain = state.p * np.conj(u_freq) / denom
    w_new = project_filter(w + gain * e_freq)
    return w_new, replace(state, p=state.p / denom)


def kf_step(state, u_freq, e_freq, w):
    """One Kalman update of the predicted filter; returns (w_new, state_new).

    ``w`` is the prediction ``state.transition * w_post`` and ``e_freq`` the
    innovation: the error spectrum of the hop filtered through that prediction.
    """
    p_pred = state.transition**2 * state.p + state.process_noise
    power = u_freq.real**2 + u_freq.imag**2
    innovation_var = p_pred * power + state.obs_noise
    gain = p_pred * np.conj(u_freq) / innovation_var
    w_new = project_filter(w + gain * e_freq)
    p_new = p_pred * state.obs_noise / innovation_var

    residual = float(np.mean(e_freq.real**2 + e_freq.imag**2))
    beta = state.noise_smoothing
    obs_new = beta * state.obs_noise + (1.0 - beta) * residual
    return w_new, replace(state, p=p_new, obs_noise=obs_new)
