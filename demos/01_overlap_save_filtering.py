"""Overlap-save block filtering from first principles.

Walks one signal through the streaming loop hop by hop, reading each frame
from the strided frame view ``hop_frames``, and checks the output against
plain time-domain convolution, then shows what the constraint
projection does to a filter with energy in the forbidden tail.

Run:  python3 demos/01_overlap_save_filtering.py
"""
import numpy as np

from aflearn import OlsConfig, af_error, filter_gradient, ols_apply, project_filter
from aflearn.ols import hop_frames

rng = np.random.default_rng(0)
cfg = OlsConfig(64)
print(f"DFT size K={cfg.dft_size}, hop R={cfg.hop}, usable taps K - R = {cfg.hop}")

# ---- stream a random signal through a known filter -------------------------
taps = rng.standard_normal(cfg.hop) * 0.5 ** np.arange(cfg.hop)
w = np.fft.fft(np.concatenate([taps, np.zeros(cfg.hop)]))
signal = rng.standard_normal(20 * cfg.hop)

frames = hop_frames(signal, cfg)        # (hops, K) view, no copy per hop
print(f"frame view {frames.shape}: frame t ends at sample (t+1)*R, "
      f"its last R samples are hop t")
streamed = []
for frame in frames:
    y_hop, _ = ols_apply(cfg, w, frame)
    streamed.append(y_hop)
streamed = np.concatenate(streamed)

direct = np.convolve(signal, taps)[: streamed.size]
print(f"streamed vs direct convolution: max |diff| = {np.abs(streamed - direct).max():.3e}")

# ---- the constraint projection keeps filters causal and short ---------------
leaky = np.fft.fft(rng.standard_normal(cfg.dft_size))   # energy everywhere
clean = project_filter(leaky)
tail = np.fft.ifft(clean)[cfg.hop:]
print(f"tail energy after projection: {np.abs(tail).max():.3e} (idempotent: "
      f"{np.abs(project_filter(clean) - clean).max():.3e})")

# ---- the analytic gradient points down the error surface --------------------
frame = signal[: cfg.dft_size]
u_freq = np.fft.fft(frame)
d_hop = direct[cfg.hop : cfg.dft_size]                  # target: the true filter's output
w_hat = np.zeros(cfg.dft_size, dtype=complex)
for step in range(200):
    y_hop, _ = ols_apply(cfg, w_hat, frame)
    e_hop, _ = af_error(d_hop, y_hop, cfg)
    w_hat = w_hat - 0.05 * filter_gradient(u_freq, e_hop, cfg)
print(f"steepest-descent on one frame: residual {np.abs(e_hop).max():.3e} after 200 steps")
