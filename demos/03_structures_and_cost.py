"""Frequency-grouping layouts and what they cost.

The learned update rule runs one recurrent cell per *group* of DFT bins.  This
script prints the window layout of each structure on a small spectrum, then
tabulates the closed-form per-frame cost model against an instrumented count
of the actual matrix products.

Run:  python3 demos/03_structures_and_cost.py
"""
import numpy as np

from aflearn import DependencyStructure, FlopModel, OlsConfig, flops_per_frame
from aflearn.flops import FlopCounter
from aflearn.optimizer import GroupState, build_input, init_meta_params, optimizer_step

k = 16
print(f"window layouts over K={k} bins:")
for label in ("diagonal", "block:4", "banded:4"):
    s = DependencyStructure.parse(label)
    windows = s.window_bins(k).tolist()
    print(f"  {label:9s} C={len(windows):2d} groups, bin coverage={set(s.coverage(k).tolist())}, "
          f"first windows {windows[:3]}")

# ---- closed form vs counted matmuls -----------------------------------------
cfg = OlsConfig(64)
hidden = 8
rng = np.random.default_rng(0)
print(f"\nper-frame multiply-accumulates at K={cfg.dft_size}, H={hidden}:")
print(f"  {'structure':9s} {'sampler':>8s} {'gru':>8s} {'output':>8s} {'total':>8s} {'counted':>8s}")
for label in ("diagonal", "block:4", "banded:4", "block:8", "banded:8"):
    s = DependencyStructure.parse(label)
    model = FlopModel(s, cfg.dft_size, hidden)
    params = init_meta_params(s, hidden, seed=0)
    state = GroupState.zeros(s, cfg.dft_size, hidden)
    z = lambda: rng.standard_normal(cfg.dft_size) + 1j * rng.standard_normal(cfg.dft_size)
    counter = FlopCounter()
    optimizer_step(params, build_input(z(), z(), z(), z(), z()), state, counter=counter)
    print(f"  {label:9s} {model.sampler_term:8d} {model.gru_term:8d} "
          f"{model.output_term:8d} {model.total:8d} {counter.total:8d}")

# ---- the quadratic hidden-size law -------------------------------------------
print("\ndiagonal cost vs hidden size (the recurrent term dominates, ~4x per doubling):")
for h in (8, 16, 32, 64):
    total = flops_per_frame(DependencyStructure.diagonal(), cfg.dft_size, h)
    rate = FlopModel(DependencyStructure.diagonal(), cfg.dft_size, h).per_second(cfg)
    print(f"  H={h:3d}  {total:10d} per frame  ({rate / 1e6:8.1f} M MAC/s of audio)")
