"""Frequency-grouping layouts and what they cost.

The learned update rule runs one recurrent cell per *group* of DFT bins.  This
script prints the window layout of each structure on a small spectrum, then
tabulates the closed-form per-frame cost model.  That model is exact: the
acceptance test ``test_flop_count_matches_instrumented_execution`` counts
the actual matrix products of ``optimizer_step`` and requires them to equal
it on every layout.

Run:  python3 demos/03_structures_and_cost.py
"""
from aflearn import DependencyStructure, FlopModel, OlsConfig

k = 16
print(f"window layouts over K={k} bins:")
for label in ("diagonal", "block:4", "banded:4"):
    s = DependencyStructure.parse(label)
    windows = s.window_bins(k).tolist()
    print(f"  {label:9s} C={len(windows):2d} groups, bin coverage={set(s.coverage(k).tolist())}, "
          f"first windows {windows[:3]}")

# ---- the closed-form cost model ---------------------------------------------
cfg = OlsConfig(64)
hidden = 8
print(f"\nper-frame multiply-accumulates at K={cfg.dft_size}, H={hidden}:")
print(f"  {'structure':9s} {'sampler':>8s} {'gru':>8s} {'output':>8s} {'total':>8s}")
for label in ("diagonal", "block:4", "banded:4", "block:8", "banded:8"):
    model = FlopModel(DependencyStructure.parse(label), cfg.dft_size, hidden)
    print(f"  {label:9s} {model.sampler_term:8d} {model.gru_term:8d} "
          f"{model.output_term:8d} {model.total:8d}")

# ---- the quadratic hidden-size law -------------------------------------------
print("\ndiagonal cost vs hidden size (the recurrent term dominates, ~4x per doubling):")
for h in (8, 16, 32, 64):
    model = FlopModel(DependencyStructure.diagonal(), cfg.dft_size, h)
    print(f"  H={h:3d}  {model.total:10d} per frame  "
          f"({model.per_second(cfg) / 1e6:8.1f} M MAC/s of audio)")
