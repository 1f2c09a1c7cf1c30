"""Meta-train a miniature learned update rule and watch it improve.

The scene mix is heavy double-talk (near speech in every scene), the regime
where plain gradient-descent adaptation breaks down: NLMS at its default,
untuned step size 0.5 keeps adapting on near-end speech and cancels almost
nothing.  A small block-structured rule trained for a few minutes of CPU
learns from the same gradient signal to keep converging anyway.  The
classic baselines all run at their untuned defaults.  Ends with the
checkpoint roundtrip.

Run:  python3 demos/04_train_update_rule.py   (about 4 minutes)
"""
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from aflearn import (
    DependencyStructure,
    OlsConfig,
    TrainSchedule,
    evaluate_mean_serle,
    load_checkpoint,
    run_classic_session,
    save_checkpoint,
    train_update_rule,
)
from aflearn.classic import NlmsState
from aflearn.scenes import desk_spec, gen_scene
from aflearn.training import scene_scores

cfg = OlsConfig(128)
structure = DependencyStructure.block(4)
spec = desk_spec(duration=4.0, rir_taps=64,
                 near_speech_prob=1.0, ser_range_db=(0.0, 6.0))
train_seeds = list(range(32))
val_seeds = list(range(500, 506))
test_seeds = list(range(900, 906))

print(f"training {structure.label} H=8 at K={cfg.dft_size} on "
      f"{len(train_seeds)} double-talk scenes of {spec.duration:.0f} s ...")
params, history = train_update_rule(
    structure, 8, cfg, spec, train_seeds, val_seeds,
    schedule=TrainSchedule(lr=3e-3),
    epochs=12, batch_size=8, unroll=16, init_seed=0,
    log=lambda row: print(f"  epoch {row['epoch']:2d}  loss {row['train_loss']:+.3f}  "
                          f"val SERLE {row['val_serle_db']:+6.2f} dB  ({row['seconds']:.0f}s)"),
)

# ---- held-out comparison -----------------------------------------------------
test_scenes = [gen_scene(spec, s) for s in test_seeds]
learned = evaluate_mean_serle(params, test_scenes, cfg)
print(f"\nmean SERLE on {len(test_scenes)} held-out double-talk scenes:")
print(f"  learned {structure.label:8s} {learned:+6.2f} dB")
for alg in ("nlms", "rls", "kf"):
    scores = scene_scores(partial(run_classic_session, alg, cfg=cfg), test_scenes, cfg)
    print(f"  {alg:16s} {np.mean([serle for serle, _, _ in scores]):+6.2f} dB")
print("the learned rule turns the diverging gradient-descent update (nlms at")
print(f"its default step size {NlmsState().step_size}, its hand-designed counterpart on the same")
print("gradient signal) into a usable canceller; every baseline runs at its untuned")
print("defaults, and the stateful rls/kf still lead at this toy scale -- see the")
print("nightly suite for the full-size comparison.")

# ---- persistence ---------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    save_checkpoint(path, params, dft_size=cfg.dft_size)
    reloaded, header = load_checkpoint(path)
    same = all(np.array_equal(params.tensors[n], reloaded.tensors[n])
               for n in params.tensors)
    print(f"\ncheckpoint roundtrip: {path.stat().st_size} bytes, tensors identical: {same}")
