"""Classical frequency-domain adaptive filters on a system-identification task.

A static random echo path is identified from pink-noise excitation; the three
baselines (NLMS, RLS, Kalman) are compared by normalized misalignment, then
the path flips abruptly and the Kalman filter shows its re-convergence.

Run:  python3 demos/02_classic_baselines.py
"""
from aflearn import OlsConfig, misalignment_db, run_classic_session
from aflearn.scenes import desk_spec, gen_scene

cfg = OlsConfig(512)
spec = desk_spec(near_speech_prob=0.0, noise_prob=0.0)   # noiseless identification
scene = gen_scene(spec, seed=42)
w_true = scene.path_spectrum(cfg)

print(f"scene: {scene.spec.duration:.0f} s, RIR {scene.rir.size} taps, "
      f"nonlinearity {scene.nonlinearity.kind}")

# ---- static path ------------------------------------------------------------
print("\nfinal normalized misalignment after 10 s:")
for alg in ("nlms", "rls", "kf"):
    result = run_classic_session(alg, scene.far_end, scene.mic, cfg)
    mis = misalignment_db(result.weights, w_true)
    print(f"  {alg:4s}  {mis:8.1f} dB   (mean ERLE {result.mean_erle_db:5.1f} dB)")

# ---- abrupt path change -----------------------------------------------------
switch_s = spec.duration / 2
scene2 = gen_scene(spec, seed=42, path_change_at=switch_s)
switch = scene2.rir_switch[0]
result = run_classic_session("kf", scene2.far_end, scene2.mic, cfg,
                             snapshot_stride=31)
w_after = scene2.path_spectrum(cfg, which=1)

print(f"\nKalman misalignment around the path flip at {switch_s:.1f} s:")
for frame, w in result.snapshots:
    t = (frame + 1) * cfg.hop / cfg.sample_rate
    target = w_true if (frame + 1) * cfg.hop <= switch else w_after
    print(f"  t={t:5.2f} s   {misalignment_db(w, target):7.1f} dB")
