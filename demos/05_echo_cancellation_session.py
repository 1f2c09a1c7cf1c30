"""A complete echo-cancellation scene, end to end.

Draws one double-talk scene (far-end speech through a simulated room, plus
near-end speech and noise), cancels the echo with the Kalman baseline, and
scores the session with the same metrics the evaluation harness reports.

Run:  python3 demos/05_echo_cancellation_session.py
"""
import numpy as np

from aflearn import OlsConfig, measure_rtf, run_classic_session, serle_db, si_sdr_db
from aflearn.metrics import erle_curve_db
from aflearn.scenes import desk_spec, gen_scene

cfg = OlsConfig(512)
scene = gen_scene(desk_spec(), seed=7)

print(f"scene seed 7: SER {scene.ser_db:+.1f} dB, SNR {scene.snr_db:+.1f} dB, "
      f"nonlinearity {scene.nonlinearity.kind}")
print(f"  far end RMS {scene.far_end.std():.3f}, echo RMS {scene.echo.std():.3f}, "
      f"near speech RMS {scene.near_speech.std():.3f}")

result = run_classic_session("kf", scene.far_end, scene.mic, cfg)
n = result.output.size
echo = scene.echo[:n]
near = (scene.near_speech + scene.near_noise)[:n]

# ---- metrics ------------------------------------------------------------------
serle = serle_db(echo, echo - result.output, cfg.hop)
sdr_before = si_sdr_db(scene.mic[:n], near)
sdr_after = si_sdr_db(result.error, near)
print(f"\nkalman session over {result.frames} frames:")
print(f"  echo suppression (SERLE)          {serle:+7.2f} dB")
print(f"  near-end SI-SDR   mic -> residual {sdr_before:+7.2f} -> {sdr_after:+7.2f} dB")

# ---- throughput (informational: numbers depend on the machine) -----------------
report = measure_rtf(lambda s: run_classic_session("kf", s.far_end, s.mic, cfg),
                     scene, repeats=2)
print(f"  real-time factor                  {report['rtf']:7.3f}  "
      f"(x{1.0 / report['rtf']:.0f} faster than real time)")

# ---- convergence profile --------------------------------------------------------
curve = erle_curve_db(scene.mic[:n], result.error, cfg.hop)
seconds = np.arange(curve.size) * cfg.frame_seconds
print("\nERLE trajectory (1 s checkpoints):")
for t in range(0, int(seconds[-1]) + 1, 1):
    idx = np.searchsorted(seconds, t)
    window = curve[idx : idx + int(1.0 / cfg.frame_seconds)]
    print(f"  t={t:2d} s  {np.nanmean(window):+6.1f} dB")
