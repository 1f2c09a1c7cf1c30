"""Workloads, correctness checks and metrics of the aflearn benchmark.

Imported by ``run.py`` once the BLAS thread cap is set and the package from
this checkout's ``src/`` is importable.  One run is one workload in one
process: closed-loop rounds until ``--seconds`` have passed.  A round
calls, one at a time and in this order: the set-up that draws every input
from the seed, a learned session per layout, a classic session per
algorithm, one training epoch and one in-process ``aflearn eval``.
Interleaving the operations spreads any slow period of a shared machine over
all metrics instead of one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import aflearn
from aflearn import cli

import tracing

LAYOUTS = ("diagonal", "block:4", "banded:4")
CLASSICS = ("nlms", "rls", "kf")
EVAL_LAYOUT = "block:4"

# The two workloads run the same operations with the two hidden sizes the
# package's callers use at K=512: H=16 (the CLI's training default) and H=8
# (the README's training example and demos/04).  Halving H quarters the GRU
# matrices, so the ols/FFT and per-call shares of a learned hop grow.
WORKLOADS = {
    "k512-h16": {"dft_size": 512, "hidden_size": 16},
    "k512-h8": {"dft_size": 512, "hidden_size": 8},
}

# Operation sizes.  "tiny" is the smoke-test size: every operation and
# check, in seconds.
SIZES = {
    "full": {"learned_s": 4.0, "classic_s": 15.0, "train_scenes": 8, "train_s": 0.6,
             "val_scenes": 2, "batch": 8, "unroll": 16, "eval_scenes": 3, "eval_s": 3.0},
    "tiny": {"learned_s": 1.0, "classic_s": 2.0, "train_scenes": 2, "train_s": 0.6,
             "val_scenes": 2, "batch": 2, "unroll": 8, "eval_scenes": 1, "eval_s": 1.0},
}

# Share of a traced run's budget spent on untraced rounds, the reference for
# the tracing overhead.
UNTRACED_SHARE = 0.4


def phase(layout):
    return layout.replace(":", "-")


SESSIONS = tuple(phase(x) for x in LAYOUTS) + CLASSICS
OPERATIONS = ("setup",) + SESSIONS + ("train", "eval")  # the order of a round


def metric_catalogue():
    """(end_to_end, per_layer) lists of (name, unit, better)."""
    end_to_end = [("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]
    end_to_end += [(f"rtf.{phase(x)}", "ratio", "lower") for x in LAYOUTS]
    end_to_end += [(f"rtf.{x}", "ratio", "lower") for x in CLASSICS]
    end_to_end += [("epoch_s", "s", "lower"), ("scenes_per_s", "1/s", "higher")]

    per_layer = []
    for s in SESSIONS:
        per_layer += [
            (f"session.self_us_per_hop.{s}", "us", "lower"),
            (f"session.hop_us_p50.{s}", "us", "lower"),
            (f"session.hop_us_p99.{s}", "us", "lower"),
            (f"session.hops.{s}", "count", "higher"),
            (f"session.deadline_miss_frac.{s}", "ratio", "lower"),
            (f"ols.us_per_hop.{s}", "us", "lower"),
            (f"ols.fft_calls_per_hop.{s}", "count", "lower"),
            (f"quality.serle_db.{s}", "dB", "higher"),
        ]
    for layout in LAYOUTS:
        p = phase(layout)
        per_layer += [
            (f"layers.gru0_step_us.{p}", "us", "lower"),
            (f"layers.gru1_step_us.{p}", "us", "lower"),
            (f"layers.sampler_us.{p}", "us", "lower"),
            (f"optimizer.step_us.{p}", "us", "lower"),
            (f"optimizer.build_input_us.{p}", "us", "lower"),
            (f"flops.macs_per_hop.{p}", "count", "lower"),
            (f"flops.achieved_gmac_per_s.{p}", "GMAC/s", "higher"),
        ]
    per_layer += [(f"classic.step_us.{x}", "us", "lower") for x in CLASSICS]
    per_layer += [
        ("training.window_ms_p50", "ms", "lower"),
        ("training.window_ms_p90", "ms", "lower"),
        ("training.windows", "count", "higher"),
        ("training.backward_share", "ratio", "lower"),
        ("training.validate_ms", "ms", "lower"),
        ("training.adam_ms", "ms", "lower"),
        ("layers.gru_backward_us", "us", "lower"),
        ("layers.sampler_backward_us", "us", "lower"),
        ("layers.log_scale_backward_us", "us", "lower"),
        ("scenes.gen_ms", "ms", "lower"),
        ("quality.val_serle_db", "dB", "higher"),
        ("scenes.load_ms", "ms", "lower"),
        ("checkpoint.load_calls", "count", "lower"),
        ("checkpoint.load_ms", "ms", "lower"),
        ("cli.self_ms_per_scene", "ms", "lower"),
        ("quality.eval_serle_db", "dB", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return end_to_end, per_layer


# ---------------------------------------------------------------------------
# machine context


def _git_commit(root):
    """HEAD of a git checkout read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_context(root):
    """Taken at the start of a run; measure_rtf's platform fields are added later."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "aflearn": aflearn.__version__,
        "git_commit": _git_commit(root),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# inputs


class Inputs:
    """Everything one run feeds the package, derived from the workload seed."""

    def __init__(self, workload, size, seed, work_dir):
        k, h = workload["dft_size"], workload["hidden_size"]
        seeds = [int(x) for x in np.random.SeedSequence(seed).generate_state(8)]
        self.cfg = aflearn.OlsConfig.for_dft_size(k)
        self.hidden_size = h
        self.learned = {}
        for i, layout in enumerate(LAYOUTS):
            structure = aflearn.DependencyStructure.parse(layout)
            scene = aflearn.gen_scene(aflearn.desk_spec(duration=size["learned_s"]), seeds[i])
            params = aflearn.init_meta_params(structure, h, seed=seeds[i])
            self.learned[layout] = (scene, params)
        self.classic_scene = aflearn.gen_scene(
            aflearn.desk_spec(duration=size["classic_s"]), seeds[3],
            path_change_at=size["classic_s"] / 2)

        self.train_spec = aflearn.desk_spec(duration=size["train_s"])
        self.train_seeds = [seeds[4] + i for i in range(size["train_scenes"])]
        self.val_seeds = [seeds[5] + i for i in range(size["val_scenes"])]
        self.val_scenes = [aflearn.gen_scene(self.train_spec, s) for s in self.val_seeds]
        self.init_seed = seeds[6] % 2**31
        self.batch, self.unroll = size["batch"], size["unroll"]

        self.data_dir = work_dir / "data"
        spec_path = work_dir / "eval-spec.json"
        spec_path.write_text(json.dumps(
            aflearn.scenes.spec_to_json(aflearn.desk_spec(duration=size["eval_s"]))))
        self.eval_scenes = size["eval_scenes"]
        rc, _ = call_cli(["gen-data", str(spec_path), str(self.data_dir),
                          "--count", str(self.eval_scenes), "--seed", str(seeds[7] % 2**31),
                          "--split", "0,0,1"])
        if rc != 0:
            raise RuntimeError(f"aflearn gen-data exited {rc}")
        self.checkpoint = work_dir / "rule.ckpt"
        eval_params = aflearn.init_meta_params(
            aflearn.DependencyStructure.parse(EVAL_LAYOUT), h, seed=seeds[7])
        aflearn.save_checkpoint(self.checkpoint, eval_params, dft_size=k)
        self.eval_csv = work_dir / "scores.csv"


def call_cli(argv):
    """aflearn.cli.main in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# operations and their checks


class Checks:
    """Counts operations attempted and failed; a failure names what broke."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._reference = {}

    @property
    def failed(self):
        return len(self.failures)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def same_as_first(self, key, value, problems):
        """Repeats of an operation on the same inputs must agree bit for bit."""
        first = self._reference.setdefault(key, value)
        if first is not value and not _identical(first, value):
            problems.append("differs from the first run of the same inputs")


def _identical(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def session_problems(result, scene, cfg):
    problems = []
    hops = scene.far_end.size // cfg.hop
    if result.frames != hops:
        problems.append(f"{result.frames} frames, expected {hops}")
    for name in ("output", "error"):
        arr = getattr(result, name)
        if arr.size != hops * cfg.hop:
            problems.append(f"{name} has {arr.size} samples, expected {hops * cfg.hop}")
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} is not finite")
    return problems


def session_serle(result, scene, cfg):
    echo = scene.echo[: result.output.size]
    return aflearn.serle_db(echo, echo - result.output, cfg.hop)


def run_session(inp, kind, checks):
    """One single-stream session; returns (measure_rtf info, result, scene)."""
    box = {}
    if kind in CLASSICS:
        scene = inp.classic_scene

        def session(s):
            box["r"] = aflearn.run_classic_session(kind, s.far_end, s.mic, inp.cfg)
    else:
        scene, params = inp.learned[kind]

        def session(s):
            box["r"] = aflearn.run_learned_session(params, s.far_end, s.mic, inp.cfg)

    info = aflearn.measure_rtf(session, scene)
    result = box["r"]
    problems = session_problems(result, scene, inp.cfg)
    checks.same_as_first(("session", kind), result.output, problems)
    checks.record(f"session {kind}", problems)
    return info, result, scene


def run_epoch(inp, checks):
    """One epoch of train_update_rule, validation included; returns (seconds, params, history)."""
    start = time.perf_counter()
    params, history = aflearn.train_update_rule(
        aflearn.DependencyStructure.diagonal(), inp.hidden_size, inp.cfg, inp.train_spec,
        inp.train_seeds, inp.val_seeds, epochs=1, batch_size=inp.batch, unroll=inp.unroll,
        init_seed=inp.init_seed)
    seconds = time.perf_counter() - start
    problems = []
    if len(history) != 1:
        problems.append(f"{len(history)} epochs recorded, expected 1")
    for row in history:
        for key in ("train_loss", "val_serle_db"):
            if not np.isfinite(row[key]):
                problems.append(f"{key} is {row[key]}")
    checks.same_as_first("train", params.to_flat(), problems)
    checks.record("train epoch", problems)
    return seconds, params, history


def run_eval(inp, checks):
    """One in-process ``aflearn eval``; returns (seconds, per-scene rows)."""
    argv = ["eval", str(inp.checkpoint), str(inp.data_dir), str(inp.eval_csv),
            "--split", "test"]
    start = time.perf_counter()
    rc, _ = call_cli(argv)
    seconds = time.perf_counter() - start
    problems = []
    rows = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    else:
        text = inp.eval_csv.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != inp.eval_scenes:
            problems.append(f"{len(rows)} CSV rows for {inp.eval_scenes} scenes")
        if not all(r["serle_db"] and np.isfinite(float(r["serle_db"])) for r in rows):
            problems.append("a scene has no finite SERLE")
        summary = inp.eval_csv.with_suffix(".summary.csv")
        if not summary.is_file() or len(list(csv.DictReader(summary.open()))) != 1:
            problems.append("summary file missing or not one row")
        checks.same_as_first("eval", text, problems)
    checks.record("eval", problems)
    return seconds, rows


def cross_check_cli(inp, rows, checks):
    """The CLI's score of one scene equals an in-process API session on it."""
    problems = []
    if not rows:
        problems.append("no eval rows to compare")
    else:
        row = rows[0]
        params, _ = aflearn.load_checkpoint(inp.checkpoint)
        scene = aflearn.load_scene(inp.data_dir, row["scene"])
        result = aflearn.run_learned_session(params, scene.far_end, scene.mic, inp.cfg)
        api = round(session_serle(result, scene, inp.cfg), 4)
        if float(row["serle_db"]) != api:
            problems.append(f"CLI SERLE {row['serle_db']} != API SERLE {api}")
    checks.record("cli-vs-api", problems)


def cross_check_train(inp, params, history, checks):
    """The epoch's reported val_serle_db equals evaluating the returned rule."""
    problems = []
    score = aflearn.evaluate_mean_serle(params, inp.val_scenes, inp.cfg)
    if not history or score != history[0]["val_serle_db"]:
        problems.append(f"evaluate_mean_serle {score} != history "
                        f"{history[0]['val_serle_db'] if history else None}")
    checks.record("train-vs-evaluate", problems)


# ---------------------------------------------------------------------------
# the run


def _median(values):
    return float(statistics.median(values))


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q))


# Machine-speed calibration.  On a shared machine the speed of the core this
# process runs on swings by up to 1.7x for seconds to minutes (another
# tenant on the sibling hardware thread), and all operations of a round slow
# together.  Before each operation, and twice after each phase of rounds,
# the run times a fixed NumPy kernel that is independent of aflearn.  Every
# timing is scaled by CALIBRATION_REFERENCE_S / (median of the four kernel
# times nearest to it, two before and two after), so it reads as the time at
# the reference speed.  The raw timings are kept in the result file.  A
# change to aflearn cannot move the kernel.
CALIBRATION_REFERENCE_S = 0.050
_FFT, _IFFT = np.fft.fft, np.fft.ifft  # captured before any tracing wrapper


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal(512)
        self.a = rng.standard_normal((512, 16)) + 1j * rng.standard_normal((512, 16))
        self.w = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))

    def __call__(self):
        """Seconds for 300 hops of FFTs, a small complex product and split gates."""
        start = time.perf_counter()
        for _ in range(300):
            f = _FFT(self.x)
            _IFFT(f * f)
            z = self.a @ self.w.T
            1.0 / (1.0 + np.exp(-z.real)) + 1j * np.tanh(z.imag)
        return time.perf_counter() - start


def _speed_factors(rounds):
    """Per round, {operation: factor} that scales its raw time to the reference speed."""
    kernel = [c for r in rounds for c in r["calib"] + r.get("calib_after", [])]
    n = len(OPERATIONS)  # kernel[k * n + j] ran just before operation j of round k
    return [{op: CALIBRATION_REFERENCE_S / _median(kernel[max(k * n + j - 1, 0):k * n + j + 3])
             for j, op in enumerate(OPERATIONS)} for k in range(len(rounds))]


def _calibrated_total(rounds):
    return [sum(r["op_s"][op] * f[op] for op in OPERATIONS)
            for r, f in zip(rounds, _speed_factors(rounds))]


class Samples:
    """Per-round timings of untraced rounds and aggregates of traced ones."""

    def __init__(self):
        self.rounds = []
        self.traced_rounds = []
        self.sessions = {s: [] for s in SESSIONS}
        self.train = []
        self.evals = []
        self.quality = {}
        self.platform = {}

    def run_speed(self):
        calib = [c for r in self.rounds + self.traced_rounds for c in r["calib"]]
        return CALIBRATION_REFERENCE_S / _median(calib)


def run_round(make_inputs, checks, samples, calibrate, tracer=None):
    """One closed-loop round: set-up, then every operation once, one call at a time.

    Returns the round's inputs and the spans of each operation (empty lists
    when untraced).
    """
    record = {"calib": [], "op_s": {}, "rtf": {}}
    op_spans = []

    def before():
        record["calib"].append(calibrate())

    def after(op, seconds):
        record["op_s"][op] = seconds
        spans = tracer.take() if tracer else []
        op_spans.append(spans)
        return spans

    before()
    start = time.perf_counter()
    inp = make_inputs()
    after("setup", time.perf_counter() - start)

    for kind in LAYOUTS + CLASSICS:
        before()
        info, result, scene = run_session(inp, kind, checks)
        name = phase(kind)
        spans = after(name, info["rtf"] * scene.spec.duration)
        record["rtf"][name] = info["rtf"]
        samples.platform = {key: info[key] for key in ("platform", "python")}
        if tracer and kind in CLASSICS:
            samples.sessions[name].append(tracing.session_stats(
                spans, "session.run_classic_session", f"classic.{kind}_step", result.frames))
        elif tracer:
            samples.sessions[name].append(tracing.session_stats(
                spans, "session.run_learned_session", "optimizer.apply_update", result.frames))
        if name not in samples.quality:
            samples.quality[name] = session_serle(result, scene, inp.cfg)

    before()
    seconds, params, history = run_epoch(inp, checks)
    spans = after("train", seconds)
    if tracer:
        samples.train.append(tracing.train_stats(spans))
    if "train" not in samples.quality:
        samples.quality["train"] = history[0]["val_serle_db"] if history else float("nan")
        cross_check_train(inp, params, history, checks)

    before()
    seconds, rows = run_eval(inp, checks)
    spans = after("eval", seconds)
    if tracer:
        samples.evals.append(tracing.eval_stats(spans, inp.eval_scenes))
    if "eval" not in samples.quality:
        scores = [float(r["serle_db"]) for r in rows]
        samples.quality["eval"] = float(np.mean(scores)) if scores else float("nan")
        cross_check_cli(inp, rows, checks)

    (samples.traced_rounds if tracer else samples.rounds).append(record)
    return inp, op_spans


def end_to_end_metrics(samples, eval_scenes, calibrated=True):
    rounds = samples.rounds
    if calibrated:
        speed = _speed_factors(rounds)
    else:
        speed = [dict.fromkeys(OPERATIONS, 1.0)] * len(rounds)

    def median_of(op, value):
        return _median([value(r) * f[op] for r, f in zip(rounds, speed)])

    values = {
        "setup_s": median_of("setup", lambda r: r["op_s"]["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epoch_s": median_of("train", lambda r: r["op_s"]["train"]),
        "scenes_per_s": eval_scenes / median_of("eval", lambda r: r["op_s"]["eval"]),
    }
    for s in SESSIONS:
        values[f"rtf.{s}"] = median_of(s, lambda r: r["rtf"][s])
    return values


def per_layer_metrics(samples, inp):
    us, ms = 1e6, 1e3
    values = {}
    for s in SESSIONS:
        stats = samples.sessions[s]
        hops = sum(x["hops"] for x in stats)
        hop_s = [h for x in stats for h in x["hop_s"]]
        values.update({
            f"session.self_us_per_hop.{s}": us * sum(x["self_s"] for x in stats) / hops,
            f"session.hop_us_p50.{s}": us * _quantile(hop_s, 0.5),
            f"session.hop_us_p99.{s}": us * _quantile(hop_s, 0.99),
            f"session.hops.{s}": hops,
            f"session.deadline_miss_frac.{s}":
                sum(h > inp.cfg.frame_seconds for h in hop_s) / len(hop_s),
            f"ols.us_per_hop.{s}": us * sum(x["ols_s"] for x in stats) / hops,
            f"ols.fft_calls_per_hop.{s}": sum(x["fft_calls"] for x in stats) / hops,
            f"quality.serle_db.{s}": samples.quality[s],
        })
    for layout in LAYOUTS:
        p = phase(layout)
        stats = samples.sessions[p]
        hops = sum(x["hops"] for x in stats)
        macs = aflearn.FlopModel(aflearn.DependencyStructure.parse(layout),
                                 inp.cfg.dft_size, inp.hidden_size).total
        step_s = _median([t for x in stats for t in x["optimizer_step_s"]])
        values.update({
            f"layers.gru0_step_us.{p}": us * _median([t for x in stats for t in x["gru0_s"]]),
            f"layers.gru1_step_us.{p}": us * _median([t for x in stats for t in x["gru1_s"]]),
            f"layers.sampler_us.{p}": us * sum(x["sampler_s"] for x in stats) / hops,
            f"optimizer.step_us.{p}": us * step_s,
            f"optimizer.build_input_us.{p}":
                us * _median([t for x in stats for t in x["build_input_s"]]),
            f"flops.macs_per_hop.{p}": macs,
            f"flops.achieved_gmac_per_s.{p}": macs / step_s / 1e9,
        })
    for algo in CLASSICS:
        values[f"classic.step_us.{algo}"] = us * _median(
            [t for x in samples.sessions[algo] for t in x["classic_step_s"]])

    train = samples.train
    windows = [w for x in train for w in x["window_s"]]
    values.update({
        "training.window_ms_p50": ms * _quantile(windows, 0.5),
        "training.window_ms_p90": ms * _quantile(windows, 0.9),
        "training.windows": len(windows),
        "training.backward_share": sum(x["backward_s"] for x in train) / sum(windows),
        "training.validate_ms": ms * _median([x["validate_s"] for x in train]),
        "training.adam_ms": ms * _median([x["adam_s"] for x in train]),
        "layers.gru_backward_us": us * _median([t for x in train for t in x["gru_backward_s"]]),
        "layers.sampler_backward_us": us * _median([x["sampler_backward_s"] for x in train]),
        "layers.log_scale_backward_us":
            us * _median([t for x in train for t in x["log_scale_backward_s"]]),
        "scenes.gen_ms": ms * _median([t for x in train for t in x["gen_scene_s"]]),
        "quality.val_serle_db": samples.quality["train"],
    })
    evals = samples.evals
    traced = _calibrated_total(samples.traced_rounds)
    untraced = _calibrated_total(samples.rounds)
    values.update({
        "scenes.load_ms": ms * _median([t for x in evals for t in x["scene_load_s"]]),
        "checkpoint.load_calls": _median([x["load_calls"] for x in evals]),
        "checkpoint.load_ms": ms * _median([t for x in evals for t in x["load_s"]]),
        "cli.self_ms_per_scene": ms * _median([x["cli_self_s"] for x in evals]),
        "quality.eval_serle_db": samples.quality["eval"],
        "trace.overhead_frac": _median(traced) / _median(untraced) - 1.0,
    })
    return values


def _round_s(record):
    return sum(record["op_s"].values()) + sum(record["calib"])


def run(root, workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (report dict, spans of the last traced round)."""
    sizes = SIZES[size]
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    checks = Checks()
    samples = Samples()
    calibrate = Calibration()
    context = machine_context(root)
    values, raw, spans = {}, {}, None

    def make_inputs():
        return Inputs(WORKLOADS[workload], sizes, seed, work)

    try:
        begin = time.perf_counter()
        untraced_budget = seconds * (UNTRACED_SHARE if trace else 1.0)
        while True:
            inp, _ = run_round(make_inputs, checks, samples, calibrate)
            if time.perf_counter() - begin + _round_s(samples.rounds[-1]) > untraced_budget:
                break
        samples.rounds[-1]["calib_after"] = [calibrate(), calibrate()]
        if trace:
            with tracing.Tracer() as tracer:
                while True:
                    inp, spans = run_round(make_inputs, checks, samples, calibrate, tracer)
                    if time.perf_counter() - begin + _round_s(samples.traced_rounds[-1]) > seconds:
                        break
            samples.traced_rounds[-1]["calib_after"] = [calibrate(), calibrate()]
            values = per_layer_metrics(samples, inp)
        else:
            values = end_to_end_metrics(samples, inp.eval_scenes)
            raw = end_to_end_metrics(samples, inp.eval_scenes, calibrated=False)
        context["speed_factor"] = samples.run_speed()
    except Exception:
        checks.record("run", [traceback.format_exc(limit=8)])
        values, spans = {}, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context.update(samples.platform)

    end_to_end, per_layer = metric_catalogue()
    catalogue = per_layer if trace else end_to_end
    missing = [name for name, _, _ in catalogue if name not in values]
    if values and missing:
        checks.record("metrics", [f"missing {missing}"])
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "context": context,
        "correct": checks.failed == 0 and not missing,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in catalogue if name in values},
        "raw_metrics": raw,
        "directions": {name: better for name, _, better in catalogue},
        "rounds": samples.rounds,
        "traced_rounds": samples.traced_rounds,
    }
    return report, spans


def write_outputs(root, report, spans):
    """Result file per run, plus the last traced round's spans."""
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans:
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps([tracing.dump(op) for op in spans]) + "\n")
    return out_dir / f"{stem}.json"


def print_report(report, stream=sys.stdout):
    ctx = report["context"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          + " ".join(f"{key}={value}" for key, value in ctx.items()), file=stream)
    raw = report["raw_metrics"]
    for name, entry in report["metrics"].items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']:8s} "
              f"{report['directions'][name]} is better{extra}", file=stream)
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=stream)
    print(f"# rounds: {len(report['rounds'])} untraced, {len(report['traced_rounds'])} traced; "
          f"checks: {report['attempted']} attempted, {report['failed']} failed", file=stream)
