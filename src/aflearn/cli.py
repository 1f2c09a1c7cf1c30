"""Command-line entry points: dataset generation, training, evaluation, and
single-file echo cancellation.

Exit codes
    0  success
    2  configuration error (bad config/field, unsupported format, bad usage)
    3  numeric failure (divergence, undefined metric)
    4  I/O error (missing/corrupt files)

CSV schemas
    training curve   the keys of train_update_rule's history record:
                     epoch,train_loss,val_serle_db,lr,seconds
    per-scene eval   scene,seed,split,algorithm,serle_db,erle_db,frames
    eval summary     algorithm,split,scenes,mean_serle_db,ci_lo_db,ci_hi_db
    sweep            checkpoint,structure,hidden_size,scenes,mean_serle_db,
                     ci_lo_db,ci_hi_db,flops_per_frame

Telemetry (``--telemetry``) is JSON lines, one object per processed frame:
{"frame": int, "erle_db": float, "residual_power": float}: the residual hop's
``metrics.hop_powers`` and the ``metrics.erle_db`` of the microphone hop's
power over it (4 decimals; 0 dB where both are zero, as in leading silence).

``train``'s ``schedule`` object is ``TrainSchedule``'s fields, which that class
names, defaults and checks; every scene is drawn at the config's ``sample_rate``.
Presets and spec JSON are read through ``scenes.PRESETS`` and ``SceneSpec(**d)``;
``train`` checks what a resumed checkpoint file adds, ``train_update_rule`` the
rest.  ``eval`` and ``cancel`` build their session with one ``_session_for``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .errors import (ConfigError, MetricUndefinedError, NumericError, check_number,
                     is_finite_real, is_int, require)
from .flops import FlopModel
from .metrics import bootstrap_mean_ci
from .ols import OlsConfig
from .scenes import (
    PRESETS,
    SceneSpec,
    gen_scene,
    load_scene,
    read_wav,
    save_scene,
    spec_to_json,
    write_wav,
)
from .session import CLASSIC_ALGORITHMS, run_classic_session, run_learned_session
from .structures import DependencyStructure
from .training import LOCKSTEP_CHUNK, TrainSchedule, scene_scores, train_update_rule

__all__ = ["main", "build_parser", "validate_train_config", "TRAIN_DEFAULTS"]

TRAIN_DEFAULTS = {
    "structure": "diagonal",
    "hidden_size": 16,
    "dft_size": 512,
    "sample_rate": 16000,
    "scenes": {"preset": "desk", "overrides": {}, "manifest": None},
    "train_scenes": 200,
    "val_scenes": 20,
    "seed": 0,
    "epochs": 20,
    "batch_size": 8,
    "unroll": 20,
    "schedule": asdict(TrainSchedule()),
    "checkpoint": "aflearn.ckpt",
    "curve_csv": None,
    "resume": None,
}

_VAL_SEED_OFFSET = 1_000_000  # keeps validation scene seeds out of the train range
_MANIFEST_SCHEMA = 1  # the manifest format gen-data writes and _load_manifest reads


def validate_train_config(raw):
    """Merge ``raw`` over the defaults and validate every field.

    Returns the canonical config dict; raises ConfigError naming the
    offending field otherwise.  ``TrainSchedule`` checks the schedule.
    """
    require(isinstance(raw, dict), "config", "top level must be a JSON object")
    raw = dict(raw)
    hop = raw.pop("hop", None)  # older configs spell out the derived hop
    for key in raw:
        require(key in TRAIN_DEFAULTS, key, "unknown field")

    out = json.loads(json.dumps(TRAIN_DEFAULTS))  # deep copy
    for key, value in raw.items():
        if key in ("scenes", "schedule"):
            require(isinstance(value, dict), key, "must be an object")
            for sub in value:
                require(sub in out[key], f"{key}.{sub}", "unknown field")
            out[key].update(value)
        else:
            out[key] = value

    require(isinstance(out["structure"], str), "structure", "must be a string")
    structure = DependencyStructure.parse(out["structure"])

    out["hidden_size"] = check_number(out["hidden_size"], "hidden_size", int, 1)
    out["dft_size"] = check_number(out["dft_size"], "dft_size", int, 2)
    out["sample_rate"] = check_number(out["sample_rate"], "sample_rate", int, 1)
    OlsConfig(out["dft_size"], sample_rate=out["sample_rate"])
    if hop is not None:
        hop = check_number(hop, "hop", int, 1)
        require(hop == out["dft_size"] // 2, "hop",
                f"must be dft_size/2 = {out['dft_size'] // 2}, got {hop}")
    structure.group_count(out["dft_size"])  # names the offending width field

    scenes = out["scenes"]
    if scenes["manifest"] is None:
        require(isinstance(scenes["preset"], str) and scenes["preset"] in PRESETS,
                "scenes.preset", f"expected {' or '.join(map(repr, PRESETS))}, "
                                 f"got {scenes['preset']!r}")
        require(isinstance(scenes["overrides"], dict), "scenes.overrides",
                "must be an object")
        _preset_train_spec(out)
    else:
        require(isinstance(scenes["manifest"], str), "scenes.manifest",
                "must be a path string")

    for key, minimum in (("train_scenes", 1), ("val_scenes", 1), ("seed", 0), ("epochs", 1),
                         ("batch_size", 1), ("unroll", 1)):
        out[key] = check_number(out[key], key, int, minimum)
    require(out["train_scenes"] < _VAL_SEED_OFFSET, "train_scenes",
            f"must stay below {_VAL_SEED_OFFSET}")

    out["schedule"] = asdict(TrainSchedule(**out["schedule"]))

    require(isinstance(out["checkpoint"], str) and out["checkpoint"],
            "checkpoint", "must be a path string")
    if out["curve_csv"] is not None:
        require(isinstance(out["curve_csv"], str), "curve_csv", "must be a path string")
    if out["resume"] is not None:
        require(isinstance(out["resume"], str), "resume", "must be a path string")
    return out


def _preset_train_spec(config):
    """The scene spec of a config without a manifest: its preset and overrides, drawn
    at the config's ``sample_rate``, which an override may repeat but not contradict."""
    scenes, rate = config["scenes"], config["sample_rate"]
    overrides = dict(scenes["overrides"])
    require(overrides.setdefault("sample_rate", rate) == rate, "scenes.overrides.sample_rate",
            f"the scenes are drawn at sample_rate {rate} Hz, got {overrides['sample_rate']!r}")
    try:
        return PRESETS[scenes["preset"]](**overrides)
    except (TypeError, ConfigError) as exc:
        raise ConfigError("scenes.overrides", str(exc)) from None


def _load_json(path, field):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(field, f"{path}: invalid JSON ({exc})") from None


def _load_spec_argument(spec_arg):
    if spec_arg in PRESETS:
        return PRESETS[spec_arg]()
    raw = _load_json(spec_arg, "spec")
    try:
        return SceneSpec(**raw)
    except TypeError as exc:
        raise ConfigError("spec", f"{spec_arg}: {exc}") from None


def _split_counts(count, ratios):
    """Largest-remainder allocation of ``count`` scenes over the ratios."""
    total = sum(ratios)
    exact = [count * r / total for r in ratios]
    base = [int(x) for x in exact]
    for _ in range(count - sum(base)):
        idx = max(range(len(ratios)), key=lambda i: (exact[i] - base[i], -i))
        base[idx] += 1
    return base


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args):
    spec = _load_spec_argument(args.spec)
    try:
        ratios = [int(x) for x in args.split.split(",")]
        if len(ratios) != 3 or any(r < 0 for r in ratios) or sum(ratios) == 0:
            raise ValueError
    except ValueError:
        raise ConfigError("split", f"expected three ratios like 8,1,1, got {args.split!r}")
    require(args.count >= 1, "count", "must be at least 1")
    require(args.seed >= 0, "seed", f"scene seeds must be non-negative, got {args.seed}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_train, n_val, n_test = _split_counts(args.count, ratios)
    splits = ["train"] * n_train + ["val"] * n_val + ["test"] * n_test

    entries = []
    for i, split in enumerate(splits):
        seed = args.seed + i
        stem = f"scene_{i:05d}"
        save_scene(gen_scene(spec, seed), out_dir, stem)
        entries.append({"stem": stem, "seed": seed, "split": split})

    manifest = {
        "schema": _MANIFEST_SCHEMA,
        "seed": args.seed,
        "spec": spec_to_json(spec),
        "split_counts": {"train": n_train, "val": n_val, "test": n_test},
        "scenes": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


# ---------------------------------------------------------------------------
# train


_SPLITS = ("train", "val", "test")


def _load_manifest(path):
    """A gen-data manifest's (spec, scene entries); ConfigError naming 'manifest' if malformed."""
    manifest = _load_json(path, "manifest")

    def check(condition, message):
        require(condition, "manifest", f"{path}: {message}")

    check(isinstance(manifest, dict) and "spec" in manifest and "scenes" in manifest,
          "expected an object with 'spec' and 'scenes'")
    schema = manifest.get("schema")  # None if missing
    check(is_int(schema) and schema == _MANIFEST_SCHEMA,
          f"unsupported schema {schema!r}; gen-data writes {_MANIFEST_SCHEMA}")
    try:
        spec = SceneSpec(**manifest["spec"])
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError("manifest", f"{path}: bad spec ({exc})") from None
    entries = manifest["scenes"]
    check(isinstance(entries, list), "'scenes' must be a list")
    for i, entry in enumerate(entries):
        check(isinstance(entry, dict) and {"stem", "seed", "split"} <= entry.keys(),
              f"scene {i} needs 'stem', 'seed' and 'split'")
        check(isinstance(entry["stem"], str) and entry["stem"], f"scene {i}: bad stem")
        check(is_int(entry["seed"]) and entry["seed"] >= 0,
              f"scene {i}: seed must be a non-negative integer")
        check(entry["split"] in _SPLITS, f"scene {i}: unknown split {entry['split']!r}")
    return spec, entries


_ARTIFACT_KEYS = ("resume", "checkpoint", "curve_csv")  # not part of the run identity

# (key, kind, minimum) of each value of a checkpoint's schedule state
_SCHEDULE_STATE = (("epoch", int, 0), ("lr", float, 0.0), ("best_val", float, None),
                   ("since_improve", int, 0))


def cmd_train(args):
    raw = _load_json(args.config, "config")
    config = validate_train_config(raw)
    structure = DependencyStructure.parse(config["structure"])
    cfg = OlsConfig(config["dft_size"], sample_rate=config["sample_rate"])

    manifest = config["scenes"]["manifest"]
    if manifest is not None:
        spec, entries = _load_manifest(manifest)
        by_split = {split: [e["seed"] for e in entries if e["split"] == split]
                    for split in _SPLITS}
        train_seeds = by_split["train"]
        val_seeds = by_split["val"] or by_split["test"]
        require(train_seeds, "scenes.manifest", "manifest has no train scenes")
        require(val_seeds, "scenes.manifest", "manifest has no val/test scenes")
        require(spec.sample_rate == config["sample_rate"], "sample_rate",
                f"manifest scenes are {spec.sample_rate} Hz")
    else:
        spec = _preset_train_spec(config)
        base = config["seed"]
        train_seeds = [base + i for i in range(config["train_scenes"])]
        val_seeds = [base + _VAL_SEED_OFFSET + i for i in range(config["val_scenes"])]

    resume = None
    if config["resume"]:  # train_update_rule checks that the checkpoint fits the run
        params, header = load_checkpoint(config["resume"])
        require(header["dft_size"] == cfg.dft_size, "resume", f"checkpoint was trained "
                f"at dft_size {header['dft_size']}, config wants {cfg.dft_size}")
        state = header["metadata"].get("schedule_state")
        require(state is not None, "resume", "checkpoint has no schedule state")
        try:  # a malformed schedule state is a bad checkpoint
            require(isinstance(state, dict), "schedule_state", "must be an object")
            resume = {key: check_number(state.get(key), f"schedule_state.{key}", kind, low)
                      for key, kind, low in _SCHEDULE_STATE}
        except ConfigError as exc:
            raise CheckpointError(f"{config['resume']}: {exc}") from None
        resume["params"] = params

    ckpt_path = Path(config["checkpoint"])
    identity = {k: v for k, v in config.items() if k not in _ARTIFACT_KEYS}
    if manifest is not None:  # the dataset by content, not by the path it was named by
        digest = hashlib.sha256(Path(manifest).read_bytes()).hexdigest()
        identity["scenes"] = {**config["scenes"], "manifest": f"sha256:{digest}"}
    curve = writer = None

    def log_row(row):
        nonlocal curve, writer
        print(
            f"epoch {row['epoch']:3d}  loss {row['train_loss']:+.4f}  "
            f"val SERLE {row['val_serle_db']:6.2f} dB  lr {row['lr']:.2e}  "
            f"{row['seconds']:.1f}s"
        )
        if not config["curve_csv"]:
            return
        if writer is None:  # opened with the first row, so a run that fails before it leaves none
            Path(config["curve_csv"]).parent.mkdir(parents=True, exist_ok=True)
            curve = open(config["curve_csv"], "w", newline="")
            writer = csv.DictWriter(curve, fieldnames=list(row))
            writer.writeheader()
        writer.writerow(row)
        curve.flush()

    def save_progress(best_params, state):
        ckpt_path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(ckpt_path, best_params, dft_size=cfg.dft_size, metadata={
            "sample_rate": config["sample_rate"], "config": identity, "schedule_state": state})

    try:
        best, history = train_update_rule(
            structure,
            config["hidden_size"],
            cfg,
            spec,
            train_seeds,
            val_seeds,
            schedule=TrainSchedule(**config["schedule"]),
            epochs=config["epochs"],
            batch_size=config["batch_size"],
            unroll=config["unroll"],
            init_seed=config["seed"],
            log=log_row,
            checkpoint_cb=save_progress,
            resume=resume,
        )
    except NumericError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if ckpt_path.exists():
            print(f"last good checkpoint kept at {ckpt_path}", file=sys.stderr)
        return 3
    finally:
        if curve:
            curve.close()

    print(ckpt_path)
    return 0


# ---------------------------------------------------------------------------
# eval


def _parse_hyper(text):
    """``--hyper``: a JSON object of numeric baseline hyperparameters, {} if absent."""
    hyper = json.loads(text) if text else {}
    require(isinstance(hyper, dict), "hyper", f"expected a JSON object, got {text!r}")
    for name, value in hyper.items():
        require(is_finite_real(value), "hyper", f"{name} must be a finite number, got {value!r}")
    return hyper


def _session_for(target, dft_size, sample_rate, hyper):
    """(cfg, ``session(u, d, **kwargs)``, params or None) of a baseline name or a
    checkpoint path, run on inputs sampled at ``sample_rate``.  A checkpoint
    brings its own DFT size and takes no ``hyper``."""
    params = None
    if target not in CLASSIC_ALGORITHMS:
        require(not hyper, "hyper", f"{target} is a checkpoint; --hyper sets the "
                                    f"hyperparameters of {', '.join(CLASSIC_ALGORITHMS)}")
        params, header = load_checkpoint(target)
        rate = header["metadata"].get("sample_rate", sample_rate)
        if not is_int(rate) or rate < 1:
            raise CheckpointError(f"{target}: bad sample_rate {rate!r} in metadata")
        require(rate == sample_rate, "sample_rate",
                f"{target} expects {rate} Hz, the inputs are {sample_rate} Hz")
        dft_size = header["dft_size"]
    cfg = OlsConfig(dft_size, sample_rate=sample_rate)
    if params is None:
        return cfg, partial(run_classic_session, target, cfg=cfg, hyper=hyper), None
    return cfg, partial(run_learned_session, params, cfg=cfg), params


def _eval_chunk_task(task):
    """Rows of scenes scored in lockstep; module-level so --jobs workers can pickle it.
    A ``NumericError`` names the chunk's scenes."""
    directory, entries, label, cfg, session = task
    scenes = [load_scene(directory, e["stem"]) for e in entries]
    for entry, scene in zip(entries, scenes):
        require(scene.spec.sample_rate == cfg.sample_rate, "sample_rate",
                f"{entry['stem']}: scene is {scene.spec.sample_rate} Hz, "
                f"session expects {cfg.sample_rate} Hz")
    try:
        scores = scene_scores(session, scenes, cfg)
    except NumericError as exc:
        raise NumericError(f"{exc} in a lockstep chunk of scenes "
                           f"{', '.join(e['stem'] for e in entries)}") from exc
    return [
        {"scene": e["stem"], "seed": e["seed"], "split": e["split"], "algorithm": label,
         "serle_db": "" if serle is None else round(serle, 4), "erle_db": round(erle, 4),
         "frames": frames}
        for e, (serle, erle, frames) in zip(entries, scores)
    ]


EVAL_COLUMNS = ["scene", "seed", "split", "algorithm", "serle_db", "erle_db", "frames"]
SUMMARY_COLUMNS = ["algorithm", "split", "scenes", "mean_serle_db", "ci_lo_db", "ci_hi_db"]
SWEEP_COLUMNS = [
    "checkpoint", "structure", "hidden_size", "scenes",
    "mean_serle_db", "ci_lo_db", "ci_hi_db", "flops_per_frame",
]


def _manifest_entries(manifest_arg, split):
    """(scene directory, entries of ``split``, the scenes' sample rate)."""
    path = Path(manifest_arg)
    if path.is_dir():
        path = path / "manifest.json"
    spec, entries = _load_manifest(path)
    entries = [e for e in entries if split in ("all", e["split"])]
    require(entries, "split", f"no scenes in split {split!r}")
    return path.parent, entries, spec.sample_rate


def _run_eval(directory, entries, rate, target, hyper, args):
    """Per-scene rows of one target and its (cfg, params); loads a checkpoint once."""
    cfg, session, params = _session_for(target, args.dft_size, rate, hyper)
    label = target if params is None else Path(target).stem
    # lockstep chunks small enough that every --jobs worker gets one
    chunk = min(LOCKSTEP_CHUNK, math.ceil(len(entries) / args.jobs))
    tasks = [(str(directory), entries[lo : lo + chunk], label, cfg, session)
             for lo in range(0, len(entries), chunk)]
    workers = min(args.jobs, len(tasks))  # the pool forks every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_eval_chunk_task, tasks))
    else:
        chunks = map(_eval_chunk_task, tasks)
    return [row for rows in chunks for row in rows], cfg, params


def _summarize(rows, split):
    values = [row["serle_db"] for row in rows if row["serle_db"] != ""]
    if not values:
        raise MetricUndefinedError("no scene produced a defined echo-suppression score")
    mean, lo, hi = bootstrap_mean_ci(np.array(values, dtype=float))
    return {
        "algorithm": rows[0]["algorithm"],
        "split": split,
        "scenes": len(values),
        "mean_serle_db": round(mean, 4),
        "ci_lo_db": round(lo, 4),
        "ci_hi_db": round(hi, 4),
    }


def _write_csv(path, columns, rows):
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def cmd_eval(args):
    require(args.jobs >= 1, "jobs", f"must be at least 1, got {args.jobs}")
    hyper = _parse_hyper(args.hyper)
    directory, entries, rate = _manifest_entries(args.manifest, args.split)

    if args.sweep:
        checkpoints = sorted(Path(args.target).glob("*.ckpt"))
        if not checkpoints:
            raise FileNotFoundError(f"no *.ckpt files in {args.target}")
        sweep_rows = []
        for ckpt in checkpoints:
            rows, cfg, params = _run_eval(directory, entries, rate, str(ckpt), hyper, args)
            summary = _summarize(rows, args.split)
            sweep_rows.append({
                "checkpoint": ckpt.stem,
                "structure": params.structure.label,
                "hidden_size": params.hidden_size,
                "scenes": summary["scenes"],
                "mean_serle_db": summary["mean_serle_db"],
                "ci_lo_db": summary["ci_lo_db"],
                "ci_hi_db": summary["ci_hi_db"],
                "flops_per_frame": FlopModel(params.structure, cfg.dft_size,
                                             params.hidden_size).total,
            })
            print(f"{ckpt.stem}: {summary['mean_serle_db']:.2f} dB "
                  f"[{summary['ci_lo_db']:.2f}, {summary['ci_hi_db']:.2f}]")
        _write_csv(args.out_csv, SWEEP_COLUMNS, sweep_rows)
        print(args.out_csv)
        return 0

    if args.target not in CLASSIC_ALGORITHMS and not Path(args.target).exists():
        raise FileNotFoundError(f"no such checkpoint or baseline: {args.target}")
    rows, _, _ = _run_eval(directory, entries, rate, args.target, hyper, args)
    _write_csv(args.out_csv, EVAL_COLUMNS, rows)
    summary = _summarize(rows, args.split)
    summary_path = Path(args.out_csv).with_suffix(".summary.csv")
    _write_csv(summary_path, SUMMARY_COLUMNS, [summary])
    print(f"{summary['algorithm']} on {summary['scenes']} {args.split} scene(s): "
          f"mean SERLE {summary['mean_serle_db']:.2f} dB "
          f"[{summary['ci_lo_db']:.2f}, {summary['ci_hi_db']:.2f}] 95% CI")
    print(args.out_csv)
    return 0


# ---------------------------------------------------------------------------
# cancel


def cmd_cancel(args):
    hyper = _parse_hyper(args.hyper)
    rate_u, u = read_wav(args.farend)
    rate_d, d = read_wav(args.mic)
    require(rate_u == rate_d, "sample_rate", f"far end is {rate_u} Hz, mic is {rate_d} Hz")
    require(u.size == d.size, "length", f"far end has {u.size} samples, mic has {d.size}")
    _, session, _ = _session_for(args.target, args.dft_size, rate_u, hyper)
    result = session(u, d, telemetry_path=args.telemetry)

    out = np.array(d)  # unprocessed tail (partial hop) passes through
    out[: result.error.size] = result.error
    write_wav(args.out, out, rate_u)
    print(f"{args.out}: {result.frames} frames, mean ERLE {result.mean_erle_db:.2f} dB")
    return 0


# ---------------------------------------------------------------------------
# print-config / plot-script


def cmd_print_config(args):
    raw = _load_json(args.config, "config") if args.config else {}
    config = validate_train_config(raw)
    print(json.dumps(config, indent=2, sort_keys=True))
    return 0


_GNUPLOT_PREAMBLE = """\
set datafile separator comma
set key autotitle columnhead
set grid
set term pngcairo size 900,540
"""


def _gnuplot_quote(path):
    """``path`` as a gnuplot single-quoted string, where ' is written ''."""
    return "'" + str(path).replace("'", "''") + "'"


def cmd_plot_script(args):
    try:
        with open(args.csv, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
    except UnicodeDecodeError as exc:
        raise ConfigError("csv", f"{args.csv}: not UTF-8 text ({exc})") from None
    require(header, "csv", f"{args.csv}: empty file")

    png, data = _gnuplot_quote(Path(args.csv).with_suffix(".png")), _gnuplot_quote(args.csv)
    if "epoch" in header:
        body = (
            f"set output {png}\n"
            "set xlabel 'epoch'\nset ylabel 'validation SERLE (dB)'\n"
            "set y2label 'training loss'\nset y2tics\n"
            f"plot {data} using 'epoch':'val_serle_db' with linespoints, \\\n"
            f"     {data} using 'epoch':'train_loss' axes x1y2 with lines\n"
        )
    elif "flops_per_frame" in header:
        body = (
            f"set output {png}\n"
            "set logscale x\nset xlabel 'multiply-accumulates per frame'\n"
            "set ylabel 'mean SERLE (dB)'\n"
            f"plot {data} using 'flops_per_frame':'mean_serle_db':'structure' "
            "with labels point pt 7 offset char 1,0.5 notitle\n"
        )
    elif "mean_serle_db" in header:
        body = (
            f"set output {png}\n"
            "set style data histogram\nset style fill solid 0.6\n"
            "set ylabel 'mean SERLE (dB)'\n"
            f"plot {data} using 'mean_serle_db':xtic(1) notitle, \\\n"
            f"     '' using 0:'mean_serle_db':'ci_lo_db':'ci_hi_db' "
            "with yerrorbars notitle\n"
        )
    else:
        raise ConfigError("csv", f"{args.csv}: unrecognized schema {header}")

    Path(args.out).write_text(_GNUPLOT_PREAMBLE + body)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aflearn",
        description="Frequency-domain echo cancellation with learned adaptive-filter "
                    "update rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-data", help="draw scenes and write a dataset manifest")
    p.add_argument("spec", help="'desk', 'default', or a scene-spec JSON file")
    p.add_argument("out_dir", help="directory for scene files and manifest.json")
    p.add_argument("--count", type=int, default=10, help="number of scenes")
    p.add_argument("--seed", type=int, default=0, help="base scene seed")
    p.add_argument("--split", default="8,1,1", help="train,val,test ratio")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="meta-train an update rule from a JSON config")
    p.add_argument("config", help="training config (see print-config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint or baseline over a dataset")
    p.add_argument("target", help="checkpoint path, nlms/rls/kf, or a directory "
                                  "of checkpoints with --sweep")
    p.add_argument("manifest", help="dataset directory or manifest.json path")
    p.add_argument("out_csv", help="per-scene CSV (plus .summary.csv), or sweep CSV")
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per lockstep chunk; the scenes are "
                        f"split into chunks of up to {LOCKSTEP_CHUNK} so that every worker "
                        "gets one")
    p.add_argument("--sweep", action="store_true",
                   help="evaluate every *.ckpt in the target directory")
    p.add_argument("--hyper", help="baseline hyperparameters as JSON")
    p.add_argument("--dft-size", type=int, default=TRAIN_DEFAULTS["dft_size"], dest="dft_size",
                   help="DFT size for baselines (checkpoints carry their own)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cancel", help="cancel echo in one WAV pair, write the residual")
    p.add_argument("farend", help="loudspeaker/far-end WAV")
    p.add_argument("mic", help="microphone WAV (same rate and length)")
    p.add_argument("target", help="checkpoint path or nlms/rls/kf")
    p.add_argument("out", help="output WAV for the residual signal")
    p.add_argument("--hyper", help="baseline hyperparameters as JSON")
    p.add_argument("--dft-size", type=int, default=TRAIN_DEFAULTS["dft_size"], dest="dft_size")
    p.add_argument("--telemetry", help="write per-frame JSON-lines telemetry here")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("print-config", help="validate and canonicalize a train config")
    p.add_argument("config", nargs="?", help="config file; omit for the defaults")
    p.set_defaults(func=cmd_print_config)

    p = sub.add_parser("plot-script", help="emit a gnuplot script for an emitted CSV")
    p.add_argument("csv", help="curve, summary, or sweep CSV")
    p.add_argument("out", help="output .gp path")
    p.set_defaults(func=cmd_plot_script)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"aflearn: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MetricUndefinedError) as exc:
        print(f"aflearn: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, CheckpointError) as exc:
        print(f"aflearn: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
