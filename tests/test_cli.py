"""Command-line workflows: dataset, config validation, train/eval/cancel."""

import hashlib
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import aflearn.cli
from aflearn.checkpoint import load_checkpoint, save_checkpoint
from aflearn.cli import main, validate_train_config
from aflearn.errors import ConfigError
from aflearn.optimizer import init_meta_params
from aflearn.scenes import desk_spec, read_wav, write_wav
from aflearn.structures import DependencyStructure

SPEC = {"duration": 0.6, "rir_taps": 64, "rt60_range": [0.02, 0.04]}
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def dataset(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SPEC))
    out = tmp_path / "data"
    assert main(["gen-data", str(spec_file), str(out), "--count", "5",
                 "--seed", "3", "--split", "3,1,1"]) == 0
    return out


def _train_config(tmp_path, dataset, **overrides):
    config = {
        "structure": "block:4",
        "hidden_size": 4,
        "dft_size": 64,
        "scenes": {"manifest": str(dataset / "manifest.json")},
        "epochs": 2,
        "batch_size": 2,
        "unroll": 8,
        "schedule": {"lr": 1e-3},
        "checkpoint": str(tmp_path / "model.ckpt"),
        "curve_csv": str(tmp_path / "curve.csv"),
    }
    config.update(overrides)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    return path, config


def test_gen_data_split_counts_and_determinism(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SPEC))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-data", str(spec_file), str(out), "--count", "10",
                     "--seed", "1"]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["split_counts"] == {"train": 8, "val": 1, "test": 1}
    assert len(manifest["scenes"]) == 10
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "scene_00000.mic.wav").read_bytes() == (b / "scene_00000.mic.wav").read_bytes()


def test_gen_data_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SPEC))
    out = tmp_path / "out"
    assert main(["gen-data", str(spec_file), str(out), "--seed", "-1"]) == 2
    assert "config error: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_at_two_samples_per_second_exits_0(tmp_path):
    # a 0.08-0.4 s speech segment rounds to no sample below 13 Hz
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"sample_rate": 2, "duration": 100.0, "rir_taps": 16}))
    out = tmp_path / "out"
    assert main(["gen-data", str(spec_file), str(out), "--count", "3"]) == 0
    assert len(json.loads((out / "manifest.json").read_text())["scenes"]) == 3


# scene specs that crashed gen-data or quietly wrote broken scenes
BAD_SPECS = {
    "nan-duration": ("duration", float("nan")),
    "infinite-duration": ("duration", float("inf")),
    "duration-below-one-sample": ("duration", 1e-6),
    "fractional-sample-rate": ("sample_rate", 16000.5),
    "fractional-rir-taps": ("rir_taps", 2.5),
    "nan-in-rt60-range": ("rt60_range", [float("nan"), 0.1]),
    "one-element-ser-range": ("ser_range_db", [1]),
    "nan-far-rms": ("far_rms", float("nan")),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_gen_data_bad_spec_exits_2_and_writes_nothing(tmp_path, case, capsys):
    field, value = BAD_SPECS[case]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({**SPEC, field: value}))  # writes NaN and Infinity bare
    out = tmp_path / "out"
    assert main(["gen-data", str(spec_file), str(out), "--count", "1"]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ['"desk"', "5", "[1, 2]"])
def test_gen_data_spec_that_is_not_an_object_exits_2(tmp_path, text, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)  # valid JSON, but not an object of spec fields
    out = tmp_path / "out"
    assert main(["gen-data", str(spec_file), str(out), "--count", "1"]) == 2
    assert "config error: spec:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_train_non_finite_scene_duration_exits_2(tmp_path, duration, capsys):
    config_path, config = _train_config(
        tmp_path, tmp_path, scenes={"preset": "desk", "overrides": {"duration": duration}})
    assert main(["train", str(config_path)]) == 2
    assert "config error: scenes.overrides: duration:" in capsys.readouterr().err
    assert not Path(config["checkpoint"]).exists()


def test_train_non_finite_learning_rate_exits_2(tmp_path, dataset, capsys):
    config_path, config = _train_config(tmp_path, dataset, schedule={"lr": float("inf")})
    assert main(["train", str(config_path)]) == 2
    assert "config error: schedule.lr:" in capsys.readouterr().err
    assert not Path(config["checkpoint"]).exists()


def test_cancel_non_finite_hyper_exits_2(tmp_path, dataset, capsys):
    far, mic = (str(dataset / f"scene_00000.{name}.wav") for name in ("farend", "mic"))
    for hyper in ('{"step_size": NaN}', '{"eps": Infinity}', '{"eps": -Infinity}'):
        assert main(["cancel", far, mic, "nlms", str(tmp_path / "o.wav"), "--dft-size", "64",
                     "--hyper", hyper]) == 2, hyper
        assert "config error: hyper:" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_print_config_canonicalizes(capsys):
    assert main(["print-config"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert "hop" not in config  # derived from dft_size, never stored
    assert config["schedule"]["plateau_patience"] == 5
    # older configs spell out the hop; dft_size/2 is accepted and dropped
    assert validate_train_config({"hop": 256}) == config


def test_config_rejections_name_the_field(capsys):
    assert main(["print-config", "nope.json"]) == 4  # missing file is I/O
    for raw, field in [
        ({"bogus": 1}, "bogus"),
        ({"structure": "banded:3"}, "width"),
        ({"structure": "banded:6", "dft_size": 64}, "dft_size"),
        ({"hidden_size": "big"}, "hidden_size"),
        ({"schedule": {"momentum": 0.9}}, "schedule.momentum"),
        ({"scenes": {"preset": "studio"}}, "scenes.preset"),
        ({"scenes": {"preset": ["desk"]}}, "scenes.preset"),
        ({"hop": 128}, "hop"),
    ]:
        with pytest.raises(ConfigError) as info:
            validate_train_config(raw)
        assert info.value.field == field


NOT_UTF8 = b"\xff\xfe{\x00}\x00"  # UTF-16 with a byte-order mark


@pytest.mark.parametrize("command", ["print-config", "train", "gen-data", "eval",
                                     "plot-script"])
def test_non_utf8_inputs_are_config_errors(tmp_path, command, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    argv, field = {
        "print-config": (["print-config", str(bad)], "config"),
        "train": (["train", str(bad)], "config"),
        "gen-data": (["gen-data", str(bad), str(out)], "spec"),
        "eval": (["eval", "nlms", str(bad), str(out), "--split", "all"], "manifest"),
        "plot-script": (["plot-script", str(bad), str(out)], "csv"),
    }[command]
    assert main(argv) == 2
    assert f"config error: {field}: {bad}:" in capsys.readouterr().err
    assert not out.exists()


def test_readme_training_config_block_is_the_defaults():
    section = README.read_text().split("### Training config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(re.sub(r"\s*//.*", "", block)) == validate_train_config({})


def test_train_scenes_are_drawn_at_the_config_sample_rate(tmp_path, monkeypatch):
    specs = []

    def captured(structure, hidden_size, cfg, scene_spec, *args, **kwargs):
        specs.append((cfg.sample_rate, scene_spec))
        return init_meta_params(structure, hidden_size), []

    monkeypatch.setattr(aflearn.cli, "train_update_rule", captured)
    ckpt = str(tmp_path / "model.ckpt")
    for overrides in ({}, {"sample_rate": 8000}, {"sample_rate": 8000, "duration": 2.0}):
        config_path, _ = _train_config(
            tmp_path, tmp_path, sample_rate=8000, checkpoint=ckpt,
            scenes={"preset": "desk", "overrides": overrides})
        assert main(["train", str(config_path)]) == 0
        rate, spec = specs.pop()
        assert rate == spec.sample_rate == 8000
        assert spec == desk_spec(**{"sample_rate": 8000, **overrides})


def test_train_overrides_contradicting_the_sample_rate_exit_2(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(aflearn.cli, "train_update_rule", lambda *a, **k: calls.append(a))
    config_path, config = _train_config(
        tmp_path, tmp_path, scenes={"preset": "desk", "overrides": {"sample_rate": 8000}})
    assert main(["train", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: scenes.overrides.sample_rate:" in err and "16000" in err
    assert not calls and not Path(config["checkpoint"]).exists()


def test_train_writes_checkpoint_and_curve(tmp_path, dataset):
    config_path, config = _train_config(tmp_path, dataset)
    assert main(["train", str(config_path)]) == 0
    params, header = load_checkpoint(config["checkpoint"])
    assert params.structure.label == "block:4"
    assert header["dft_size"] == 64
    assert header["metadata"]["schedule_state"]["epoch"] == 1
    curve = Path(config["curve_csv"]).read_text().splitlines()
    assert curve[0] == "epoch,train_loss,val_serle_db,lr,seconds"
    assert len(curve) == 3


def test_train_is_deterministic(tmp_path, dataset):
    paths = []
    for run in ("x", "y"):
        ckpt = tmp_path / f"{run}.ckpt"
        config_path, _ = _train_config(tmp_path, dataset, checkpoint=str(ckpt),
                                       curve_csv=None)
        assert main(["train", str(config_path)]) == 0
        paths.append(ckpt)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_checkpoint_bytes_do_not_depend_on_the_manifest_path(tmp_path, dataset,
                                                                    monkeypatch):
    # the metadata names the dataset by the manifest's content hash
    monkeypatch.chdir(tmp_path)
    manifest = dataset / "manifest.json"
    paths = []
    for run, named in (("relative", manifest.relative_to(tmp_path)), ("absolute", manifest)):
        ckpt = tmp_path / f"{run}.ckpt"
        config_path, _ = _train_config(tmp_path, dataset, checkpoint=str(ckpt), curve_csv=None,
                                       epochs=1, scenes={"manifest": str(named)})
        assert main(["train", str(config_path)]) == 0
        paths.append(ckpt)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _, header = load_checkpoint(paths[0])
    digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
    assert header["metadata"]["config"]["scenes"]["manifest"] == f"sha256:{digest}"


def test_train_resume_restores_schedule_state(tmp_path, dataset):
    config_path, config = _train_config(tmp_path, dataset)
    assert main(["train", str(config_path)]) == 0
    resumed = str(tmp_path / "resumed.ckpt")
    config_path, _ = _train_config(
        tmp_path, dataset, epochs=3, resume=config["checkpoint"], checkpoint=resumed
    )
    assert main(["train", str(config_path)]) == 0
    _, header = load_checkpoint(resumed)
    assert header["metadata"]["schedule_state"]["epoch"] == 2


GOOD_SCHEDULE_STATE = {"epoch": 0, "lr": 1e-3, "best_val": 1.5, "since_improve": 0}
# schedule states that crashed a resume, or resumed into a run it should refuse
BAD_SCHEDULE_STATES = {
    "empty": ({}, "schedule_state.epoch"),
    "list": ([1, 2], "schedule_state"),
    "text-epoch": ({**GOOD_SCHEDULE_STATE, "epoch": "x"}, "schedule_state.epoch"),
    "bool-epoch": ({**GOOD_SCHEDULE_STATE, "epoch": True}, "schedule_state.epoch"),
    "negative-lr": ({**GOOD_SCHEDULE_STATE, "lr": -1.0}, "schedule_state.lr"),
    "nan-best-val": ({**GOOD_SCHEDULE_STATE, "best_val": float("nan")},
                     "schedule_state.best_val"),
    "negative-since-improve": ({**GOOD_SCHEDULE_STATE, "since_improve": -1},
                               "schedule_state.since_improve"),
}


def _resume_from(tmp_path, dataset, state, **overrides):
    """A train config resuming from a fresh checkpoint whose schedule state is ``state``."""
    source = tmp_path / "source.ckpt"
    save_checkpoint(source, init_meta_params(DependencyStructure.block(4), 4), dft_size=64,
                    metadata={"sample_rate": 16000, "schedule_state": state})
    return _train_config(tmp_path, dataset, resume=str(source), **overrides)


@pytest.mark.parametrize("case", BAD_SCHEDULE_STATES)
def test_train_resume_rejects_a_malformed_schedule_state(tmp_path, dataset, capsys, case):
    state, key = BAD_SCHEDULE_STATES[case]
    config_path, config = _resume_from(tmp_path, dataset, state)
    assert main(["train", str(config_path)]) == 4
    assert re.search(rf"i/o error: .*source\.ckpt: {re.escape(key)}:", capsys.readouterr().err)
    assert not Path(config["checkpoint"]).exists()
    assert not Path(config["curve_csv"]).exists()


def test_train_resume_with_no_epoch_left_exits_2(tmp_path, dataset, capsys):
    # the state's epoch 1 is the last of a 2-epoch config
    config_path, config = _resume_from(tmp_path, dataset, {**GOOD_SCHEDULE_STATE, "epoch": 1})
    assert main(["train", str(config_path)]) == 2
    out = capsys.readouterr()
    assert "config error: epochs:" in out.err and "nothing is left to train" in out.err
    assert out.out == ""  # no checkpoint path is printed
    assert not Path(config["checkpoint"]).exists()


def test_train_resume_rejects_another_dft_size(tmp_path, dataset, capsys):
    config_path, config = _train_config(tmp_path, dataset, epochs=1)
    assert main(["train", str(config_path)]) == 0
    resumed = tmp_path / "resumed.ckpt"
    config_path, _ = _train_config(tmp_path, dataset, dft_size=128, epochs=2,
                                   resume=config["checkpoint"], checkpoint=str(resumed))
    assert main(["train", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "resume" in err and "64" in err and "128" in err
    assert not resumed.exists()


def test_eval_baseline_csv_schema_and_jobs_determinism(tmp_path, dataset):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["eval", "nlms", str(dataset), str(out1), "--split", "all",
                 "--dft-size", "64"]) == 0
    assert main(["eval", "nlms", str(dataset), str(out2), "--split", "all",
                 "--dft-size", "64", "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "scene,seed,split,algorithm,serle_db,erle_db,frames"
    assert len(lines) == 6
    summary = (tmp_path / "r1.summary.csv").read_text().splitlines()
    assert summary[0] == "algorithm,split,scenes,mean_serle_db,ci_lo_db,ci_hi_db"
    assert summary[1].startswith("nlms,all,5,")


def test_eval_jobs_starts_no_more_workers_than_chunks(tmp_path, dataset, monkeypatch):
    requested = []

    class SerialPool:  # records the pool size asked for and maps in this process
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(aflearn.cli, "ProcessPoolExecutor", SerialPool)
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["eval", "nlms", str(dataset), str(serial), "--split", "train",
                 "--dft-size", "64"]) == 0
    assert main(["eval", "nlms", str(dataset), str(pooled), "--split", "train",
                 "--dft-size", "64", "--jobs", "8"]) == 0
    assert requested == [3]  # one worker per scene of the 3-scene split
    assert pooled.read_bytes() == serial.read_bytes()
    # one chunk runs in this process, with no pool
    assert main(["eval", "nlms", str(dataset), str(pooled), "--split", "test",
                 "--dft-size", "64", "--jobs", "8"]) == 0
    assert requested == [3]


def test_eval_learned_checkpoint_and_sweep(tmp_path, dataset):
    config_path, config = _train_config(tmp_path, dataset, epochs=1)
    assert main(["train", str(config_path)]) == 0
    out = tmp_path / "learned.csv"
    assert main(["eval", config["checkpoint"], str(dataset), str(out),
                 "--split", "test"]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[3] == "model"
    all1, all2 = tmp_path / "all1.csv", tmp_path / "all2.csv"
    assert main(["eval", config["checkpoint"], str(dataset), str(all1), "--split", "all"]) == 0
    assert main(["eval", config["checkpoint"], str(dataset), str(all2), "--split", "all",
                 "--jobs", "2"]) == 0
    assert all2.read_bytes() == all1.read_bytes()
    assert len(all1.read_text().splitlines()) == 6
    # checkpoints written before the hop was derived carry metadata.hop; it is ignored
    params, header = load_checkpoint(config["checkpoint"])
    (tmp_path / "old").mkdir()
    old = tmp_path / "old" / "model.ckpt"
    save_checkpoint(old, params, dft_size=header["dft_size"],
                    metadata={**header["metadata"], "hop": 32})
    assert main(["eval", str(old), str(dataset), str(all2), "--split", "all"]) == 0
    assert all2.read_bytes() == all1.read_bytes()

    sweep_dir = tmp_path / "grid"
    sweep_dir.mkdir()
    (sweep_dir / "model.ckpt").write_bytes(Path(config["checkpoint"]).read_bytes())
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["eval", str(sweep_dir), str(dataset), str(sweep_csv),
                 "--sweep", "--split", "test"]) == 0
    lines = sweep_csv.read_text().splitlines()
    assert lines[0].startswith("checkpoint,structure,hidden_size,")
    assert lines[1].startswith("model,block:4,4,")


def test_eval_missing_inputs_are_io_errors(tmp_path, dataset):
    assert main(["eval", "nlms", str(tmp_path / "nowhere"), str(tmp_path / "o.csv")]) == 4
    assert main(["eval", str(tmp_path / "no.ckpt"), str(dataset),
                 str(tmp_path / "o.csv")]) == 4


def _drop_key(key):
    def corrupt(path):
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
    return corrupt


def _spec_value(field, value):
    def corrupt(path):
        meta = json.loads(path.read_text())
        meta["spec"][field] = value
        path.write_text(json.dumps(meta))
    return corrupt


def _meta_value(key, value):
    def corrupt(path):
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta))
    return corrupt


def _stereo(path):
    rate, data = wavfile.read(path)
    wavfile.write(path, rate, np.stack([data, data], axis=1))


def _resampled(path):
    _, data = wavfile.read(path)
    wavfile.write(path, 8000, data)


def _shortened(path):
    rate, data = read_wav(path)
    write_wav(path, data[:-300], rate)


def _nudged(path):
    rate, data = read_wav(path)
    data[1234] += 1e-4
    write_wav(path, data, rate)


def _nan_sample(path):
    rate, data = read_wav(path)
    data[1234] = np.nan
    write_wav(path, data, rate)


CORRUPT_SCENE_FILES = {
    "sidecar-without-nonlinearity": ("json", _drop_key("nonlinearity")),
    "unknown-spec-field": ("json", _spec_value("bogus", 1)),
    "non-finite-duration-in-sidecar": ("json", _spec_value("duration", float("nan"))),
    "fractional-sample-rate-in-sidecar": ("json", _spec_value("sample_rate", 16000.5)),
    "invalid-sidecar-json": ("json", lambda path: path.write_text("{not json")),
    # sidecar metadata that save_scene never writes
    "string-seed-in-sidecar": ("json", _meta_value("seed", "x")),
    "null-ser-in-sidecar": ("json", _meta_value("ser_db", None)),
    "unknown-nonlinearity-in-sidecar":
        ("json", _meta_value("nonlinearity", {"kind": "foo", "amount": float("nan")})),
    "schema-99-in-sidecar": ("json", _meta_value("schema", 99)),
    "sidecar-without-schema": ("json", _drop_key("schema")),
    "rir-not-npz": ("rir.npz", lambda path: path.write_bytes(b"not an npz archive")),
    # a WAV that does not match its sidecar is a corrupt scene file too
    "stereo-mic-wav": ("mic.wav", _stereo),
    "mic-wav-at-another-rate": ("mic.wav", _resampled),
    "truncated-echo-wav": ("echo.wav", _shortened),
    "truncated-farend-wav": ("farend.wav", _shortened),
    # the mic recording must be the sum of its components, to float32 rounding
    "mic-wav-disagrees-with-components": ("mic.wav", _nudged),
    # a NaN in a component passes the sum check, and one in the far end is never summed
    "nan-in-farend": ("farend.wav", _nan_sample),
    "nan-in-mic": ("mic.wav", _nan_sample),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CORRUPT_SCENE_FILES))
def test_eval_corrupt_scene_files_are_io_errors(tmp_path, dataset, case, jobs, capsys):
    suffix, corrupt = CORRUPT_SCENE_FILES[case]
    path = dataset / f"scene_00001.{suffix}"
    corrupt(path)
    assert main(["eval", "nlms", str(dataset), str(tmp_path / "o.csv"), "--split", "all",
                 "--dft-size", "64", "--jobs", jobs]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and str(path) in err


@pytest.mark.parametrize("jobs, chunk", [("1", 5), ("2", 3)])
def test_eval_numeric_failure_names_its_lockstep_chunk(tmp_path, dataset, jobs, chunk, capsys):
    # eps 0 divides by the zero power of a silent bin: every scene fails at frame 0, and
    # the first chunk's error is the one reported (five scenes: one chunk, or 3 + 2)
    with np.errstate(invalid="ignore", divide="ignore"):  # forked workers inherit it
        assert main(["eval", "nlms", str(dataset), str(tmp_path / "o.csv"), "--split", "all",
                     "--dft-size", "64", "--jobs", jobs, "--hyper", '{"eps": 0.0}']) == 3
    err = capsys.readouterr().err
    stems = ", ".join(f"scene_{i:05d}" for i in range(chunk))
    assert "non-finite filter update (frame 0)" in err
    assert err.rstrip().endswith(f"in a lockstep chunk of scenes {stems}")


def test_cancel_on_a_stereo_wav_is_a_config_error(tmp_path, dataset):
    # the same WAV that makes a scene corrupt is a bad argument to cancel
    mic = dataset / "scene_00001.mic.wav"
    _stereo(mic)
    assert main(["cancel", str(dataset / "scene_00001.farend.wav"), str(mic), "nlms",
                 str(tmp_path / "x.wav")]) == 2


def test_train_unroll_longer_than_a_scene_exits_2(tmp_path, dataset, capsys):
    # 0.6 s scenes at dft_size 64 hold 300 whole hops
    config_path, config = _train_config(tmp_path, dataset, unroll=301)
    assert main(["train", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "unroll" in err and "300" in err
    assert not Path(config["checkpoint"]).exists()
    assert not Path(config["curve_csv"]).exists()


def test_eval_mixed_length_manifest_keeps_manifest_order(tmp_path, dataset):
    # a hand-merged manifest: three 0.4 s scenes among the 0.6 s ones
    spec_file = tmp_path / "short.json"
    spec_file.write_text(json.dumps({**SPEC, "duration": 0.4}))
    other = tmp_path / "short"
    assert main(["gen-data", str(spec_file), str(other), "--count", "3",
                 "--seed", "20", "--split", "0,0,1"]) == 0
    for path in other.glob("scene_*"):
        shutil.copy(path, dataset / f"short_{path.name}")
    manifest = json.loads((dataset / "manifest.json").read_text())
    extra = json.loads((other / "manifest.json").read_text())["scenes"]
    extra = [{**entry, "stem": f"short_{entry['stem']}"} for entry in extra]
    merged = manifest["scenes"][:1] + extra + manifest["scenes"][1:]
    manifest["scenes"] = merged
    (dataset / "manifest.json").write_text(json.dumps(manifest))

    outs = [tmp_path / "j1.csv", tmp_path / "j2.csv"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["eval", "kf", str(dataset), str(out), "--split", "all",
                     "--dft-size", "64", "--jobs", jobs]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rows = [line.split(",") for line in outs[0].read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [entry["stem"] for entry in merged]
    assert {row[6] for row in rows} == {str(int(0.6 * 16000) // 32), str(int(0.4 * 16000) // 32)}


# each manifest with a fragment of the error it must fail with
@pytest.mark.parametrize("manifest", [
    ({}, "expected an object"),
    ({"schema": 1, "scenes": [{"stem": "x"}]}, "expected an object"),
    ({"schema": 1, "spec": {}, "scenes": [{"stem": "x"}]}, "needs 'stem', 'seed' and 'split'"),
    ({"schema": 1, "spec": {}, "scenes": [{"stem": "x", "seed": 1, "split": "dev"}]},
     "unknown split"),
    ({"schema": 1, "spec": {}, "scenes": {"stem": "x"}}, "must be a list"),
    ({"schema": 1, "spec": {"bogus": 1}, "scenes": []}, "bad spec"),
    ([], "expected an object"),
    ({"schema": 1, "spec": {}, "scenes": [{"stem": "x", "seed": -1, "split": "train"}]},
     "seed must be"),
    ({"schema": 1, "spec": {"duration": float("nan")}, "scenes": []}, "bad spec"),
    ({"schema": 1, "spec": {"rir_taps": 2.5}, "scenes": []}, "bad spec"),
    # a manifest of another format, or of none, even if it would parse
    ({"schema": 99, "spec": {}, "scenes": []}, "unsupported schema 99"),
    ({"schema": "1", "spec": {}, "scenes": []}, "unsupported schema '1'"),
    ({"spec": {}, "scenes": []}, "unsupported schema None"),
])
def test_malformed_manifests_are_config_errors(tmp_path, manifest, capsys):
    document, reason = manifest
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(document))
    assert main(["eval", "nlms", str(data), str(tmp_path / "o.csv"), "--split", "all"]) == 2
    config_path, _ = _train_config(tmp_path, data)
    assert main(["train", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: manifest:") == 2 and err.count(reason) == 2, err


def test_eval_jobs_below_one_exits_2(tmp_path, dataset, capsys):
    out_csv = tmp_path / "o.csv"
    for jobs in ("0", "-3"):
        assert main(["eval", "nlms", str(dataset), str(out_csv), "--split", "all",
                     "--dft-size", "64", "--jobs", jobs]) == 2
        assert "config error: jobs:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bad_dft_size_and_hyper_are_config_errors(tmp_path, dataset, capsys):
    mic = str(dataset / "scene_00004.mic.wav")
    for command in (["eval", "nlms", str(dataset), str(tmp_path / "o.csv")],
                    ["cancel", mic, mic, "nlms", str(tmp_path / "o.wav")]):
        assert main(command + ["--dft-size", "100"]) == 2
        assert "config error: dft_size:" in capsys.readouterr().err
        for hyper in ("[1]", '{"bogus": 1}', '{"eps": "small"}'):
            assert main(command + ["--dft-size", "64", "--hyper", hyper]) == 2, hyper
            assert "config error: hyper:" in capsys.readouterr().err
    # raised in a worker process, the error still reaches the exit code
    assert main(["eval", "rls", str(dataset), str(tmp_path / "o.csv"), "--split", "all",
                 "--dft-size", "64", "--jobs", "2", "--hyper", '{"step_size": 1}']) == 2


@pytest.mark.parametrize("command", ["cancel", "eval", "sweep"])
def test_hyper_for_a_checkpoint_exits_2(tmp_path, dataset, command, capsys):
    # a learned rule has no baseline hyperparameters: any --hyper but {} is refused
    ckpt = tmp_path / "grid" / "rule.ckpt"
    ckpt.parent.mkdir()
    save_checkpoint(ckpt, init_meta_params(DependencyStructure.block(4), 4), dft_size=64,
                    metadata={"sample_rate": 16000})
    far, mic = (str(dataset / f"scene_00004.{name}.wav") for name in ("farend", "mic"))
    out = tmp_path / ("o.wav" if command == "cancel" else "o.csv")
    argv = {"cancel": ["cancel", far, mic, str(ckpt), str(out)],
            "eval": ["eval", str(ckpt), str(dataset), str(out)],
            "sweep": ["eval", str(ckpt.parent), str(dataset), str(out), "--sweep"]}[command]
    assert main(argv + ["--hyper", '{"step_size": 0.1}']) == 2
    assert "config error: hyper: " in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--hyper", "{}"]) == 0


def test_sample_rate_comes_from_the_inputs(tmp_path, dataset):
    _, u = read_wav(dataset / "scene_00004.farend.wav")
    _, d = read_wav(dataset / "scene_00004.mic.wav")
    farend, mic = tmp_path / "u8k.wav", tmp_path / "d8k.wav"
    write_wav(farend, u, 8000)
    write_wav(mic, d, 8000)
    out = tmp_path / "out.wav"
    assert main(["cancel", str(farend), str(mic), "nlms", str(out), "--dft-size", "64"]) == 0
    assert read_wav(out)[0] == 8000
    params = init_meta_params(DependencyStructure.block(4), 4)
    ckpt = tmp_path / "rule.ckpt"
    save_checkpoint(ckpt, params, dft_size=64, metadata={"sample_rate": 16000})
    assert main(["cancel", str(farend), str(mic), str(ckpt), str(out)]) == 2
    # a checkpoint that does not name its rate runs at the inputs' rate
    save_checkpoint(ckpt, params, dft_size=64)
    assert main(["cancel", str(farend), str(mic), str(ckpt), str(out)]) == 0


def test_signals_shorter_than_one_hop_are_config_errors(tmp_path, capsys):
    short = tmp_path / "short.wav"
    write_wav(short, np.random.default_rng(0).standard_normal(100) * 0.1, 16000)
    assert main(["cancel", str(short), str(short), "nlms", str(tmp_path / "o.wav")]) == 2
    assert "config error: length:" in capsys.readouterr().err
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({**SPEC, "duration": 0.01}))
    data = tmp_path / "data"
    assert main(["gen-data", str(spec_file), str(data), "--count", "3", "--seed", "0",
                 "--split", "0,0,1"]) == 0
    for jobs in ("1", "2"):
        assert main(["eval", "nlms", str(data), str(tmp_path / "o.csv"),
                     "--jobs", jobs]) == 2, jobs
        assert "config error: length:" in capsys.readouterr().err


def test_cancel_silent_farend_passes_mic_through(tmp_path, dataset):
    mic = dataset / "scene_00004.mic.wav"
    silent = tmp_path / "silent.wav"
    _, d = read_wav(mic)
    write_wav(silent, np.zeros(d.size), 16000)
    out = tmp_path / "out.wav"
    assert main(["cancel", str(silent), str(mic), "nlms", str(out),
                 "--dft-size", "64"]) == 0
    _, processed = read_wav(out)
    assert processed.size == d.size
    np.testing.assert_allclose(processed, d.astype(np.float32), atol=1e-6)


def test_cancel_is_bit_identical_and_writes_telemetry(tmp_path, dataset):
    farend = dataset / "scene_00004.farend.wav"
    mic = dataset / "scene_00004.mic.wav"
    outs = []
    for name in ("a.wav", "b.wav"):
        out = tmp_path / name
        assert main(["cancel", str(farend), str(mic), "kf", str(out),
                     "--dft-size", "64",
                     "--telemetry", str(tmp_path / "tele.jsonl")]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = [json.loads(l) for l in (tmp_path / "tele.jsonl").read_text().splitlines()]
    _, d = read_wav(mic)
    assert len(rows) == d.size // 32
    assert set(rows[0]) == {"frame", "erle_db", "residual_power"}


def test_cancel_rejects_rate_and_length_mismatch(tmp_path, dataset):
    mic = dataset / "scene_00004.mic.wav"
    _, d = read_wav(mic)
    wrong_rate = tmp_path / "u8k.wav"
    write_wav(wrong_rate, np.zeros(d.size), 8000)
    assert main(["cancel", str(wrong_rate), str(mic), "nlms",
                 str(tmp_path / "x.wav")]) == 2
    short = tmp_path / "short.wav"
    write_wav(short, np.zeros(d.size - 5), 16000)
    assert main(["cancel", str(short), str(mic), "nlms",
                 str(tmp_path / "x.wav")]) == 2
    assert main(["cancel", str(tmp_path / "missing.wav"), str(mic), "nlms",
                 str(tmp_path / "x.wav")]) == 4
    not_wav = tmp_path / "bad.wav"
    not_wav.write_text("not a wav")
    assert main(["cancel", str(not_wav), str(not_wav), "nlms",
                 str(tmp_path / "x.wav")]) == 4
    cut_header = tmp_path / "cut.wav"
    cut_header.write_bytes(wrong_rate.read_bytes()[:30])
    assert main(["cancel", str(cut_header), str(mic), "nlms",
                 str(tmp_path / "x.wav")]) == 4
    # a checkpoint whose down_kernel shape (H, 5B) = (4, 20) reads [3, 3] (same byte length)
    bad_ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(bad_ckpt, init_meta_params(DependencyStructure.block(4), 4), dft_size=64)
    data = bad_ckpt.read_bytes()
    bad_ckpt.write_bytes(data.replace(b'"shape":[4,20]', b'"shape":[3, 3]', 1))
    assert main(["cancel", str(mic), str(mic), str(bad_ckpt), str(tmp_path / "x.wav")]) == 4
    save_checkpoint(bad_ckpt, init_meta_params(DependencyStructure.block(4), 4), dft_size=64,
                    metadata={"sample_rate": 0})
    assert main(["cancel", str(mic), str(mic), str(bad_ckpt), str(tmp_path / "x.wav")]) == 4


def test_eval_of_a_checkpoint_without_a_dft_size_exits_4(tmp_path, dataset, capsys):
    # every checkpoint records its DFT size: a null one is a corrupt header, and
    # --dft-size does not stand in for it
    ckpt = tmp_path / "rule.ckpt"
    save_checkpoint(ckpt, init_meta_params(DependencyStructure.block(4), 4), dft_size=64)
    data = ckpt.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 8)
    header = {**json.loads(data[16 : 16 + length]), "dft_size": None}
    encoded = json.dumps(header).encode()
    ckpt.write_bytes(data[:8] + struct.pack("<Q", len(encoded)) + encoded + data[16 + length :])
    assert main(["eval", str(ckpt), str(dataset), str(tmp_path / "o.csv"),
                 "--dft-size", "64"]) == 4
    assert f"i/o error: {ckpt}: bad dft_size None" in capsys.readouterr().err


def test_plot_script_covers_each_schema(tmp_path, dataset):
    config_path, config = _train_config(tmp_path, dataset, epochs=1)
    assert main(["train", str(config_path)]) == 0
    assert main(["eval", "rls", str(dataset), str(tmp_path / "r.csv"),
                 "--split", "test", "--dft-size", "64"]) == 0
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(
        "checkpoint,structure,hidden_size,scenes,mean_serle_db,ci_lo_db,ci_hi_db,"
        "flops_per_frame\nm,block:4,4,5,1.0,0.5,1.5,4864\n"
    )
    for csv_path in (config["curve_csv"], str(tmp_path / "r.summary.csv"), str(sweep)):
        gp = tmp_path / (Path(csv_path).stem + ".gp")
        assert main(["plot-script", csv_path, str(gp)]) == 0
        text = gp.read_text()
        assert "plot" in text and Path(csv_path).name in text
    # the per-scene table has no aggregate columns to plot
    assert main(["plot-script", str(tmp_path / "r.csv"), str(tmp_path / "x.gp")]) == 2


@pytest.mark.parametrize("header", [
    "epoch,train_loss,val_serle_db,lr,seconds",
    "algorithm,split,scenes,mean_serle_db,ci_lo_db,ci_hi_db",
    "checkpoint,structure,hidden_size,scenes,mean_serle_db,ci_lo_db,ci_hi_db,flops_per_frame",
], ids=["curve", "summary", "sweep"])
def test_plot_script_quotes_paths_for_gnuplot(tmp_path, header):
    folder = tmp_path / "it's"
    folder.mkdir()
    csv_path, gp = folder / "table.csv", tmp_path / "table.gp"
    csv_path.write_text(header + "\n")
    assert main(["plot-script", str(csv_path), str(gp)]) == 0
    text = gp.read_text()
    quoted = str(folder).replace("'", "''")  # gnuplot doubles ' inside '...'
    assert f"set output '{quoted}/table.png'\n" in text
    assert f"plot '{quoted}/table.csv' using" in text
    assert str(folder) not in text
