"""The benchmark's tracer and harness read package names; each must still exist.

``perfbench/tracing.py`` patches the functions and methods it lists into the
namespaces where the package's callers find them, and ``perfbench/bench.py``
calls the package by name.  A name deleted or renamed in the package breaks
every benchmark run, so these tests read the tracer's tables and the
harness's text (without importing either as a module, so nothing is written
next to them) and resolve each name, and run a traced session and training
epoch through the tracer's own statistics.
"""

import importlib
import re
import types
from pathlib import Path

import numpy as np

import aflearn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BENCH = TRACING.with_name("bench.py")


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    assert tracing.FUNCTIONS
    for module_name, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"aflearn.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"aflearn.{module_name}.{name}"
    for name in tracing.FFT_FUNCTIONS:
        assert callable(getattr(np.fft, name, None)), f"numpy.fft.{name}"


def test_every_traced_method_resolves():
    tracing = _tracing()
    layers = importlib.import_module("aflearn.layers")
    assert tracing.METHODS
    for cls_name, methods in tracing.METHODS.items():
        cls = getattr(layers, cls_name, None)
        assert isinstance(cls, type), f"aflearn.layers.{cls_name}"
        for method in methods:
            assert callable(getattr(cls, method, None)), f"aflearn.layers.{cls_name}.{method}"


def test_every_package_name_the_benchmark_reads_resolves():
    text = BENCH.read_text()
    names = {name.rstrip(".") for name in re.findall(r"\baflearn\.[A-Za-z_][\w.]*", text)}
    for imported in re.findall(r"^from aflearn import (.+)$", text, re.M):
        names.update(f"aflearn.{name.strip()}" for name in imported.split(","))
    assert "aflearn.scenes.spec_to_json" in names and "aflearn.cli" in names
    for dotted in sorted(names):
        obj = aflearn
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
                importlib.import_module(f"{obj.__name__}.{part}")
            assert hasattr(obj, part), dotted
            obj = getattr(obj, part)
    # attributes it reads off what the package returns
    instances = {"to_flat": aflearn.init_meta_params(aflearn.DependencyStructure.diagonal(), 2),
                 "frame_seconds": aflearn.OlsConfig(512)}
    for attribute, instance in instances.items():
        assert f".{attribute}" in text, attribute
        assert hasattr(instance, attribute), attribute


def _children(spans, index, name):
    return sum(1 for span in spans if span[3] == index and span[0] == name)


def test_traced_session_and_epoch_parse_with_one_forward_per_hop():
    tracing = _tracing()
    cfg = aflearn.OlsConfig(32)
    structure = aflearn.DependencyStructure.block(4)
    spec = aflearn.desk_spec(duration=0.05, rir_taps=16)
    unroll = 10
    hops = spec.num_samples // cfg.hop
    scene = aflearn.gen_scene(spec, 3)
    params = aflearn.init_meta_params(structure, 4, seed=0)
    with tracing.Tracer() as tracer:  # the wrappers are looked up through the package
        aflearn.run_learned_session(params, scene.far_end, scene.mic, cfg)
        session = tracer.take()
        aflearn.train_update_rule(structure, 4, cfg, spec, [0, 1], [2], epochs=1,
                                  batch_size=2, unroll=unroll, init_seed=0)
        epoch = tracer.take()

    stats = tracing.session_stats(session, "session.run_learned_session",
                                  "optimizer.apply_update", hops)
    assert len(stats["optimizer_step_s"]) == len(stats["build_input_s"]) == hops
    assert len(stats["gru0_s"]) == len(stats["gru1_s"]) == hops

    train = tracing.train_stats(epoch)
    windows = hops // unroll
    assert len(train["window_s"]) == windows
    # a window's last step has no backward: its delta only sets the carried w;
    # each step's backward takes both folded sampler ends once
    assert len(train["gru_backward_s"]) == 2 * (unroll - 1) * windows
    for name in ("layers.GroupSampler.upsample_backward",
                 "layers.GroupSampler.downsample_backward"):
        assert sum(1 for span in epoch if span[0] == name) == (unroll - 1) * windows, name
    # and step 0 takes no hop adjoint, so no feature backward either
    assert len(train["log_scale_backward_s"]) == (unroll - 2) * windows
    # the tracer finds a window's backward among its window's children only
    parents = [epoch[span[3]][0] for span in epoch if span[0] == "layers.log_scale_backward"]
    assert parents and set(parents) == {"training.window_gradient"}
    # training windows and validation sessions run the one traced forward
    per_hop = {"training.window_gradient": (unroll, 0), "session.run_learned_session": (hops, hops)}
    seen = set()
    for index, span in enumerate(epoch):
        name = span[0]
        if name in per_hop:
            seen.add(name)
            steps, updates = per_hop[name]
            assert _children(epoch, index, "optimizer.optimizer_step") == steps, name
            assert _children(epoch, index, "optimizer.build_input") == steps, name
            assert _children(epoch, index, "optimizer.apply_update") == updates, name
    assert seen == set(per_hop)
