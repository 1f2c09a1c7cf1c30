"""Outside-in span tracing of the aflearn package.

A traced run wraps the package's functions and methods in the namespaces
where its own callers look them up (``aflearn.session.optimizer_step``,
``aflearn.classic.project_filter``, ``ComplexGruLayer.step``,
``numpy.fft.fft`` ...), so no file of the package changes.  Every call of a
wrapped function appends one span ``[name, start, end, parent]`` to an
in-memory list; ``parent`` is the index of the span that was open when the
call began, or -1.  Spans are aggregated after each measured operation and
the last operations' spans are written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# Functions traced, by defining module.  Each is wrapped in every aflearn
# namespace that binds it, which is where the package's callers find it.
FUNCTIONS = {
    "ols": ("ols_apply", "af_error", "filter_gradient", "hop_spectrum",
            "spectrum_to_hop", "project_filter"),
    "classic": ("nlms_step", "rls_step", "kf_step"),
    "optimizer": ("build_input", "optimizer_step", "apply_update"),
    "layers": ("log_scale_backward",),
    "session": ("run_learned_session", "run_classic_session"),
    "training": ("train_update_rule", "window_gradient", "adam_step",
                 "evaluate_mean_serle"),
    "scenes": ("gen_scene", "load_scene"),
    "checkpoint": ("load_checkpoint",),
    "cli": ("main",),
}
METHODS = {
    "ComplexGruLayer": ("step", "backward"),
    "GroupSampler": ("downsample", "upsample", "downsample_backward", "upsample_backward"),
}
FFT_FUNCTIONS = ("fft", "ifft")

FFT = frozenset(f"numpy.fft.{name}" for name in FFT_FUNCTIONS)
OLS = frozenset(f"ols.{name}" for name in FUNCTIONS["ols"]) | FFT
GRU_STEP = "layers.ComplexGruLayer.step"
SAMPLER = frozenset({"layers.GroupSampler.downsample", "layers.GroupSampler.upsample"})
SAMPLER_BACKWARD = frozenset({"layers.GroupSampler.downsample_backward",
                              "layers.GroupSampler.upsample_backward"})
BACKWARD = SAMPLER_BACKWARD | {"layers.ComplexGruLayer.backward", "layers.log_scale_backward"}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import aflearn

        modules = [aflearn] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith("aflearn.") and m is not None]
        for module_name, names in FUNCTIONS.items():
            defining = importlib.import_module(f"aflearn.{module_name}")
            for fname in names:
                original = getattr(defining, fname)
                traced = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, traced)
        layers = importlib.import_module("aflearn.layers")
        for cls_name, methods in METHODS.items():
            cls = getattr(layers, cls_name)
            for method in methods:
                self._patch(cls, method,
                            self._wrap(f"layers.{cls_name}.{method}", getattr(cls, method)))
        for fname in FFT_FUNCTIONS:
            self._patch(np.fft, fname, self._wrap(f"numpy.fft.{fname}", getattr(np.fft, fname)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = list(self.spans)
        del self.spans[:]
        return spans

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _dur(span):
    return span[2] - span[1]


def _by_name(spans, names):
    return [s for s in spans if s[0] in names]


def _outermost(spans, members):
    """Spans in ``members`` with no ancestor in ``members``."""
    inside = [False] * len(spans)
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in members)
        inside[i] = covered
        if name in members and not covered:
            out.append(spans[i])
    return out


def _root(spans, name):
    roots = [i for i, s in enumerate(spans) if s[3] == -1 and s[0] == name]
    if len(roots) != 1:
        raise ValueError(f"expected one root span {name!r}, found {len(roots)}")
    return roots[0], spans[roots[0]]


def session_stats(spans, root_name, marker, hops):
    """Per-hop numbers of one session.

    A hop ends when its last per-hop call (``marker``: ``apply_update`` for
    learned rules, the classic step otherwise) returns, so hop t lasts from
    the end of marker t-1 (or the session start) to the end of marker t.
    """
    root_index, root = _root(spans, root_name)
    children = [s for s in spans if s[3] == root_index]
    ends = [s[2] for s in spans if s[0] == marker]
    if len(ends) != hops:
        raise ValueError(f"{marker}: {len(ends)} calls for {hops} hops")
    starts = [root[1]] + ends[:-1]
    stats = {
        "self_s": _dur(root) - sum(_dur(s) for s in children),
        "hop_s": [e - s for s, e in zip(starts, ends)],
        "ols_s": sum(_dur(s) for s in _outermost(spans, OLS)),
        "fft_calls": len(_by_name(spans, FFT)),
        "hops": hops,
    }
    gru_calls = {}
    gru = ([], [])
    for span in _by_name(spans, {GRU_STEP}):
        order = gru_calls.get(span[3], 0)
        gru_calls[span[3]] = order + 1
        gru[order % 2].append(_dur(span))
    stats.update(
        gru0_s=gru[0],
        gru1_s=gru[1],
        sampler_s=sum(_dur(s) for s in _by_name(spans, SAMPLER)),
        optimizer_step_s=[_dur(s) for s in _by_name(spans, {"optimizer.optimizer_step"})],
        build_input_s=[_dur(s) for s in _by_name(spans, {"optimizer.build_input"})],
        classic_step_s=[_dur(s) for s in spans if s[0].startswith("classic.")],
    )
    return stats


def train_stats(spans):
    """Window, backward, validation and optimizer numbers of one epoch."""
    _root(spans, "training.train_update_rule")
    windows, backward_s = [], 0.0
    for index, span in enumerate(spans):
        if span[0] != "training.window_gradient":
            continue
        windows.append(_dur(span))
        first = min((s[1] for s in spans if s[3] == index and s[0] in BACKWARD), default=None)
        if first is None:
            raise ValueError("training window without backward spans")
        backward_s += span[2] - first
    steps = len(_by_name(spans, {"layers.GroupSampler.upsample_backward"}))
    return {
        "window_s": windows,
        "backward_s": backward_s,
        "validate_s": sum(_dur(s) for s in _by_name(spans, {"training.evaluate_mean_serle"})),
        "adam_s": sum(_dur(s) for s in _by_name(spans, {"training.adam_step"})),
        "gru_backward_s": [_dur(s) for s in _by_name(spans, {"layers.ComplexGruLayer.backward"})],
        "sampler_backward_s":
            sum(_dur(s) for s in _by_name(spans, SAMPLER_BACKWARD)) / max(steps, 1),
        "log_scale_backward_s": [_dur(s) for s in _by_name(spans, {"layers.log_scale_backward"})],
        "gen_scene_s": [_dur(s) for s in _by_name(spans, {"scenes.gen_scene"})],
    }


def eval_stats(spans, scenes):
    """Checkpoint, scene-loading and CLI self time of one ``aflearn eval``."""
    _, root = _root(spans, "cli.main")
    loads = _by_name(spans, {"checkpoint.load_checkpoint"})
    scene_loads = _by_name(spans, {"scenes.load_scene"})
    children = _outermost(spans, {"checkpoint.load_checkpoint", "scenes.load_scene",
                                  "session.run_learned_session"})
    return {
        "load_calls": len(loads),
        "load_s": [_dur(s) for s in loads],
        "scene_load_s": [_dur(s) for s in scene_loads],
        "cli_self_s": (_dur(root) - sum(_dur(s) for s in children)) / scenes,
    }


def dump(spans):
    """Compact JSON-ready form: a name table plus [name_id, start, end, parent] rows."""
    names = sorted({s[0] for s in spans})
    ids = {n: i for i, n in enumerate(names)}
    return {"names": names, "spans": [[ids[s[0]], s[1], s[2], s[3]] for s in spans]}
