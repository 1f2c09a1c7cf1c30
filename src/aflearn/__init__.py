"""Frequency-domain adaptive filtering with learned, frequency-coupled update rules.

The package splits into a small stack of layers:

- :mod:`aflearn.ols` — overlap-save block filtering, constraint projection,
  and the analytic filter gradient.
- :mod:`aflearn.structures` / :mod:`aflearn.flops` — frequency-grouping
  layouts (diagonal, block, banded) and their closed-form cost model.
- :mod:`aflearn.layers` / :mod:`aflearn.optimizer` — complex-valued neural
  building blocks and the grouped recurrent update rule built from them.
- :mod:`aflearn.classic` — NLMS / RLS / Kalman step rules on the same
  overlap-save geometry.
- :mod:`aflearn.session` — hop-by-hop echo-cancellation sessions.
- :mod:`aflearn.scenes` / :mod:`aflearn.metrics` — synthetic acoustic scenes
  and evaluation metrics.
- :mod:`aflearn.training` / :mod:`aflearn.checkpoint` — meta-training by
  truncated backpropagation and checkpoint persistence.
- :mod:`aflearn.cli` — the ``aflearn`` command-line interface.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, MetricUndefinedError, NumericError
from .flops import FlopModel
from .metrics import erle_curve_db, measure_rtf, misalignment_db, serle_db, si_sdr_db
from .ols import OlsConfig, af_error, filter_gradient, ols_apply, project_filter
from .optimizer import GroupState, MetaParams, init_meta_params, optimizer_step
from .scenes import Scene, SceneSpec, desk_spec, gen_scene, load_scene, save_scene
from .session import (
    CLASSIC_ALGORITHMS,
    SessionResult,
    run_classic_session,
    run_learned_session,
)
from .structures import DependencyStructure
from .training import TrainSchedule, evaluate_mean_serle, train_update_rule

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "OlsConfig",
    "ols_apply",
    "af_error",
    "filter_gradient",
    "project_filter",
    "DependencyStructure",
    "FlopModel",
    "MetaParams",
    "GroupState",
    "init_meta_params",
    "optimizer_step",
    "SceneSpec",
    "Scene",
    "desk_spec",
    "gen_scene",
    "save_scene",
    "load_scene",
    "serle_db",
    "erle_curve_db",
    "si_sdr_db",
    "misalignment_db",
    "measure_rtf",
    "SessionResult",
    "run_learned_session",
    "run_classic_session",
    "CLASSIC_ALGORITHMS",
    "TrainSchedule",
    "train_update_rule",
    "evaluate_mean_serle",
    "save_checkpoint",
    "load_checkpoint",
    "ConfigError",
    "NumericError",
    "MetricUndefinedError",
]
