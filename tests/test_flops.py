"""Closed-form cost model versus an instrumented count of actual matmuls."""

import numpy as np
import pytest

from aflearn.flops import FlopModel
from aflearn.ols import OlsConfig
from aflearn.optimizer import GroupState, build_input, init_meta_params, optimizer_step
from aflearn.structures import DependencyStructure

from oracles import counted_macs

STRUCTURES = [
    DependencyStructure.diagonal(),
    DependencyStructure.block(4),
    DependencyStructure.banded(4),
]


def test_hand_computed_total_diagonal():
    # K=8 diagonal, H=4: 8 groups, sampler 8*(5*1*4 + 4), GRU 8*12*16, out 8*16
    model = FlopModel(DependencyStructure.diagonal(), 8, 4)
    assert model.sampler_term == 8 * 24
    assert model.gru_term == 8 * 12 * 16
    assert model.output_term == 8 * 16
    assert model.total == 192 + 1536 + 128


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_closed_form_matches_instrumented_count(structure):
    cfg = OlsConfig(32)
    hidden = 4
    params = init_meta_params(structure, hidden, seed=0)
    state = GroupState.zeros(structure, cfg.dft_size, hidden)
    rng = np.random.default_rng(1)
    z = lambda: rng.standard_normal(cfg.dft_size) + 1j * rng.standard_normal(cfg.dft_size)
    xi = build_input(np.stack([z() for _ in range(5)], axis=-2))
    with counted_macs() as counted:
        optimizer_step(params, xi, state)
    assert counted.total == FlopModel(structure, cfg.dft_size, hidden).total


def test_counter_scales_with_batch():
    structure = DependencyStructure.block(4)
    cfg = OlsConfig(32)
    params = init_meta_params(structure, 4, seed=0)
    batch = 3
    state = GroupState.zeros(structure, cfg.dft_size, 4, batch_shape=(batch,))
    rng = np.random.default_rng(2)
    z = lambda: rng.standard_normal((batch, cfg.dft_size)) + 1j * rng.standard_normal(
        (batch, cfg.dft_size)
    )
    xi = build_input(np.stack([z() for _ in range(5)], axis=-2))
    with counted_macs() as counted:
        optimizer_step(params, xi, state)
    assert counted.total == batch * FlopModel(structure, cfg.dft_size, 4).total


def test_gru_term_quadruples_when_hidden_doubles():
    for structure in STRUCTURES:
        small = FlopModel(structure, 64, 8)
        large = FlopModel(structure, 64, 16)
        assert large.gru_term == 4 * small.gru_term


def test_grouped_structures_cost_less_than_diagonal():
    k, h = 64, 8
    diag = FlopModel(DependencyStructure.diagonal(), k, h).total
    block = FlopModel(DependencyStructure.block(4), k, h).total
    banded = FlopModel(DependencyStructure.banded(4), k, h).total
    assert block < diag
    assert banded < diag
    # banded covers each bin twice, so it sits between block and diagonal
    assert block < banded


def test_per_second_uses_hop_rate():
    cfg = OlsConfig(32, sample_rate=16000)
    model = FlopModel(DependencyStructure.diagonal(), 32, 4)
    assert model.per_second(cfg) == model.total * 1000
