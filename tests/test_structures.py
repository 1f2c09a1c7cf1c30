"""Grouping layout laws checked by explicit enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aflearn.errors import ConfigError
from aflearn.structures import DependencyStructure

# power-of-two bin counts K = 4 ... 512 and widths 2 ... K, drawn derandomized
LAWS = settings(max_examples=60, derandomize=True, deadline=None)
LOG_K = st.integers(2, 9)
LOG_WIDTH = st.integers(1, 9)


def _drawn(kind, log_width, k):
    width = 1 if kind == "diagonal" else min(2**log_width, k)
    return DependencyStructure(kind, width)


def test_group_counts():
    assert DependencyStructure.diagonal().group_count(16) == 16
    assert DependencyStructure.block(4).group_count(16) == 4
    assert DependencyStructure.banded(4).group_count(16) == 8
    assert DependencyStructure.banded(8).group_count(64) == 16


@LAWS
@given(kind=st.sampled_from(["diagonal", "block", "banded"]), log_k=LOG_K, log_width=LOG_WIDTH)
def test_groups_times_hop_cover_every_bin(kind, log_k, log_width):
    for s in (
        DependencyStructure.diagonal(),
        DependencyStructure.block(8),
        DependencyStructure.banded(4),
    ):
        for k in (16, 32, 64):
            assert s.group_count(k) * s.hop == k
    k = 2**log_k
    s = _drawn(kind, log_width, k)
    assert s.group_count(k) * s.hop == k


@LAWS
@given(kind=st.sampled_from(["diagonal", "block"]), log_k=LOG_K, log_width=LOG_WIDTH)
def test_diagonal_and_block_windows_partition_bins(kind, log_k, log_width):
    k = 2**log_k
    for s, num_bins in ((DependencyStructure.diagonal(), 16), (DependencyStructure.block(4), 16),
                        (_drawn(kind, log_width, k), k)):
        bins = s.window_bins(num_bins)
        assert sorted(bins.ravel().tolist()) == list(range(num_bins))
        assert np.array_equal(s.coverage(num_bins), np.ones(num_bins, dtype=int))


@LAWS
@given(log_k=LOG_K, log_width=LOG_WIDTH)
def test_banded_windows_cover_each_bin_twice(log_k, log_width):
    s = DependencyStructure.banded(4)
    bins = s.window_bins(16)
    assert bins.shape == (8, 4)
    assert np.array_equal(s.coverage(16), np.full(16, 2))
    # windows hop by width/2 and wrap circularly
    assert bins[0].tolist() == [0, 1, 2, 3]
    assert bins[1].tolist() == [2, 3, 4, 5]
    assert bins[-1].tolist() == [14, 15, 0, 1]
    k = 2**log_k
    s = _drawn("banded", log_width, k)
    bins = s.window_bins(k)
    assert bins.shape == (2 * k // s.width, s.width)
    assert np.array_equal(s.coverage(k), np.full(k, 2))
    starts = np.arange(0, k, s.width // 2)
    assert np.array_equal(bins, (starts[:, None] + np.arange(s.width)) % k)


@LAWS
@given(kind=st.sampled_from(["diagonal", "block", "banded"]), log_k=LOG_K, log_width=LOG_WIDTH,
       batch=st.integers(1, 3), chans=st.sampled_from([1, 5]), seed=st.integers(0, 2**16))
def test_gather_enumerates_windows_and_scatter_is_its_adjoint(kind, log_k, log_width, batch,
                                                              chans, seed):
    k = 2**log_k
    s = _drawn(kind, log_width, k)
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = draw((batch, chans, k))
    windows = s.gather(x)
    # x[..., bins] is (batch, ch, C, width); gather puts the window rows first
    assert np.array_equal(windows, np.moveaxis(x[..., s.window_bins(k)], -1, -3))
    y = draw(windows.shape)
    scattered = s.scatter(y)
    assert scattered.shape == x.shape
    lhs, rhs = np.vdot(windows, y), np.vdot(x, scattered)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(windows) * np.linalg.norm(y)


def test_validation_errors():
    with pytest.raises(ConfigError):
        DependencyStructure("banded", 3)
    with pytest.raises(ConfigError):
        DependencyStructure("diagonal", 2)
    with pytest.raises(ConfigError):
        DependencyStructure("block", 1)
    with pytest.raises(ConfigError):
        DependencyStructure("triangular", 4)
    with pytest.raises(ConfigError):
        DependencyStructure.block(3).group_count(16)
    with pytest.raises(ConfigError):
        DependencyStructure.block(32).group_count(16)


def test_parse_round_trips():
    for text in ("diagonal", "block:4", "banded:8"):
        s = DependencyStructure.parse(text)
        assert s.label == text
    with pytest.raises(ConfigError):
        DependencyStructure.parse("block")
    with pytest.raises(ConfigError):
        DependencyStructure.parse("banded:x")
    with pytest.raises(ConfigError):
        DependencyStructure.parse("diagonal:2")
