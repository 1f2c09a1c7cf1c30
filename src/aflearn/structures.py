"""Frequency-grouping layouts for the learned update rule.

A structure decides which DFT bins are processed together by one recurrent
group.  Three layouts:

- ``diagonal``: every bin is its own group (width 1, K groups).
- ``block``: disjoint windows of ``width`` bins (K / width groups).
- ``banded``: windows of ``width`` bins hopping by width/2, wrapping
  circularly, so every bin is covered exactly twice (2K / width groups).

``DependencyStructure.gather`` cuts per-bin arrays into per-group windows and
``scatter`` overlap-adds them back; no other module knows the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["DependencyStructure", "STRUCTURE_KINDS"]

STRUCTURE_KINDS = ("diagonal", "block", "banded")


@dataclass(frozen=True)
class DependencyStructure:
    """Grouping layout: ``kind`` plus window ``width`` in bins."""

    kind: str
    width: int = 1

    def __post_init__(self):
        if self.kind not in STRUCTURE_KINDS:
            raise ConfigError("kind", f"unknown structure {self.kind!r}")
        if self.kind == "diagonal":
            if self.width != 1:
                raise ConfigError("width", "diagonal structure has width 1")
        else:
            if self.width < 2:
                raise ConfigError("width", f"{self.kind} width must be >= 2, got {self.width}")
        if self.kind == "banded" and self.width % 2:
            raise ConfigError("width", f"banded width must be even, got {self.width}")

    @classmethod
    def diagonal(cls):
        return cls("diagonal", 1)

    @classmethod
    def block(cls, width):
        return cls("block", width)

    @classmethod
    def banded(cls, width):
        return cls("banded", width)

    @classmethod
    def parse(cls, text):
        """Parse 'diagonal', 'block:B', or 'banded:B'."""
        kind, _, arg = text.partition(":")
        if kind == "diagonal":
            if arg:
                raise ConfigError("structure", "diagonal takes no width argument")
            return cls.diagonal()
        if kind in ("block", "banded"):
            try:
                width = int(arg)
            except ValueError:
                raise ConfigError("structure", f"bad width in {text!r}") from None
            return cls(kind, width)
        raise ConfigError("structure", f"unknown structure {text!r}")

    @property
    def label(self):
        return self.kind if self.kind == "diagonal" else f"{self.kind}:{self.width}"

    @property
    def hop(self):
        """Bins between consecutive window starts."""
        if self.kind == "banded":
            return self.width // 2
        return self.width

    def group_count(self, num_bins):
        """Number of groups C covering ``num_bins`` bins."""
        if self.width > num_bins:
            raise ConfigError("width", f"width {self.width} exceeds {num_bins} bins")
        if num_bins % self.hop:
            raise ConfigError(
                "dft_size", f"{num_bins} bins not divisible by {self.label} hop {self.hop}"
            )
        if self.kind != "banded" and num_bins % self.width:
            raise ConfigError(
                "dft_size", f"{num_bins} bins not divisible by width {self.width}"
            )
        return num_bins // self.hop

    def window_bins(self, num_bins):
        """(C, width) array of bin indices per group, wrapping circularly."""
        starts = np.arange(0, self.group_count(num_bins) * self.hop, self.hop)
        return (starts[:, None] + np.arange(self.width)[None, :]) % num_bins

    def coverage(self, num_bins):
        """How many windows touch each bin (1 for diagonal/block, 2 for banded)."""
        counts = np.zeros(num_bins, dtype=int)
        np.add.at(counts, self.window_bins(num_bins).ravel(), 1)
        return counts

    def gather(self, x):
        """Per-group windows (..., width, ch, C) of x (..., ch, K), cut from C
        tiles of ``hop`` bins: window row j of group g is bin g * hop + j.
        Diagonal windows are a view of a contiguous x, block windows a strided
        view; a banded window copies tile g, then tile g + 1 (the last
        wrapping to the first)."""
        *batch, chans, num_bins = x.shape
        hop = self.hop
        groups = self.group_count(num_bins)
        # (..., ch, C, hop) -> (..., hop, ch, C)
        tiles = x.reshape(*batch, chans, groups, hop).swapaxes(-1, -2).swapaxes(-2, -3)
        if self.kind != "banded":
            return tiles
        windows = np.empty((*batch, self.width, chans, groups), dtype=x.dtype)
        windows[..., :hop, :, :] = tiles
        windows[..., hop:, :, :-1] = tiles[..., 1:]
        windows[..., hop:, :, -1] = tiles[..., 0]
        return windows

    def scatter(self, windows):
        """Adjoint of ``gather``: overlap-add (..., width, ch, C) -> (..., ch, K);
        a banded window's tail half lands on the next tile, the last on the first."""
        *batch, _, chans, groups = windows.shape
        if self.kind == "banded":
            hop = self.hop
            windows = windows[..., :hop, :, :] + np.roll(windows[..., hop:, :, :], 1, axis=-1)
        # (..., hop, ch, C) -> (..., ch, C, hop)
        return windows.swapaxes(-3, -2).swapaxes(-2, -1).reshape(*batch, chans, groups * self.hop)
