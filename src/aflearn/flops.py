"""Cost model for one learned update step.

Counts complex multiply-accumulate operations of the matrix products only
(feature downsampling, the six recurrent/input projections of the two GRU
layers, the output projection, and the per-bin upsampling).  Elementwise gate
products and activations are excluded; under that convention the GRU term
scales exactly with H^2 and the closed form below must match an instrumented
count of the actual matmul shapes, operation for operation.  That count is
taken by passing a ``FlopCounter`` to ``optimizer.optimizer_step(counter=)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FlopModel", "FlopCounter", "flops_per_frame"]


@dataclass(frozen=True)
class FlopModel:
    """Per-frame cost of one optimizer step for a given layout."""

    structure: object
    dft_size: int
    hidden_size: int

    @property
    def group_count(self):
        return self.structure.group_count(self.dft_size)

    @property
    def sampler_term(self):
        """Downsample (5B -> H) plus upsample (H -> B) products per frame."""
        b, h = self.structure.width, self.hidden_size
        return self.group_count * (5 * b * h + b * h)

    @property
    def gru_term(self):
        """Six H x H projections per layer, two layers."""
        return self.group_count * 12 * self.hidden_size**2

    @property
    def output_term(self):
        return self.group_count * self.hidden_size**2

    @property
    def total(self):
        return self.sampler_term + self.gru_term + self.output_term

    def per_second(self, cfg):
        """MACs per second of audio at the hop rate of ``cfg``."""
        return self.total * cfg.sample_rate / cfg.hop


def flops_per_frame(structure, dft_size, hidden_size):
    return FlopModel(structure, dft_size, hidden_size).total


class FlopCounter:
    """Tallies multiply-accumulates from actual matmul shapes at run time."""

    def __init__(self):
        self.total = 0

    def tally_matmul(self, batch_elems, n_in, n_out):
        self.total += int(batch_elems) * int(n_in) * int(n_out)
