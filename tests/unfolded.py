"""Inference reference for the tests: batch norm's running statistics
applied after the layer as written, not folded into it."""

from __future__ import annotations

from fld.numerics import elu


class UnfoldedBatchNorm:
    """Per-channel scale and shift of a batch norm's running statistics
    (``eval_affine``), then ELU in an activated block; no parameters."""

    def __init__(self, bn):
        self.scale, self.shift = bn.eval_affine()

    def parameters(self) -> list:
        return []

    def forward(self, x, activate):
        y = x * self.scale[:, None] + self.shift[:, None]
        return (elu(y)[0] if activate else y), None


def unfold_batch_norm(block: tuple) -> tuple:
    """Stand-in for ``fld.model.fold_batch_norm``: patched in, it makes
    ``freeze`` keep each batch norm as an :class:`UnfoldedBatchNorm`."""
    layer, bn, activated = block
    return layer, bn and UnfoldedBatchNorm(bn), activated
