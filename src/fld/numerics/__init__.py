"""Minimal differentiable-computation toolkit: float64 layers with
hand-derived backward passes, a matrix real DFT with its backward rule, and Adam."""

from .fourier import rfft, rfft_backward
from .layers import (
    BatchNorm1d,
    Conv1d,
    Linear,
    Parameter,
    PerChannelLinear,
    atan2_phase,
    atan2_phase_backward,
    elu,
    elu_backward,
    ensure_finite,
    immutable,
)
from .optim import Adam

__all__ = [
    "Adam",
    "BatchNorm1d",
    "Conv1d",
    "Linear",
    "Parameter",
    "PerChannelLinear",
    "atan2_phase",
    "atan2_phase_backward",
    "elu",
    "elu_backward",
    "ensure_finite",
    "immutable",
    "rfft",
    "rfft_backward",
]
