"""Fourier latent dynamics: self-supervised structured representation,
prediction and synthesis of periodic and quasi-periodic multi-channel
trajectories, with an online out-of-distribution gate."""

__version__ = "0.1.0"
