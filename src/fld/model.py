"""The FLD model: a periodic convolutional autoencoder whose latent curves
are parameterized in the frequency domain, plus the propagation loss that
makes the parameterization quasi-constant, and the VAE / feed-forward
comparison baselines, whose MLPs :func:`mlp_blocks` builds. Every model is
a :class:`BlockModel`, whose parameters, state arrays and freezing follow
from its block list, and trains through one entry, ``train_loss(items,
rng)``, which accumulates the step's gradients and returns (loss, extras).

Conventions
-----------
* A segment is (d, H) with columns oldest to newest; batches are (B, d, H).
  The encoder and decoder run time-major, on (H, C, B), the transpose
  ``.T`` of a segment batch: ``encode``, ``decode`` and their backwards take
  and return (B, C, H) views and flip the layout once at that boundary.
  The phase head's batch norm sees its (B, 2c) batch as the (1, 2c, B) view
  ``.T[None]``, the one layout batch norm takes.
* The reconstruction time grid is T = (-(H-1)*dt, ..., -dt, 0): the phase
  indexes the newest frame, so advancing phase by f*dt moves the window
  exactly one frame.
* Phase is in cycles, wrapped to [-0.5, 0.5): only sin(2*pi*phi) ever
  consumes it.
* Frequency (Hz) is the power-weighted mean of non-DC bin frequencies,
  amplitude is (2/H)*sqrt(sum of non-DC power), offset is the DC bin over H.
  A pure sinusoid of amplitude A at a bin frequency yields exactly (f, A, b).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .numerics import (
    BatchNorm1d,
    Conv1d,
    Linear,
    Parameter,
    PerChannelLinear,
    atan2_phase,
    atan2_phase_backward,
    elu,
    elu_backward,
    immutable,
    relu,
    relu_backward,
    rfft,
    rfft_backward,
    softplus,
    softplus_backward,
)

_POWER_FLOOR = 1e-12


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap phase (cycles) into [-0.5, 0.5)."""
    return np.mod(np.asarray(phi, dtype=np.float64) + 0.5, 1.0) - 0.5


# Every network here is a list of blocks (layer, batch norm or None,
# activated). An activated block with batch norm activates with ELU, inside
# batch norm. The other blocks' activation is passed at each call, never
# stored in a block, so a call runs the module attribute current at that
# time (the traced benchmark swaps in wrappers).


def blocks_forward(blocks: list, x: np.ndarray, act, mode: str = "eval"
                   ) -> tuple[np.ndarray, list]:
    """Run each block's layer, then its batch norm if any, then ``act`` if
    activated. Batch norm in an activated block applies ELU itself, in the
    same slab sweep, over the conv output
    (:meth:`~fld.numerics.layers.BatchNorm1d.forward`), so ``act`` runs only
    in activated blocks without batch norm: a frozen model's folded blocks
    and the MLPs. Returns (output, one (layer cache, batch-norm or
    activation cache) pair per block). A train-mode (conv, batch norm,
    activated) block caches the conv's input spectrum and kernel blocks,
    and batch norm's x_hat and std: no activation output."""
    caches = []
    for layer, bn, activated in blocks:
        x, c_layer = layer.forward(x)
        c_post = None
        if bn is not None:
            x, c_post = bn.forward(x, mode, activated)
        elif activated:
            x, c_post = act(x)
        caches.append((c_layer, c_post))
    return x, caches


def blocks_backward(blocks: list, g: np.ndarray, caches: list, act_backward) -> np.ndarray:
    """Gradient with respect to the input of :func:`blocks_forward`;
    accumulates every block's parameter gradients. A block's batch norm
    takes ELU's derivative itself, and ``act_backward`` runs in activated
    blocks without one. Consumes ``caches``, as each cache feeds exactly
    one backward: it pops each block's pair, last block first, and drops
    the batch-norm or activation cache once its backward has run, so the
    list ends empty and that cache is freed before the layer's backward."""
    if len(caches) < len(blocks):
        raise ValueError(f"{len(caches)} caches for {len(blocks)} blocks; "
                         "a cache list feeds one backward")
    for layer, bn, activated in reversed(blocks):
        c_layer, c_post = caches.pop()
        if bn is not None:
            g = bn.backward(g, c_post)
        elif activated:
            g = act_backward(g, c_post)
        c_post = None
        g = layer.backward(g, c_layer)
    return g


def fold_batch_norm(block: tuple) -> tuple:
    """A (conv, batch norm, activated) block as (conv with bias, None,
    activated): the conv's weights scaled per output channel by batch norm's
    eval scale s, and its bias (0 if it has none) times s plus the eval
    shift. Agrees with the eval block to rounding, not bitwise. A block
    without batch norm is returned as it is."""
    conv, bn, activated = block
    if bn is None:
        return block
    scale, shift = bn.eval_affine()
    conv.weight.value = conv.weight.value * scale[:, None, None]
    if conv.bias is None:
        conv.bias = Parameter(f"{conv.name}.bias", shift)
    else:
        conv.bias.value = conv.bias.value * scale + shift
    return conv, None, activated


def mlp_blocks(sizes: list[int], rng: np.random.Generator, prefix: str,
               activate_last: bool) -> list:
    """Blocks of ``Linear`` layers sizes[i] -> sizes[i + 1] named ``{prefix}{i}``,
    drawn from ``rng`` in order; all activated but the last, unless ``activate_last``."""
    n = len(sizes) - 1
    return [(Linear(sizes[i], sizes[i + 1], rng, f"{prefix}{i}"), None,
             activate_last or i < n - 1) for i in range(n)]


class BlockModel:
    """A model whose ``_blocks()`` hold all its parameters, in checkpoint
    order; its parameter list, state arrays and freezing follow from them."""

    def parameters(self) -> list[Parameter]:
        """Each block's layer parameters, then its batch norm's."""
        return [p for layer, bn, _ in self._blocks()
                for part in (layer, bn) if part is not None for p in part.parameters()]

    def _batch_norms(self) -> list[BatchNorm1d]:
        return [bn for _, bn, _ in self._blocks() if bn is not None]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The parameter values, then every batch norm's running statistics, by name."""
        arrays = {p.name: p.value for p in self.parameters()}
        for bn in self._batch_norms():
            arrays.update(bn.state_arrays())
        return arrays

    def freeze(self):
        """Make every parameter value and running statistic immutable
        (:func:`~fld.numerics.layers.immutable`), in place, and return the
        model, which is then inference-only."""
        for p in self.parameters():
            p.value = immutable(p.value)
        for bn in self._batch_norms():
            bn.running_mean, bn.running_var = immutable(bn.running_mean), immutable(bn.running_var)
        return self


def as_int(name: str, value, floor: int) -> int:
    """``value`` as a plain int; ValueError unless it is an int or a numpy
    integer, not a bool, and >= ``floor`` (so NaN and 16.5 fail)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    return int(value)


class ConfigDict:
    """``to_dict``/``from_dict`` of the model configs: a JSON-ready dict of
    the fields, with tuples stored as lists; and the checks they share."""

    def check(self, sizes: tuple[str, ...]) -> None:
        """Raise ValueError unless each ``sizes`` field, or each entry of a
        tuple of widths, is an integer at or above its floor (window 2,
        horizon 0, any other 1), and dt > 0. Stores the sizes as plain ints."""
        for name in sizes:
            value, floor = getattr(self, name), {"window": 2, "horizon": 0}.get(name, 1)
            if isinstance(value, (tuple, list)):
                setattr(self, name, tuple(as_int(name, v, floor) for v in value))
            else:
                setattr(self, name, as_int(name, value, floor))
        if not self.dt > 0:  # NaN fails too
            raise ValueError("dt must be positive")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


@dataclass
class FLDConfig(ConfigDict):
    dims: int = 27              # state dimensions d
    channels: int = 8           # latent channels c
    window: int = 51            # segment length H
    horizon: int = 50           # propagation horizon N
    alpha: float = 1.0          # propagation decay
    dt: float = 0.02
    hidden: int = 64
    final_activation: bool = False  # BN+ELU on the decoder output layer

    def __post_init__(self):
        self.check(("dims", "channels", "window", "horizon", "hidden"))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    @property
    def kernel(self) -> int:
        # convolution kernel spans the window; drop to the next odd size
        return self.window if self.window % 2 == 1 else self.window - 1

    @property
    def nyquist(self) -> float:
        return 0.5 / self.dt

    @property
    def time_grid(self) -> np.ndarray:
        h = self.window
        return (np.arange(h) - (h - 1)) * self.dt


class FLDModel(BlockModel):
    """Encoder, FFT parameterization, sinusoidal latent reconstruction and
    decoder. PAE is this model trained with horizon 0.

    ``encoder`` and ``decoder`` are block lists (see :func:`blocks_forward`)
    of three Conv1d -> BatchNorm1d -> ELU blocks each, named
    ``enc.conv{i}``/``enc.bn{i}`` and ``dec.conv{i}``/``dec.bn{i}``; these
    convs feed batch norm and carry no bias. The decoder's output block
    ``dec.conv2`` is a bare conv with bias, unless ``final_activation``
    makes it a full block. The phase head (``phase.linear``, ``phase.bn``)
    sits between them. Parameters, and so the checkpoint array directory,
    come in that order: encoder, phase head, decoder.
    """

    def __init__(self, config: FLDConfig, rng: np.random.Generator):
        self.config = config
        c, d, h, hid, k = (config.channels, config.dims, config.window,
                           config.hidden, config.kernel)

        def block(part: str, i: int, n_in: int, n_out: int) -> tuple:
            return (Conv1d(n_in, n_out, k, rng, f"{part}.conv{i}", bias=False),
                    BatchNorm1d(n_out, f"{part}.bn{i}"), True)

        self.encoder = [block("enc", 0, d, hid), block("enc", 1, hid, hid),
                        block("enc", 2, hid, c)]
        self.phase_linear = PerChannelLinear(c, h, 2, rng, "phase.linear")
        self.phase_bn = BatchNorm1d(2 * c, "phase.bn")
        self.decoder = [block("dec", 0, c, hid), block("dec", 1, hid, hid),
                        block("dec", 2, hid, d) if config.final_activation
                        else (Conv1d(hid, d, k, rng, "dec.conv2"), None, False)]

    # -- bookkeeping ---------------------------------------------------

    def _blocks(self) -> list:
        # the phase head reshapes between its linear and its batch norm, so
        # it runs in phase(); as a block it serves the BlockModel walks only
        return [*self.encoder, (self.phase_linear, self.phase_bn, False), *self.decoder]

    def freeze(self) -> "FLDModel":
        """Fold each encoder and decoder batch norm into its conv
        (:func:`fold_batch_norm`), then freeze (:meth:`BlockModel.freeze`).
        Eval outputs equal the unfrozen model's to rounding (about 1e-15
        relative), not bitwise. Every inference entry point in ``fld`` runs
        the frozen model, which is forward-only: a train-mode analysis
        raises, since the phase head's batch norm, the one left, cannot
        update its running statistics; so do eval gradients
        (:meth:`propagation_loss`) and every optimizer step. ``state_arrays``
        then returns the folded arrays, not the checkpoint directory."""
        self.encoder = [fold_batch_norm(block) for block in self.encoder]
        self.decoder = [fold_batch_norm(block) for block in self.decoder]
        return super().freeze()

    # -- encoder / decoder ----------------------------------------------

    def encode(self, segments: np.ndarray, mode: str = "eval") -> tuple[np.ndarray, list]:
        x = np.asarray(segments, dtype=np.float64)
        if x.shape[1:] != (self.config.dims, self.config.window):
            raise ValueError(f"expected segments (batch, {self.config.dims}, "
                             f"{self.config.window}), got {x.shape}")
        z, caches = blocks_forward(self.encoder, x.T, elu, mode)
        return z.T, caches

    def encode_backward(self, grad_z: np.ndarray, caches: list) -> np.ndarray:
        return blocks_backward(self.encoder, grad_z.T, caches, elu_backward).T

    def decode(self, latent: np.ndarray, mode: str = "eval") -> tuple[np.ndarray, list]:
        shat, caches = blocks_forward(self.decoder, latent.T, elu, mode)
        return shat.T, caches

    def decode_backward(self, grad_out: np.ndarray, caches: list) -> np.ndarray:
        return blocks_backward(self.decoder, grad_out.T, caches, elu_backward).T

    # -- parameterization -------------------------------------------------

    def phase(self, z: np.ndarray, mode: str = "eval") -> tuple[np.ndarray, dict]:
        """Learned phase head: per-channel linear to a 2D shift, batch norm,
        then the two-argument phase in cycles."""
        out, c_lin = self.phase_linear.forward(z)
        batch, c, _ = out.shape
        normed, c_bn = self.phase_bn.forward(out.reshape(batch, 2 * c).T[None], mode)
        normed = normed[0].T.reshape(batch, c, 2)
        phi, c_at = atan2_phase(normed[..., 1], normed[..., 0])
        return phi, {"lin": c_lin, "bn": c_bn, "at": c_at, "shape": (batch, c)}

    def phase_backward(self, grad_phi: np.ndarray, cache: dict) -> np.ndarray:
        batch, c = cache["shape"]
        dsy, dsx = atan2_phase_backward(grad_phi, cache["at"])
        g = np.stack([dsx, dsy], axis=-1).reshape(batch, 2 * c)
        g = self.phase_bn.backward(g.T[None], cache["bn"])[0].T.reshape(batch, c, 2)
        return self.phase_linear.backward(g, cache["lin"])

    def spectrum_params(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """Frequency (Hz), amplitude and offset per latent channel.

        Zero-power channels (constant curves) get f = 0 by convention and
        carry no gradient through the frequency/amplitude path.
        """
        h, dt = self.config.window, self.config.dt
        re, im = rfft(z)
        offset = re[..., 0] / h
        power = re[..., 1:] ** 2 + im[..., 1:] ** 2
        total = power.sum(axis=-1)
        live = total > _POWER_FLOOR
        amp = (2.0 / h) * np.sqrt(total)
        bin_freq = np.arange(1, h // 2 + 1) / (h * dt)
        with np.errstate(invalid="ignore", divide="ignore"):
            freq = np.where(live, power @ bin_freq / np.where(live, total, 1.0), 0.0)
        freq = np.clip(freq, 0.0, self.config.nyquist)
        cache = {"re": re, "im": im, "power": power, "total": total, "live": live,
                 "freq": freq, "bin_freq": bin_freq}
        return freq, amp, offset, cache

    def spectrum_params_backward(self, grad_f: np.ndarray, grad_a: np.ndarray,
                                 grad_b: np.ndarray, cache: dict) -> np.ndarray:
        h = self.config.window
        re, im = cache["re"], cache["im"]
        total, live = cache["total"], cache["live"]
        safe_total = np.where(live, total, 1.0)

        # d amp / d power_j = (1/h) / sqrt(total); d freq / d power_j = (nu_j - f) / total
        d_power = np.where(live, grad_a / (h * np.sqrt(safe_total)), 0.0)[..., None]
        d_power = d_power + np.where(live, grad_f / safe_total, 0.0)[..., None] * (
            cache["bin_freq"] - cache["freq"][..., None])

        d_re = np.zeros_like(re)
        d_im = np.zeros_like(im)
        d_re[..., 1:] = d_power * 2.0 * re[..., 1:]
        d_im[..., 1:] = d_power * 2.0 * im[..., 1:]
        d_re[..., 0] = grad_b / h
        return rfft_backward(d_re, d_im, h)

    def parameterize(self, z: np.ndarray, mode: str = "eval"
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """(phi, f, a, b) of a latent segment batch."""
        phi, phase_cache = self.phase(z, mode)
        freq, amp, offset, spec_cache = self.spectrum_params(z)
        return phi, freq, amp, offset, {"phase": phase_cache, "spec": spec_cache}

    def parameterize_backward(self, grad_phi, grad_f, grad_a, grad_b, cache) -> np.ndarray:
        dz = self.phase_backward(grad_phi, cache["phase"])
        dz += self.spectrum_params_backward(grad_f, grad_a, grad_b, cache["spec"])
        return dz

    # -- sinusoidal reconstruction ----------------------------------------

    def reconstruct_latent(self, phi: np.ndarray, freq: np.ndarray, amp: np.ndarray,
                           offset: np.ndarray, steps: np.ndarray | list[int]
                           ) -> tuple[np.ndarray, dict]:
        """Latent curves a*sin(2*pi*(f*(T + i*dt) + phi)) + b for each step i
        in ``steps``, as (B, n_steps, c, H): a view of a time-major
        (H, c, B, n_steps) buffer, so :meth:`decode` reads it without a copy.
        The angle and its sine are computed in that order too, and cached so."""
        phi = np.atleast_2d(np.asarray(phi, dtype=np.float64)).T
        freq = np.atleast_2d(np.asarray(freq, dtype=np.float64)).T
        amp = np.atleast_2d(np.asarray(amp, dtype=np.float64)).T
        offset = np.atleast_2d(np.asarray(offset, dtype=np.float64)).T
        steps = np.asarray(steps, dtype=np.float64)
        tg = self.config.time_grid  # (H,)
        times = tg[None, :] + steps[:, None] * self.config.dt  # (n_steps, H)
        # i-step propagation enters as a phase advance phi + i*(f*dt), so a
        # one-step prediction is bitwise the same as advancing phi manually;
        # (c, B) parameters against (H,) and (n_steps,) axes
        advanced = phi[:, :, None] + steps * (freq * self.config.dt)[:, :, None]
        angle = 2.0 * np.pi * (freq[None, :, :, None] * tg[:, None, None, None]
                               + advanced[None])
        sin_a = np.sin(angle)
        zhat = np.multiply(amp[:, :, None], sin_a)
        zhat += offset[:, :, None]
        cache = {"sin": sin_a, "angle": angle, "amp": amp, "times": times}
        return zhat.transpose(2, 3, 1, 0), cache

    def reconstruct_latent_backward(self, grad_zhat: np.ndarray, cache: dict
                                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Returns (d_phi, d_freq, d_amp, d_offset), each (B, c). Reads
        ``grad_zhat`` (B, n_steps, c, H) in its time-major order, the one
        :meth:`decode_backward` returns."""
        sin_a, amp, times = cache["sin"], cache["amp"], cache["times"]
        grad = grad_zhat.transpose(3, 2, 0, 1)  # (H, c, B, n_steps)
        d_amp = np.einsum("kcbi,kcbi->cb", grad, sin_a)
        d_angle = np.cos(cache["angle"])
        d_angle *= grad
        d_angle *= amp[:, :, None]
        two_pi = 2.0 * np.pi
        d_phi = two_pi * d_angle.sum(axis=(0, 3))
        d_freq = two_pi * np.einsum("kcbi,ik->cb", d_angle, times)
        d_offset = grad.sum(axis=(0, 3))
        return d_phi.T, d_freq.T, d_amp.T, d_offset.T

    # -- analysis / synthesis maps ------------------------------------------

    def analyze(self, segments: np.ndarray, mode: str = "eval"
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Segments (B, d, H) to their parameterization:
        (phi, f, a, b, (encode cache, parameterize cache, mode)), each (B, c)."""
        z, enc_cache = self.encode(segments, mode)
        phi, freq, amp, offset, par_cache = self.parameterize(z, mode)
        return phi, freq, amp, offset, (enc_cache, par_cache, mode)

    def render(self, phi: np.ndarray, freq: np.ndarray, amp: np.ndarray,
               offset: np.ndarray, steps: np.ndarray | list[int], mode: str = "eval"
               ) -> tuple[np.ndarray, tuple]:
        """Decoded segments of a parameterization advanced by each step i in
        ``steps``: (shat (B, n_steps, d, H), (reconstruct cache, decode cache)).
        Accepts one (c,) parameterization as a batch of one."""
        zhat, rec_cache = self.reconstruct_latent(phi, freq, amp, offset, steps)
        batch, n_steps, c, h = zhat.shape
        shat, dec_cache = self.decode(zhat.reshape(batch * n_steps, c, h), mode)
        return shat.reshape(batch, n_steps, self.config.dims, h), (rec_cache, dec_cache)

    # -- prediction and loss ----------------------------------------------

    def predict(self, segments: np.ndarray, horizons: np.ndarray | list[int]) -> np.ndarray:
        """Decoded forward predictions for each step in ``horizons``, in eval
        mode. Returns (B, n_horizons, d, H); horizon 0 is the plain
        reconstruction."""
        horizons = np.asarray(horizons)
        if np.any(horizons < 0):
            raise ValueError("horizons must be >= 0")
        phi, f, a, b, _ = self.analyze(segments)
        return self.render(phi, f, a, b, horizons)[0]

    def propagation_loss(self, analysis: tuple, targets: np.ndarray,
                         want_grads: bool = False, alpha: float | None = None
                         ) -> tuple[float, np.ndarray]:
        """Propagation loss sum_i alpha^i * MSE(decoded i-step prediction,
        target i): ``analysis`` is what :meth:`analyze` returned, whose mode
        the decoder runs in, or its (phi, f, a, b) alone, which counts as
        eval; ``targets`` (B, N+1, d, H) holds each anchor's i-step future
        segment in slot i. ``alpha`` overrides the config's decay. Returns
        (total, per-horizon losses). ``want_grads`` also accumulates
        parameter gradients and consumes the caches in ``analysis`` (a cache
        feeds one backward); on an eval analysis it raises first."""
        phi, f, amp, off = analysis[:4]
        mode = analysis[4][2] if len(analysis) > 4 else "eval"
        if want_grads and mode != "train":
            raise ValueError(f"gradients need a train-mode analysis; {mode!r} is forward-only")
        batch, n_steps, d, h = targets.shape
        shat, (rec_cache, dec_cache) = self.render(phi, f, amp, off, np.arange(n_steps), mode)

        # time-major (H, d, B, N+1), like shat, which nothing reads after this
        diff = np.empty((h, d, batch, n_steps))
        np.subtract(shat.transpose(3, 2, 0, 1), targets.transpose(3, 2, 0, 1), out=diff)
        del shat
        per_horizon = np.mean(diff ** 2, axis=(0, 1, 2))
        weights = (self.config.alpha if alpha is None else alpha) ** np.arange(n_steps)
        total = float(weights @ per_horizon)

        if want_grads:
            enc_cache, par_cache, _ = analysis[4]
            grad_shat = diff  # built in place, in the order (scale * diff) * weights
            grad_shat *= 2.0 / (batch * d * h)
            grad_shat *= weights
            grad_zhat = self.decode_backward(grad_shat.reshape(h, d, -1).T, dec_cache)
            grad_zhat = grad_zhat.reshape(batch, n_steps, self.config.channels, h)
            d_phi, d_f, d_amp, d_off = self.reconstruct_latent_backward(grad_zhat, rec_cache)
            dz = self.parameterize_backward(d_phi, d_f, d_amp, d_off, par_cache)
            self.encode_backward(dz, enc_cache)
        return total, per_horizon

    def loss_and_grads(self, items: np.ndarray, mode: str = "train",
                       want_grads: bool = True, alpha: float | None = None,
                       horizon: int | None = None,
                       anchor: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """:meth:`propagation_loss` of items (B, N+1, d, H) anchored at their
        analysed slot 0, or at ``anchor``; ``alpha`` and ``horizon`` override
        the decay and the horizon (perfbench's oracle test checks them)."""
        items = np.asarray(items, dtype=np.float64)
        if items.ndim != 4:
            raise ValueError(f"expected items (batch, horizon+1, d, H), got {items.shape}")
        n = items.shape[1] - 1 if horizon is None else horizon
        if n + 1 > items.shape[1]:
            raise ValueError(f"horizon {n} exceeds the {items.shape[1] - 1} futures provided")
        analysis = self.analyze(items[:, 0] if anchor is None else anchor, mode)
        return self.propagation_loss(analysis, items[:, :n + 1], want_grads, alpha)

    @property
    def item_horizon(self) -> int:
        """Future segments per training item."""
        return self.config.horizon

    def train_loss(self, items: np.ndarray, rng: np.random.Generator
                   ) -> tuple[float, dict[str, np.ndarray]]:
        """One training step's loss and gradients, plus its logged extras."""
        total, per_horizon = self.loss_and_grads(items, mode="train")
        return total, {"per_horizon": per_horizon}


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass
class VAEConfig(ConfigDict):
    dims: int = 27
    window: int = 51
    latent: int = 8
    hidden: tuple[int, ...] = (512, 256, 128)
    beta: float = 1e-3
    dt: float = 0.02

    def __post_init__(self):
        self.check(("dims", "window", "latent", "hidden"))
        if not self.beta >= 0:
            raise ValueError("beta must be >= 0")


class VAEBaseline(BlockModel):
    """Flat variational autoencoder over flattened segments; ReLU MLPs with a
    softplus standard-deviation head. ``train_loss`` samples the latent from
    its rng and reports mse and kl; the loss is mse + beta * kl. It has no
    eval path: ``forward`` always samples, and nothing predicts with it."""

    def __init__(self, config: VAEConfig, rng: np.random.Generator):
        self.config = config
        sizes = [config.dims * config.window, *config.hidden]
        self.encoder = mlp_blocks(sizes, rng, "vae.enc", True)
        self.mean_head = Linear(sizes[-1], config.latent, rng, "vae.mean")
        self.std_head = Linear(sizes[-1], config.latent, rng, "vae.std")
        self.decoder = mlp_blocks([config.latent, *reversed(sizes)], rng, "vae.dec", False)

    def _blocks(self) -> list:
        return [*self.encoder, (self.mean_head, None, False), (self.std_head, None, False),
                *self.decoder]

    def forward(self, segments: np.ndarray, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """Returns (reconstruction, mean, std, cache), decoding a latent
        sampled from ``rng``."""
        x = np.asarray(segments, dtype=np.float64)
        h, enc_caches = blocks_forward(self.encoder, x.reshape(x.shape[0], -1), relu)
        mean, c_mean = self.mean_head.forward(h)
        pre_std, c_stdlin = self.std_head.forward(h)
        std, c_soft = softplus(pre_std)
        noise = rng.standard_normal(mean.shape)
        out, dec_caches = blocks_forward(self.decoder, mean + std * noise, relu)
        recon = out.reshape(x.shape)
        cache = {"enc": enc_caches, "mean": c_mean, "stdlin": c_stdlin,
                 "soft": c_soft, "dec": dec_caches, "noise": noise, "x": x}
        return recon, mean, std, cache

    item_horizon = 0  # training items carry the segment alone

    def train_loss(self, items: np.ndarray, rng: np.random.Generator
                   ) -> tuple[float, dict[str, float]]:
        recon, mean, std, cache = self.forward(items[:, 0], rng)
        x = cache["x"]
        batch = x.shape[0]
        diff = recon - x
        mse = float(np.mean(diff ** 2))
        # KL(N(mu, sigma) || N(0, 1)) summed over latent dims, averaged over batch
        kl = float(np.mean(np.sum(0.5 * (mean ** 2 + std ** 2 - 1.0)
                                  - np.log(std), axis=1)))
        total = mse + self.config.beta * kl
        g = (2.0 / diff.size) * diff
        g = blocks_backward(self.decoder, g.reshape(batch, -1), cache["dec"], relu_backward)
        d_mean = g + self.config.beta / batch * mean
        d_std = g * cache["noise"] + self.config.beta / batch * (std - 1.0 / std)
        d_pre = softplus_backward(d_std, cache["soft"])
        gh = self.mean_head.backward(d_mean, cache["mean"])
        gh += self.std_head.backward(d_pre, cache["stdlin"])
        blocks_backward(self.encoder, gh, cache["enc"], relu_backward)
        return total, {"mse": mse, "kl": kl}


@dataclass
class FFConfig(ConfigDict):
    dims: int = 27
    window: int = 51
    hidden: tuple[int, ...] = (512, 512)
    dt: float = 0.02

    def __post_init__(self):
        self.check(("dims", "window", "hidden"))


class FFBaseline(BlockModel):
    """One-step segment predictor: flattened segment in, next segment out,
    ELU MLP. Multi-step prediction is autoregressive composition.
    ``train_loss`` is the one-step mean squared error; its rng is unused."""

    def __init__(self, config: FFConfig, rng: np.random.Generator):
        self.config = config
        n = config.dims * config.window
        self.blocks = mlp_blocks([n, *config.hidden, n], rng, "ff.lin", False)

    def _blocks(self) -> list:
        return self.blocks

    def forward(self, segments: np.ndarray) -> tuple[np.ndarray, list]:
        x = np.asarray(segments, dtype=np.float64)
        out, caches = blocks_forward(self.blocks, x.reshape(x.shape[0], -1), elu)
        return out.reshape(x.shape), caches

    def predict(self, segments: np.ndarray, horizons: np.ndarray | list[int]) -> np.ndarray:
        """Composed one-step predictions for each step in ``horizons``.

        Returns (B, n_horizons, d, H); horizon 0 is the input itself.
        """
        horizons = np.asarray(horizons)
        if np.any(horizons < 0):
            raise ValueError("horizons must be >= 0")
        current = np.asarray(segments, dtype=np.float64)
        out = np.empty((current.shape[0], horizons.size) + current.shape[1:])
        for step in range(int(horizons.max()) + 1):
            if step:
                current, _ = self.forward(current)
            out[:, horizons == step] = current[:, None]
        return out

    item_horizon = 1  # training items carry the segment and its successor

    def train_loss(self, items: np.ndarray, rng: np.random.Generator
                   ) -> tuple[float, dict]:
        pred, caches = self.forward(items[:, 0])
        diff = pred - items[:, 1]
        g = (2.0 / diff.size) * diff.reshape(diff.shape[0], -1)
        blocks_backward(self.blocks, g, caches, elu_backward)
        return float(np.mean(diff ** 2)), {}
