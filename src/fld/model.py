"""The FLD model: a periodic convolutional autoencoder whose latent curves
are parameterized in the frequency domain, plus the propagation loss that
makes the parameterization quasi-constant, and the feed-forward comparison
baseline, whose MLP :func:`mlp_blocks` builds. PAE is FLD trained with
horizon 0. Every model is a :class:`BlockModel`, whose parameters, state
arrays and freezing follow from its block lists, and trains through one
entry, ``train_loss(items)``, which accumulates the step's gradients and
returns (loss, extras).

Conventions
-----------
* A model's state selects its forward pass, and no call takes a mode: an
  unfrozen model trains its batch norms, and a frozen one
  (:meth:`BlockModel.freeze`) has them folded away and infers.
* A frozen model's render of more than 2c+1 steps runs decoder block 0 on
  the 2c+1 sinusoid basis columns of each anchor (:meth:`FLDModel.render`),
  and agrees with reconstructing and decoding every step to rounding. Every
  other render reconstructs, then decodes, so training, one-step renders
  and renders of at most 2c+1 steps are bitwise what that path gives.
* A segment is (d, H) with columns oldest to newest; batches are (B, d, H).
  The encoder and decoder run time-major, on (H, C, B), the transpose
  ``.T`` of a segment batch: ``encode``, ``decode`` and their backwards take
  and return (B, C, H) views and flip the layout once at that boundary.
  The phase head reads the encoder's (H, c, B) output, and its per-channel
  linear writes the (1, 2c, B) layout its batch norm takes.
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

import copy
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
    ensure_finite,
    immutable,
    rfft,
    rfft_backward,
)

_POWER_FLOOR = 1e-12


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap phase (cycles) into [-0.5, 0.5)."""
    return np.mod(np.asarray(phi, dtype=np.float64) + 0.5, 1.0) - 0.5


# Every network here is a list of (layer, batch norm or None, activated)
# blocks, and every activation is ELU. Blocks without batch norm call this
# module's ``elu`` and ``elu_backward`` globals when they run, never a stored
# reference (the traced benchmark swaps in wrappers).


def blocks_forward(blocks: list, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run each block's layer, then its batch norm if any (which trains, and
    only an unfrozen model has), then ELU if activated. Batch norm in an
    activated block applies ELU itself, in the same slab sweep
    (:meth:`~fld.numerics.layers.BatchNorm1d.forward`), so :func:`elu` runs
    only in activated blocks without batch norm: a frozen model's folded
    blocks and the MLP. Returns (output, one (layer cache, batch-norm or
    activation cache) pair per block). A block with batch norm caches the
    layer's input (spectrum) and batch norm's x_hat and std only."""
    caches = []
    for layer, bn, activated in blocks:
        x, c_layer = layer.forward(x)
        c_post = None
        if bn is not None:
            x, c_post = bn.forward(x, activated)
        elif activated:
            x, c_post = elu(x)
        caches.append((c_layer, c_post))
    return x, caches


def blocks_backward(blocks: list, g: np.ndarray, caches: list) -> np.ndarray:
    """Gradient with respect to the input of :func:`blocks_forward`;
    accumulates every block's parameter gradients. A block's batch norm
    takes ELU's derivative itself, and :func:`elu_backward` runs in
    activated blocks without one. Consumes ``caches``, as each cache feeds
    exactly one backward: it pops each block's pair, last block first, and
    drops the batch-norm or activation cache once its backward has run, so
    the list ends empty and that cache is freed before the layer's backward."""
    if len(caches) < len(blocks):
        raise ValueError(f"{len(caches)} caches for {len(blocks)} blocks; "
                         "a cache list feeds one backward")
    for layer, bn, activated in reversed(blocks):
        c_layer, c_post = caches.pop()
        if bn is not None:
            g = bn.backward(g, c_post)
        elif activated:
            g = elu_backward(g, c_post)
        c_post = None
        g = layer.backward(g, c_layer)
    return g


def fold_batch_norm(block: tuple) -> tuple:
    """A (layer, batch norm, activated) block as (layer with bias, None,
    activated): each row of ``weight.reshape(len(s), -1)``, one per output
    channel of a conv or the phase head, scaled by the scale s of batch norm's
    running statistics, and the bias (0 if none) times s plus their shift
    (``eval_affine``). Agrees with the unfolded block to rounding, not bitwise.
    Returns a block without batch norm as it is."""
    layer, bn, activated = block
    if bn is None:
        return block
    scale, shift = bn.eval_affine()
    weight = layer.weight.value
    layer.weight.value = (weight.reshape(len(scale), -1) * scale[:, None]).reshape(weight.shape)
    if layer.bias is None:
        layer.bias = Parameter(f"{layer.name}.bias", shift)
    else:
        layer.bias.value = layer.bias.value * scale + shift
    return layer, None, activated


def mlp_blocks(sizes: list[int], rng: np.random.Generator, prefix: str) -> list:
    """Blocks of ``Linear`` layers sizes[i] -> sizes[i + 1] named ``{prefix}{i}``,
    drawn from ``rng`` in order; all activated but the last."""
    n = len(sizes) - 1
    return [(Linear(sizes[i], sizes[i + 1], rng, f"{prefix}{i}"), None, i < n - 1)
            for i in range(n)]


class BlockModel:
    """A model whose ``_networks()``, block lists (:func:`blocks_forward`),
    hold all its parameters, in checkpoint order; its parameter list, state
    arrays and freezing follow from them."""

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has run: the weights are read-only."""
        return not any(p.value.flags.writeable for p in self.parameters())

    def _blocks(self) -> list:
        return [block for network in self._networks() for block in network]

    def parameters(self) -> list[Parameter]:
        """Each block's layer parameters, then its batch norm's."""
        return [p for layer, bn, _ in self._blocks()
                for part in (layer, bn) if part is not None for p in part.parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The parameter values, then every batch norm's running statistics, by name."""
        arrays = {p.name: p.value for p in self.parameters()}
        for bn in [bn for _, bn, _ in self._blocks() if bn is not None]:
            arrays.update(bn.state_arrays())
        return arrays

    def freeze(self):
        """Fold every batch norm into the layer before it (:func:`fold_batch_norm`),
        then make each parameter's value and gradient immutable
        (:func:`~fld.numerics.layers.immutable`), in place; return the model.
        Its outputs equal the unfolded blocks' to rounding (about 1e-15
        relative). A backward raises "read-only" at its first gradient
        update, before any accumulates, and so does an optimizer step.
        Every inference entry point in ``fld`` runs a frozen model."""
        for network in self._networks():
            network[:] = [fold_batch_norm(block) for block in network]
        for p in self.parameters():
            p.value, p.grad = immutable(p.value), immutable(p.grad)
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
        horizon 0, any other 1), and 0 < dt < inf. Stores the sizes as plain ints."""
        for name in sizes:
            value, floor = getattr(self, name), {"window": 2, "horizon": 0}.get(name, 1)
            if isinstance(value, (tuple, list)):
                setattr(self, name, tuple(as_int(name, v, floor) for v in value))
            else:
                setattr(self, name, as_int(name, value, floor))
        if not 0 < self.dt < np.inf:  # NaN fails too
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")

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

    ``encoder``, ``phase_head`` and ``decoder`` are block lists (see
    :func:`blocks_forward`). The encoder and decoder hold three Conv1d ->
    BatchNorm1d -> ELU blocks each, named ``enc.conv{i}``/``enc.bn{i}`` and
    ``dec.conv{i}``/``dec.bn{i}``; these convs carry no bias. The decoder's
    output block ``dec.conv2`` is a bare conv with bias, unless
    ``final_activation`` makes it a full block. The phase head is one
    PerChannelLinear -> BatchNorm1d block without ELU (``phase.linear``,
    ``phase.bn``). Parameters, and so the checkpoint array directory, come
    in that order: encoder, phase head, decoder.
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
        self.phase_head = [(PerChannelLinear(c, h, 2, rng, "phase.linear"),
                            BatchNorm1d(2 * c, "phase.bn"), False)]
        self.decoder = [block("dec", 0, c, hid), block("dec", 1, hid, hid),
                        block("dec", 2, hid, d) if config.final_activation
                        else (Conv1d(hid, d, k, rng, "dec.conv2"), None, False)]

    def _networks(self) -> tuple[list, ...]:
        return self.encoder, self.phase_head, self.decoder

    # -- encoder / decoder ----------------------------------------------

    def encode(self, segments: np.ndarray) -> tuple[np.ndarray, list]:
        x = np.asarray(segments, dtype=np.float64)
        if x.shape[1:] != (self.config.dims, self.config.window):
            raise ValueError(f"expected segments (batch, {self.config.dims}, "
                             f"{self.config.window}), got {x.shape}")
        z, caches = blocks_forward(self.encoder, x.T)
        return z.T, caches

    def encode_backward(self, grad_z: np.ndarray, caches: list) -> np.ndarray:
        return blocks_backward(self.encoder, grad_z.T, caches).T

    def decode(self, latent: np.ndarray) -> tuple[np.ndarray, list]:
        shat, caches = blocks_forward(self.decoder, latent.T)
        return shat.T, caches

    def decode_backward(self, grad_out: np.ndarray, caches: list) -> np.ndarray:
        return blocks_backward(self.decoder, grad_out.T, caches).T

    # -- parameterization -------------------------------------------------

    def phase(self, z: np.ndarray) -> tuple[np.ndarray, dict]:
        """Learned phase head: the ``phase_head`` block's 2D shift (sx, sy)
        per channel, then the two-argument phase in cycles."""
        shift, caches = blocks_forward(self.phase_head, z.T)
        shift = shift.reshape(self.config.channels, 2, -1)  # (c, (sx, sy), B)
        phi, c_at = atan2_phase(shift[:, 1].T, shift[:, 0].T)
        return phi, {"blocks": caches, "at": c_at}

    def phase_backward(self, grad_phi: np.ndarray, cache: dict) -> np.ndarray:
        dsy, dsx = atan2_phase_backward(grad_phi, cache["at"])
        g = np.stack([dsx.T, dsy.T], axis=1).reshape(1, -1, len(grad_phi))
        return blocks_backward(self.phase_head, g, cache["blocks"]).T

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

    def parameterize(self, z: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """(phi, f, a, b) of a latent segment batch."""
        phi, phase_cache = self.phase(z)
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

    def analyze(self, segments: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Segments (B, d, H) to their parameterization:
        (phi, f, a, b, (encode cache, parameterize cache)), each (B, c). On an
        unfrozen model this is a training forward, which moves the running
        statistics of every batch norm."""
        z, enc_cache = self.encode(segments)
        phi, freq, amp, offset, par_cache = self.parameterize(z)
        return phi, freq, amp, offset, (enc_cache, par_cache)

    def render(self, phi: np.ndarray, freq: np.ndarray, amp: np.ndarray,
               offset: np.ndarray, steps: np.ndarray | list[int]
               ) -> tuple[np.ndarray, tuple]:
        """Decoded segments of a parameterization advanced by each step i in
        ``steps``: (shat (B, n_steps, d, H), (reconstruct cache, decode cache)).
        Accepts one (c,) parameterization as a batch of one.

        A frozen model rendering more than 2c+1 steps runs decoder block 0 on
        the sinusoid basis, which block 0's conv, linear up to its bias, maps
        term by term: a*sin(w + theta_i) + b = cos(theta_i) a*sin(w) +
        sin(theta_i) a*cos(w) + b, with w = 2*pi*f*T and theta_i =
        2*pi*(phi + i*(f*dt)), the phase advance of :meth:`reconstruct_latent`.
        The conv's products run on each anchor's 2c+1 basis columns, one
        matmul per anchor combines them into its n_steps inputs to block 0's
        bias and ELU, and the later blocks run as :meth:`decode` runs them.
        That agrees with reconstructing and decoding to rounding (about 1e-15
        relative), and returns no reconstruct cache and no block-0 cache,
        which only a backward reads. Unfrozen renders, and renders of at most
        2c+1 steps, reconstruct, then decode."""
        c = self.config.channels
        if not (self.frozen and len(steps) > 2 * c + 1):
            zhat, rec_cache = self.reconstruct_latent(phi, freq, amp, offset, steps)
            batch, n_steps, c, h = zhat.shape
            shat, dec_cache = self.decode(zhat.reshape(batch * n_steps, c, h))
            return shat.reshape(batch, n_steps, self.config.dims, h), (rec_cache, dec_cache)
        phi, freq, amp, offset = (np.atleast_2d(np.asarray(v, dtype=np.float64))
                                  for v in (phi, freq, amp, offset))  # (B, c)
        batch, n_steps, h, k = len(freq), len(steps), self.config.window, 2 * c + 1
        # the basis columns of anchor b, (H, c) each, as (H, c, B, 2c+1)
        wave = 2.0 * np.pi * (freq.T[:, None, :] * self.config.time_grid[:, None])  # (c, H, B)
        basis = np.zeros((h, c, batch, k))
        channel = np.arange(c)
        basis[:, channel, :, channel] = amp.T[:, None, :] * np.sin(wave)
        basis[:, channel, :, c + channel] = amp.T[:, None, :] * np.cos(wave)
        basis[:, :, :, 2 * c] = offset.T
        theta = 2.0 * np.pi * (phi[:, :, None] + np.asarray(steps, dtype=np.float64)
                               * (freq * self.config.dt)[:, :, None])  # (B, c, n_steps)
        coeff = np.ones((batch, k, n_steps))
        np.cos(theta, out=coeff[:, :c])
        np.sin(theta, out=coeff[:, c:2 * c])
        conv = self.decoder[0][0]
        products = conv.products(basis.reshape(h, c, batch * k))[0]
        products = products.reshape(h * conv.out_channels, batch, k)
        # block 0's input, time-major (H, O, B n_steps) with segments anchor-major
        x = np.empty((h * conv.out_channels, batch, n_steps))
        np.matmul(products.transpose(1, 0, 2), coeff, out=x.transpose(1, 0, 2))
        x = x.reshape(h, conv.out_channels, batch * n_steps)
        x += conv.bias.value[:, None]
        x, _ = elu(ensure_finite(x, "conv1d output"))
        shat, dec_cache = blocks_forward(self.decoder[1:], x)
        return (shat.T.reshape(batch, n_steps, self.config.dims, h),
                (None, [(None, None)] + dec_cache))

    # -- prediction and loss ----------------------------------------------

    def predict(self, segments: np.ndarray, horizons: np.ndarray | list[int]) -> np.ndarray:
        """A frozen model's decoded predictions for each step in ``horizons``,
        (B, n_horizons, d, H); horizon 0 is the plain reconstruction. More
        than 2c+1 horizons render on the sinusoid basis (:meth:`render`), so
        they agree with the same horizons predicted a few at a time to
        rounding, not bitwise."""
        if not self.frozen:
            raise ValueError("predict runs on a frozen model; call freeze() first")
        horizons = np.asarray(horizons)
        if np.any(horizons < 0):
            raise ValueError("horizons must be >= 0")
        phi, f, a, b, _ = self.analyze(segments)
        return self.render(phi, f, a, b, horizons)[0]

    def propagation_loss(self, analysis: tuple, targets: np.ndarray,
                         want_grads: bool = False, alpha: float | None = None
                         ) -> tuple[float, np.ndarray]:
        """Propagation loss sum_i alpha^i * MSE(decoded i-step prediction,
        target i): ``analysis`` is what :meth:`analyze` returned, or its
        (phi, f, a, b) alone; ``targets`` (B, N+1, d, H) holds each anchor's
        i-step future segment in slot i. ``alpha`` overrides the config's
        decay. Returns (total, per-horizon losses). ``want_grads`` also
        accumulates parameter gradients and consumes the caches in
        ``analysis`` (a cache feeds one backward); without caches it raises
        first, and a frozen model raises "read-only" at the first update."""
        phi, f, amp, off = analysis[:4]
        if want_grads and len(analysis) < 5:
            raise ValueError("(phi, f, a, b) alone is forward-only; gradients need caches")
        batch, n_steps, d, h = targets.shape
        shat, (rec_cache, dec_cache) = self.render(phi, f, amp, off, np.arange(n_steps))

        # time-major (H, d, B, N+1), like shat, which nothing reads after this
        diff = np.empty((h, d, batch, n_steps))
        np.subtract(shat.transpose(3, 2, 0, 1), targets.transpose(3, 2, 0, 1), out=diff)
        del shat
        per_horizon = np.mean(diff ** 2, axis=(0, 1, 2))
        weights = (self.config.alpha if alpha is None else alpha) ** np.arange(n_steps)
        total = float(weights @ per_horizon)

        if want_grads:
            enc_cache, par_cache = analysis[4]
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
        the decay and the horizon. ``mode`` stays only because perfbench
        passes it: "train" runs this model, "eval" it frozen or a frozen copy,
        so the caller's arrays and gradients never move."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        items = np.asarray(items, dtype=np.float64)
        if items.ndim != 4:
            raise ValueError(f"expected items (batch, horizon+1, d, H), got {items.shape}")
        n = items.shape[1] - 1 if horizon is None else horizon
        if n + 1 > items.shape[1]:
            raise ValueError(f"horizon {n} exceeds the {items.shape[1] - 1} futures provided")
        model = self if mode == "train" or self.frozen else copy.deepcopy(self).freeze()
        analysis = model.analyze(items[:, 0] if anchor is None else anchor)
        return model.propagation_loss(analysis, items[:, :n + 1], want_grads, alpha)

    @property
    def item_horizon(self) -> int:
        """Future segments per training item."""
        return self.config.horizon

    def train_loss(self, items: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """One training step's loss and gradients, plus its logged extras."""
        total, per_horizon = self.loss_and_grads(items, mode="train")
        return total, {"per_horizon": per_horizon}


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


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
    ``train_loss`` is the one-step mean squared error."""

    def __init__(self, config: FFConfig, rng: np.random.Generator):
        self.config = config
        n = config.dims * config.window
        self.blocks = mlp_blocks([n, *config.hidden, n], rng, "ff.lin")

    def _networks(self) -> tuple[list, ...]:
        return (self.blocks,)

    def forward(self, segments: np.ndarray) -> tuple[np.ndarray, list]:
        x = np.asarray(segments, dtype=np.float64)
        out, caches = blocks_forward(self.blocks, x.reshape(x.shape[0], -1))
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

    def train_loss(self, items: np.ndarray) -> tuple[float, dict]:
        pred, caches = self.forward(items[:, 0])
        diff = pred - items[:, 1]
        g = (2.0 / diff.size) * diff.reshape(diff.shape[0], -1)
        blocks_backward(self.blocks, g, caches)
        return float(np.mean(diff ** 2)), {}
