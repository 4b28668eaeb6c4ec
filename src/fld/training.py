"""Training loops for the representation models and the evaluation suite
(prediction-error curves, latent manifold export, quasi-constancy report).

One training iteration samples a pool of mini_batches * batch_size items
and runs ``epochs`` passes of ``mini_batches`` optimizer steps over it; the
loss history records the per-iteration mean. PAE is FLD with the horizon
forced to zero and shares the code and RNG stream, so the two are
bit-identical when FLD is configured with horizon 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import (
    MODEL_KINDS,
    ModelCheckpoint,
    build_fld_model,
    build_model,
    checkpoint_from_model,
)
from .model import FLDModel, as_int
from .numerics import Adam
from .signals import (
    EVAL_GROUPS_27,
    ItemPool,
    NormalizationStats,
    Trajectory,
    check_corpus,
    fit_normalization,
)
from .stats import pca_project_2d

_PREDICT_CHUNK = 64   # anchors per model.predict call
_ANALYZE_CHUNK = 256  # segments per model.analyze call


@dataclass
class TrainConfig:
    max_iterations: int = 5000
    lr: float = 1e-4
    weight_decay: float = 5e-4
    epochs: int = 5
    mini_batches: int = 10
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iterations", "epochs", "mini_batches", "batch_size"):
            setattr(self, name, as_int(name, getattr(self, name), 1))
        self.seed = as_int("seed", self.seed, 0)
        if not 0.0 < self.lr < np.inf:  # NaN fails too
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainResult:
    checkpoint: ModelCheckpoint
    history: dict[str, np.ndarray]


def train(model_kind: str, corpus: list[Trajectory], train_config: TrainConfig,
          model_config=None, normalization: NormalizationStats | None = None
          ) -> TrainResult:
    """Train one model kind on a corpus; deterministic given the seed.

    Returns the checkpoint plus a loss history with one row per iteration:
    "loss", and the per-iteration mean of every extra the model's
    ``train_loss`` reports ("per_horizon" for fld and pae, none for ff).
    Every trajectory must have the model config's dims and dt
    (:func:`~fld.signals.check_corpus`); without a config, the first
    trajectory's; a given ``normalization`` must have its dims, checked
    before the first step (:meth:`~fld.signals.NormalizationStats.check_dims`).
    """
    if not corpus:
        raise ValueError("empty corpus")
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    config_cls, model_cls = MODEL_KINDS[model_kind]
    if model_config is None:
        model_config = config_cls(dims=corpus[0].dims, dt=corpus[0].dt)
    check_corpus(corpus, model_config.dims, model_config.dt, "model config")

    if model_kind == "pae":
        model_config = replace(model_config, horizon=0)

    rng = np.random.default_rng(train_config.seed)
    stats = normalization if normalization is not None else fit_normalization(corpus)
    stats.check_dims(model_config.dims)
    frames = [stats.apply(t.frames) for t in corpus]
    model = model_cls(model_config, rng)
    pool = ItemPool(frames, model_config.window, model.item_horizon)

    opt = Adam(model.parameters(), lr=train_config.lr,
               weight_decay=train_config.weight_decay)
    pool_size = train_config.mini_batches * train_config.batch_size

    losses = []
    extras: dict[str, list] = {}
    for iteration in range(train_config.max_iterations):
        pool_ids = rng.choice(len(pool), size=pool_size, replace=len(pool) < pool_size)
        iter_losses = []
        iter_extras: dict[str, list] = {}
        for _ in range(train_config.epochs):
            order = rng.permutation(pool_size)
            for chunk in np.array_split(order, train_config.mini_batches):
                items = pool.gather(pool_ids[chunk])
                opt.zero_grad()
                try:  # a non-finite loss, gradient or step
                    total, step_extras = model.train_loss(items)
                    if not np.isfinite(total):
                        raise FloatingPointError(f"loss {total}")
                    opt.step()
                except FloatingPointError as exc:
                    raise RuntimeError(
                        f"{model_kind} training diverged at iteration {iteration}: "
                        f"{exc}; lower the learning rate") from exc
                iter_losses.append(total)
                for key, val in step_extras.items():
                    iter_extras.setdefault(key, []).append(val)
        losses.append(float(np.mean(iter_losses)))
        for key, vals in iter_extras.items():
            extras.setdefault(key, []).append(np.mean(vals, axis=0))

    history = {"loss": np.array(losses)}
    for key, vals in extras.items():
        history[key] = np.array(vals)
    ckpt = checkpoint_from_model(model, model_kind, stats,
                                 seed=train_config.seed,
                                 iteration=train_config.max_iterations)
    return TrainResult(checkpoint=ckpt, history=history)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def relative_error(pred: np.ndarray, target: np.ndarray,
                   rows: slice | None = None) -> np.ndarray:
    """||pred - target||_F / (||target||_F + 1e-8) over the trailing two axes,
    optionally restricted to a row range (dimension group)."""
    if rows is not None:
        pred = pred[..., rows, :]
        target = target[..., rows, :]
    num = np.sqrt(np.sum((pred - target) ** 2, axis=(-2, -1)))
    den = np.sqrt(np.sum(target ** 2, axis=(-2, -1)))
    return num / (den + 1e-8)


@dataclass
class EvaluationReport:
    horizons: np.ndarray
    errors: dict[str, np.ndarray]                      # model -> (n_horizons,)
    group_errors: dict[str, dict[str, np.ndarray]]     # model -> group -> (n_horizons,)
    anchor_count: dict[str, int] = field(default_factory=dict)  # model -> anchors
    definition: str = ("relative error: Frobenius norm of (prediction - target) "
                       "over (target norm + 1e-8), segments in normalized space, "
                       "averaged over anchors")


def evaluate_prediction(checkpoints: dict[str, ModelCheckpoint],
                        trajectory: Trajectory, horizons,
                        anchor_stride: int = 5) -> EvaluationReport:
    """Per-horizon relative prediction error for each checkpoint on one
    held-out trajectory. Anchors are subsampled every ``anchor_stride``
    frames; predictions and targets are compared in normalized space. Every
    model runs frozen (:meth:`~fld.model.BlockModel.freeze`), as every entry
    point does. Group errors use ``EVAL_GROUPS_27`` for 27-dim models, none otherwise."""
    horizons = np.asarray(sorted(int(h) for h in horizons))
    if horizons.size == 0 or horizons[0] < 0:
        raise ValueError("need at least one non-negative horizon")
    max_h = int(horizons[-1])
    errors: dict[str, np.ndarray] = {}
    group_errors: dict[str, dict[str, np.ndarray]] = {}
    anchor_count: dict[str, int] = {}
    for name, ckpt in checkpoints.items():
        model = build_model(ckpt).freeze()
        grp = EVAL_GROUPS_27 if model.config.dims == 27 else {}
        pool = ItemPool(ckpt.normalized_frames([trajectory]), model.config.window, max_h)
        first = pool.anchors[pool.strided(anchor_stride), 1]
        view = pool.views[0]
        anchor_count[name] = len(first)
        acc = np.zeros(horizons.size)
        acc_group = {g: np.zeros(horizons.size) for g in grp}
        for start in range(0, len(first), _PREDICT_CHUNK):
            wi = first[start:start + _PREDICT_CHUNK]
            targets = view[wi[:, None] + horizons[None, :]]  # (b, n_h, d, H)
            preds = model.predict(view[wi], horizons)
            acc += relative_error(preds, targets).sum(axis=0)
            for g, (lo, hi) in grp.items():
                acc_group[g] += relative_error(preds, targets, rows=slice(lo, hi)).sum(axis=0)
        errors[name] = acc / len(first)
        group_errors[name] = {g: v / len(first) for g, v in acc_group.items()}
    return EvaluationReport(horizons=horizons, errors=errors,
                            group_errors=group_errors, anchor_count=anchor_count)


def _strided_params(model: FLDModel, frames_list: list[np.ndarray], anchor_stride: int
                    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Every ``anchor_stride``-th segment of a normalized corpus: its corpus
    index (n,), its newest frame (n,) and its (phi, f, a, b), each (n, c)."""
    window = model.config.window
    pool = ItemPool(frames_list, window, 0)
    ids = pool.strided(anchor_stride)
    chunks = [model.analyze(pool.gather(ids[start:start + _ANALYZE_CHUNK])[:, 0])[:4]
              for start in range(0, len(ids), _ANALYZE_CHUNK)]
    vi, first = pool.anchors[ids].T
    return (np.asarray(pool.trajectories)[vi], first + window - 1,
            tuple(np.concatenate(part, axis=0) for part in zip(*chunks)))


@dataclass
class ManifoldPoint:
    x: float
    y: float
    trajectory: int
    label: str
    frame: int


def export_latent_manifold(checkpoint: ModelCheckpoint, corpus: list[Trajectory],
                           anchor_stride: int = 1) -> list[ManifoldPoint]:
    """2D PCA of the per-frame phase features
    concat_c (a_c sin(2 pi phi_c), a_c cos(2 pi phi_c)) over every windowable
    frame of the corpus; each point is labelled with its segment's newest frame."""
    model = build_fld_model(checkpoint, "latent manifold export")
    traj, frame, (phi, _, amp, _) = _strided_params(
        model, checkpoint.normalized_frames(corpus), anchor_stride)
    if len(traj) < 3:
        raise ValueError("need at least 3 windowable frames for a manifold export")
    feats = np.stack([amp * np.sin(2 * np.pi * phi), amp * np.cos(2 * np.pi * phi)], axis=-1)
    projected, _ = pca_project_2d(feats.reshape(len(phi), -1))
    return [ManifoldPoint(float(p[0]), float(p[1]), int(ti),
                          corpus[ti].label or f"trajectory-{ti}", int(fi))
            for p, ti, fi in zip(projected, traj, frame)]


@dataclass
class QuasiConstancyReport:
    # per (component, channel): mean over trajectories of within-trajectory std,
    # the across-corpus std, and their ratio
    within: dict[str, np.ndarray]
    across: dict[str, np.ndarray]
    ratio: dict[str, np.ndarray]
    mean_ratio: float
    skipped_channels: dict[str, list[int]] = field(default_factory=dict)


def quasi_constancy_report(checkpoint: ModelCheckpoint, corpus: list[Trajectory],
                           anchor_stride: int = 1) -> QuasiConstancyReport:
    """How constant the latent parameterization stays along trajectories,
    relative to its spread across the corpus. Lower is more constant."""
    model = build_fld_model(checkpoint, "quasi-constancy")
    traj, _, (_, f, a, b) = _strided_params(
        model, checkpoint.normalized_frames(corpus), anchor_stride)
    groups = [traj == ti for ti in np.unique(traj)]
    if len(groups) < 2:
        raise ValueError("need at least two windowable trajectories")
    within, across, ratio, skipped = {}, {}, {}, {}
    ratios_all = []
    for key, theta in zip("fab", (f, a, b)):
        within[key] = np.mean([theta[g].std(axis=0) for g in groups], axis=0)
        # spread of the per-trajectory mean parameterizations across the corpus
        across[key] = np.std([theta[g].mean(axis=0) for g in groups], axis=0)
        live = across[key] > 1e-12
        skipped[key] = list(np.flatnonzero(~live))
        ratio[key] = np.where(live, within[key] / np.where(live, across[key], 1.0), np.nan)
        ratios_all.append(ratio[key][live])
    kept = np.concatenate(ratios_all)
    if kept.size == 0:
        raise ValueError("across-corpus spread of the parameterization is zero "
                         "on every channel (identical trajectories?)")
    return QuasiConstancyReport(within=within, across=across, ratio=ratio,
                                mean_ratio=float(kept.mean()), skipped_channels=skipped)
