"""The three workloads. Each has a set-up that ends with a warm-up op, a
round of timed ops that every run repeats whole, and checks of the
program's outputs against computations made here (``oracle``, own
normalization and windowing, own quantile and hash), never against a
stored copy of earlier output.

The program is called through its module attributes (``training.train``,
not a name imported from it), so the traced run's wrappers see the calls
the benchmark makes as well as the ones inside the program."""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path
from time import process_time

import fld.checkpoint as ckpt_io
import fld.dynamics as dynamics
import fld.signals as signals
import fld.training as training
import numpy as np
from fld.model import FLDConfig

import oracle
from inputs import (CALIB_QUANTILE, GATE_QUANTILE, GATE_TRAIN_MINI_BATCHES, Scale,
                    gate_inputs, multi_family_corpus)

ORACLE_RTOL = 1e-9
FD_STEP = 1e-5
FD_RTOL = 1e-6
ROLLOUT_ATOL = 1e-9
PHASE_ATOL = 1e-12
MOSTLY = 0.8  # share of a stream section that must get its expected verdict


class OpLog:
    """Times each op of the timed phase in process CPU time (every thread of
    the process) and counts the ones that raise. After every ``every``-th op
    it takes ``repeats`` samples of ``reference``, outside the op's time."""

    def __init__(self, tracer=None, reference=None, every: int = 1, repeats: int = 1):
        self.tracer = tracer
        self.reference = reference
        self.every = every
        self.repeats = repeats
        self.seconds: list[float] = []
        self.items = 0
        self.failed = 0

    def run(self, items: int, fn, *args):
        if self.tracer is not None:
            self.tracer.op = len(self.seconds)
        start = process_time()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing op is counted, and the run goes on
            print(f"op {len(self.seconds)} failed: {exc!r}", file=sys.stderr)
            out = None
            self.failed += 1
        else:
            self.items += items
        self.seconds.append(process_time() - start)
        if self.reference is not None and len(self.seconds) % self.every == 0:
            for _ in range(self.repeats):
                self.reference.sample()
        return out


def round_trip(checkpoint, path: Path, failures: list[str]):
    """Save, load and compare every array bit for bit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    ckpt_io.save_checkpoint(checkpoint, path)
    try:
        loaded = ckpt_io.load_checkpoint(path)
    finally:
        path.unlink()
    if loaded.arrays.keys() != checkpoint.arrays.keys() or not all(
            np.array_equal(loaded.arrays[k], v) for k, v in checkpoint.arrays.items()):
        failures.append("checkpoint save/load round trip changed the arrays")
    return loaded


def normalize(frames: np.ndarray, checkpoint) -> np.ndarray:
    norm = checkpoint.normalization
    return (np.asarray(frames, dtype=np.float64) - norm.mean) / norm.std


def item_at(frames_normed: np.ndarray, start: int, window: int, horizon: int) -> np.ndarray:
    """(N+1, d, H): segment i covers frames start+i .. start+i+H-1."""
    return np.stack([frames_normed[start + i:start + i + window].T for i in range(horizon + 1)])


def wrap(x: np.ndarray) -> np.ndarray:
    return np.mod(x + 0.5, 1.0) - 0.5


def midpoint_quantile(values, q: float) -> float:
    """Sorted x_1..x_n, h = q*n: (x_h + x_{h+1})/2 when h is a whole number
    below n, else x_ceil(h)."""
    x = sorted(float(v) for v in values)
    h = q * len(x)
    whole = round(h)
    if abs(h - whole) < 1e-12 and 1 <= whole < len(x):
        return 0.5 * (x[whole - 1] + x[whole])
    return x[min(math.ceil(h - 1e-12), len(x)) - 1]


def check_oracle(got: float, checkpoint, items, mode: str, what: str,
                 failures: list[str]) -> None:
    """Compare a loss of the program with the oracle on the checkpoint's arrays."""
    want, _ = oracle.propagation_loss(checkpoint.arrays, checkpoint.config, items, mode)
    gap = oracle.relative_gap(got, want)
    if not gap <= ORACLE_RTOL:
        failures.append(f"{what}: loss {got!r} vs oracle {want!r} (relative gap {gap:.3g})")


class Workload:
    name = ""
    # reference samples: `reference_repeats` after every `reference_every`-th
    # op, about 3 % of the timed phase's CPU time
    reference_every = 1
    reference_repeats = 1

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []
        self.model_config = FLDConfig(**scale.model_config())

    def ckpt_path(self) -> Path:
        return self.workdir / f"{self.name}-{self.seed}.ckpt"

    def train_config(self, mini_batches: int) -> training.TrainConfig:
        return training.TrainConfig(max_iterations=1, epochs=1, mini_batches=mini_batches,
                                    batch_size=self.scale.batch, seed=self.seed)

    def layer_extras(self) -> dict:
        return {}


class TrainPaper(Workload):
    """Repeated train("fld", ...) calls, one short schedule each."""

    name = "train_paper"
    reference_repeats = 20

    def _train(self):
        return training.train("fld", self.corpus, self.config,
                              model_config=self.model_config, normalization=self.stats)

    def setup(self) -> None:
        self.corpus = multi_family_corpus(self.seed, self.scale)
        self.stats = signals.fit_normalization(self.corpus)
        self.config = self.train_config(self.scale.train_mini_batches)
        self.reference = self._train()
        self.checkpoint = round_trip(self.reference.checkpoint, self.ckpt_path(), self.failures)
        self.model = ckpt_io.build_model(self.checkpoint)
        self.mismatched = 0

    @property
    def items_per_op(self) -> int:
        return self.config.mini_batches * self.config.batch_size * self.config.epochs

    def round(self, ops: OpLog) -> None:
        result = ops.run(self.items_per_op, self._train)
        if result is not None and not self._same(result):
            self.mismatched += 1

    def _same(self, result) -> bool:
        ref = self.reference
        return (result.history.keys() == ref.history.keys()
                and all(np.array_equal(result.history[k], ref.history[k]) for k in ref.history)
                and all(np.array_equal(result.checkpoint.arrays[k], v)
                        for k, v in ref.checkpoint.arrays.items()))

    def _sample_items(self, count: int, rng: np.random.Generator) -> np.ndarray:
        cfg = self.model_config
        normed = [normalize(t.frames, self.checkpoint) for t in self.corpus]
        picks = []
        for _ in range(count):
            frames = normed[int(rng.integers(len(normed)))]
            start = int(rng.integers(frames.shape[0] - cfg.window - cfg.horizon + 1))
            picks.append(item_at(frames, start, cfg.window, cfg.horizon))
        return np.stack(picks)

    def check(self) -> list[str]:
        failures = self.failures
        if self.mismatched:
            failures.append(f"{self.mismatched} train() calls with the same seed differ "
                            f"from the first in loss history or arrays")
        loss = self.reference.history["loss"]
        if loss.shape != (1,) or not np.all(np.isfinite(loss)):
            failures.append(f"loss history {loss!r} is not one finite value")
        rng = np.random.default_rng([self.seed, 1])
        items = self._sample_items(self.scale.oracle_items, rng)
        # eval first: a train-mode call moves the model's running statistics
        for mode in ("eval", "train"):
            got, _ = self.model.loss_and_grads(items, mode=mode, want_grads=False)
            check_oracle(got, self.checkpoint, items, mode, f"trained model, {mode} mode",
                         failures)
        self._check_gradient(self._sample_items(self.scale.fd_items, rng), rng, failures)
        return failures

    def _check_gradient(self, items, rng, failures: list[str]) -> None:
        """Central difference of the loss along one random unit direction."""
        model = ckpt_io.build_model(self.checkpoint)
        params = model.parameters()
        for p in params:
            p.zero_grad()
        model.loss_and_grads(items, mode="train")
        direction = [rng.standard_normal(p.value.shape) for p in params]
        norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction))
        direction = [v / norm for v in direction]
        analytic = sum(float(np.sum(p.grad * v)) for p, v in zip(params, direction))
        originals = [p.value.copy() for p in params]

        def loss_at(step: float) -> float:
            for p, v, orig in zip(params, direction, originals):
                p.value[...] = orig + step * v
            total, _ = model.loss_and_grads(items, mode="train", want_grads=False)
            return total

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2.0 * FD_STEP)
        gap = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        if not gap <= FD_RTOL:
            failures.append(f"directional derivative {analytic!r} vs central difference "
                            f"{numeric!r} (relative gap {gap:.3g})")


class GateStream(Workload):
    """GateRunner.step over a stream pass: family A, family B, None gap."""

    name = "gate_stream"
    reference_every = 5

    def setup(self) -> None:
        s = self.scale
        self.inputs = gate_inputs(self.seed, s)
        stats = signals.fit_normalization(self.inputs.corpus)
        trained = training.train("fld", self.inputs.corpus,
                                 self.train_config(GATE_TRAIN_MINI_BATCHES),
                                 model_config=self.model_config, normalization=stats)
        self.checkpoint = round_trip(trained.checkpoint, self.ckpt_path(), self.failures)
        self.gate = dynamics.calibrate_threshold(self.checkpoint, self.inputs.corpus,
                                                 quantile=GATE_QUANTILE,
                                                 anchor_stride=s.gate_calib_stride)
        warm = dynamics.GateRunner(self.checkpoint, self.gate)
        for frame in self.inputs.stream[:s.gate_warmup_frames]:
            warm.step(frame)
        self.runner = dynamics.GateRunner(self.checkpoint, self.gate)
        self.initial_state = self.runner.state
        self.first_pass: list = []
        self.verdicts: list[list[str]] = []

    def round(self, ops: OpLog) -> None:
        keep = not self.verdicts
        verdicts = []
        for frame in self.inputs.stream:
            decision = ops.run(1, self.runner.step, frame)
            verdicts.append(None if decision is None else decision.verdict)
            if keep:
                self.first_pass.append(decision)
        self.verdicts.append(verdicts)

    def layer_extras(self) -> dict:
        first = self.verdicts[0]
        return {f"dynamics.verdict.{v}": first.count(v)
                for v in ("accepted", "rejected", "no_input")}

    def _full_buffer(self) -> list[bool]:
        """Whether the input buffer is full at each frame of a pass: at least
        H + N consecutive frames without a gap end at it."""
        need = self.model_config.window + self.model_config.horizon
        full, run = [], 0
        for frame in self.inputs.stream:
            run = 0 if frame is None else run + 1
            full.append(run >= need)
        return full

    def _buffer_items(self, k: int) -> np.ndarray:
        cfg = self.model_config
        frames = normalize(np.stack(self.inputs.stream[k - cfg.window - cfg.horizon + 1:k + 1]),
                           self.checkpoint)
        return item_at(frames, 0, cfg.window, cfg.horizon)[None]

    def check(self) -> list[str]:
        failures = self.failures
        decisions = self.first_pass
        if any(d is None for d in decisions):
            failures.append("an op of the first stream pass failed; its checks are skipped")
            return failures
        if any(v != self.verdicts[0] for v in self.verdicts[1:]):
            failures.append("verdicts differ between passes over the same stream")
        eps = self.gate.epsilon
        full = self._full_buffer()
        for k, (d, is_full) in enumerate(zip(decisions, full)):
            expected = ("no_input" if not is_full else
                        "accepted" if d.loss is not None and d.loss <= eps else "rejected")
            if d.verdict != expected or (d.loss is None) == is_full:
                failures.append(f"frame {k}: verdict {d.verdict} with loss {d.loss} "
                                f"and a {'full' if is_full else 'partial'} buffer (eps {eps})")
                break
        self._check_sections(decisions, full, failures)
        self._check_sampled_losses(decisions, full, failures)
        self._check_propagation(decisions, failures)
        return failures

    def _check_sections(self, decisions, full, failures) -> None:
        for (lo, hi), verdict, section in ((self.inputs.in_range, "accepted", "in-distribution"),
                                           (self.inputs.oof_range, "rejected", "out-of-family")):
            scored = [decisions[k].verdict for k in range(lo, hi) if full[k]]
            share = scored.count(verdict) / max(len(scored), 1)
            if not scored or share < MOSTLY:
                failures.append(f"{section} section: {share:.2f} of {len(scored)} scored "
                                f"frames {verdict}, expected at least {MOSTLY}")

    def _check_sampled_losses(self, decisions, full, failures) -> None:
        scored = [k for k in range(len(decisions)) if full[k]]
        rng = np.random.default_rng([self.seed, 2])
        picks = {next((k for k in scored if decisions[k].verdict == v), None)
                 for v in ("accepted", "rejected")}
        picks.add(scored[int(rng.integers(len(scored)))])
        for k in sorted(p for p in picks if p is not None):
            check_oracle(decisions[k].loss, self.checkpoint, self._buffer_items(k), "eval",
                         f"gate loss at frame {k}", failures)

    def _check_propagation(self, decisions, failures) -> None:
        """Fallback steps advance phi by f*dt and keep (f, a, b); the frames
        emitted over a stretch of them equal a synthesis rollout."""
        dt = self.model_config.dt
        previous = self.initial_state
        stretch: list = []
        stretches = []
        for d in decisions:
            if d.verdict == "accepted":
                stretches.append(stretch)
                stretch = []
            else:
                s = d.state
                drift = np.max(np.abs(wrap(s.phi - previous.phi - previous.freq * dt)))
                if drift > PHASE_ATOL or not (np.array_equal(s.freq, previous.freq)
                                               and np.array_equal(s.amp, previous.amp)
                                               and np.array_equal(s.offset, previous.offset)):
                    failures.append(f"fallback step {s.step}: phase drift {drift:.3g} "
                                    f"or a changed parameterization")
                    return
                stretch.append(d)
            previous = d.state
        stretches.append(stretch)
        for stretch in (s for s in stretches if len(s) >= 2):
            rollout = dynamics.synthesize(self.checkpoint, stretch[0].state, len(stretch)).frames
            emitted = np.stack([d.target_frame for d in stretch])
            gap = np.max(np.abs(rollout - emitted)) / max(1.0, np.max(np.abs(emitted)))
            if not gap <= ROLLOUT_ATOL:
                failures.append(f"{len(stretch)}-step fallback stretch from step "
                                f"{stretch[0].state.step} differs from synthesize by {gap:.3g}")


class CalibrateCorpus(Workload):
    """One calibrate_threshold call per op over a multi-trajectory corpus."""

    name = "calibrate_corpus"
    reference_repeats = 8

    def setup(self) -> None:
        s = self.scale
        self.corpus = multi_family_corpus(self.seed, s)
        stats = signals.fit_normalization(self.corpus)
        trained = training.train("fld", self.corpus, self.train_config(1),
                                 model_config=self.model_config, normalization=stats)
        self.checkpoint = round_trip(trained.checkpoint, self.ckpt_path(), self.failures)
        self.anchor_list = self.anchors()
        self.reference = self._calibrate()
        self.results = []

    def _calibrate(self):
        return dynamics.calibrate_threshold(self.checkpoint, self.corpus,
                                            quantile=CALIB_QUANTILE,
                                            anchor_stride=self.scale.calib_stride)

    def anchors(self) -> list[tuple[int, int]]:
        """(trajectory, first frame) of every anchor calibration must score."""
        cfg = self.model_config
        out = []
        for ti, traj in enumerate(self.corpus):
            windows = len(traj) - cfg.window + 1
            out += [(ti, w) for w in range(0, windows - cfg.horizon, self.scale.calib_stride)]
        return out

    def round(self, ops: OpLog) -> None:
        result = ops.run(len(self.anchor_list), self._calibrate)
        if result is not None:
            self.results.append(result)

    def check(self) -> list[str]:
        failures = self.failures
        ref = self.reference
        if any(r.to_dict() != ref.to_dict() for r in self.results):
            failures.append("calibrate_threshold gave different gates on the same corpus")
        anchors = self.anchor_list
        if ref.anchor_count != len(anchors):
            failures.append(f"anchor_count {ref.anchor_count}, expected {len(anchors)}")
        cfg = self.model_config
        usable = sorted({ti for ti, _ in anchors})
        digest = hashlib.sha256()
        for ti in usable:
            digest.update(np.ascontiguousarray(self.corpus[ti].frames, dtype=np.float64).tobytes())
        if ref.corpus_hash != digest.hexdigest()[:16]:
            failures.append(f"corpus_hash {ref.corpus_hash}, expected {digest.hexdigest()[:16]}")
        model = ckpt_io.build_model(self.checkpoint)
        normed = {ti: normalize(self.corpus[ti].frames, self.checkpoint) for ti in usable}
        items = [item_at(normed[ti], w, cfg.window, cfg.horizon) for ti, w in anchors]
        losses = [dynamics.anchored_gate_loss(model, item) for item in items]
        eps = midpoint_quantile(losses, CALIB_QUANTILE)
        if oracle.relative_gap(eps, ref.epsilon) > 1e-12:
            failures.append(f"epsilon {ref.epsilon!r}, expected {eps!r}")
        rng = np.random.default_rng([self.seed, 3])
        for idx in rng.choice(len(items), size=min(2, len(items)), replace=False):
            check_oracle(losses[idx], self.checkpoint, items[idx][None], "eval",
                         f"calibration anchor {idx}", failures)
        return failures


WORKLOADS = {w.name: w for w in (TrainPaper, GateStream, CalibrateCorpus)}
