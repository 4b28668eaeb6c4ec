"""Equivalence probe: what a change to ``fld`` may not move, as one JSON line.

    python tools/equivalence.py --tree PATH     # probe the checkout at PATH
    python tools/equivalence.py --against REV   # probe REV and this checkout

``--tree`` imports ``fld`` from ``PATH/src`` and the benchmark's input
generator from ``PATH/perfbench/inputs.py`` (read, never written), and
prints one JSON object:

- ``tiny.{fld,pae,ff}.{history,arrays,errors}``: SHA-256 digests of a tiny
  ``train()`` run's loss history and checkpoint arrays, and of its
  ``evaluate_prediction`` errors on a held-out trajectory;
- ``paper.train_seed7.{history,arrays}``: the same digests of the
  ``train_paper`` seed-7 set-up at the paper configuration;
- ``gate.seed{1,7}.*``: the ``gate_stream`` set-up's calibrated epsilon,
  its verdict counts over one stream pass, each frame's loss (None without
  input) and a digest of the emitted frames;
- ``calibrate.seed7.epsilon``: the ``calibrate_corpus`` seed-7 threshold.

Scalars are raw floats, so a rounding-level difference can be sized.
``--against REV`` extracts ``git archive REV`` into a temporary directory,
probes both trees in fresh processes pinned to one CPU with one BLAS thread,
and lists each entry as equal, or different with its largest relative
difference (a digest has none). Digests depend on the BLAS build and its
thread count, so compare only probes made alike.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
GATE_SEEDS = (1, 7)


def digest(arrays: dict) -> str:
    """SHA-256 over the sorted names, dtypes, shapes and bytes of ``arrays``."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def tiny_entries() -> dict:
    """Digests of tiny fld, pae and ff runs: history, arrays and prediction errors."""
    import numpy as np
    from fld.model import FFConfig, FLDConfig
    from fld.signals import SyntheticMotionSpec, generate_synthetic
    from fld.training import TrainConfig, evaluate_prediction, train

    rng = np.random.default_rng(0)
    corpus = [generate_synthetic(SyntheticMotionSpec(
        base_frequency=1.5 + 0.4 * i, amplitudes=rng.uniform(0.5, 1.5, 3),
        phase_offsets=rng.uniform(0, 1, 3), means=rng.normal(scale=0.3, size=3),
        noise_std=0.02, frames=120, dt=0.02, seed=i)) for i in range(3)]
    config = TrainConfig(max_iterations=3, lr=2e-3, epochs=1, mini_batches=2,
                         batch_size=8, seed=1)
    fld_config = FLDConfig(dims=3, channels=2, window=16, horizon=3, dt=0.02, hidden=8)
    models = {"fld": fld_config, "pae": fld_config,
              "ff": FFConfig(dims=3, window=16, hidden=(16, 8), dt=0.02)}
    out = {}
    for kind, model_config in models.items():
        result = train(kind, corpus[:2], config, model_config)
        report = evaluate_prediction({kind: result.checkpoint}, corpus[2], horizons=range(4))
        out[f"tiny.{kind}.history"] = digest(result.history)
        out[f"tiny.{kind}.arrays"] = digest(result.checkpoint.arrays)
        out[f"tiny.{kind}.errors"] = digest(report.errors)
    return out


def paper_entries(inputs) -> dict:
    """The benchmark's set-ups at the paper configuration, from its input
    generator ``inputs``: train_paper seed 7, gate_stream seeds 1 and 7,
    calibrate_corpus seed 7."""
    import numpy as np
    from fld.dynamics import GateRunner, calibrate_threshold
    from fld.model import FLDConfig
    from fld.signals import fit_normalization
    from fld.training import TrainConfig, train

    scale = inputs.PAPER
    model_config = FLDConfig(**scale.model_config())

    def set_up(corpus, mini_batches: int, seed: int):
        config = TrainConfig(max_iterations=1, epochs=1, mini_batches=mini_batches,
                             batch_size=scale.batch, seed=seed)
        return train("fld", corpus, config, model_config=model_config,
                     normalization=fit_normalization(corpus))

    out = {}
    result = set_up(inputs.multi_family_corpus(7, scale), scale.train_mini_batches, 7)
    out["paper.train_seed7.history"] = digest(result.history)
    out["paper.train_seed7.arrays"] = digest(result.checkpoint.arrays)
    for seed in GATE_SEEDS:
        gate_inputs = inputs.gate_inputs(seed, scale)
        checkpoint = set_up(gate_inputs.corpus, inputs.GATE_TRAIN_MINI_BATCHES, seed).checkpoint
        gate = calibrate_threshold(checkpoint, gate_inputs.corpus, quantile=inputs.GATE_QUANTILE,
                                   anchor_stride=scale.gate_calib_stride)
        runner = GateRunner(checkpoint, gate)
        decisions = [runner.step(frame) for frame in gate_inputs.stream]
        verdicts = [d.verdict for d in decisions]
        out[f"gate.seed{seed}.epsilon"] = gate.epsilon
        out[f"gate.seed{seed}.verdicts"] = {v: verdicts.count(v)
                                            for v in ("accepted", "rejected", "no_input")}
        out[f"gate.seed{seed}.losses"] = [d.loss for d in decisions]
        out[f"gate.seed{seed}.frames"] = digest(
            {"frames": np.stack([d.target_frame for d in decisions])})
    corpus = inputs.multi_family_corpus(7, scale)
    checkpoint = set_up(corpus, 1, 7).checkpoint
    out["calibrate.seed7.epsilon"] = calibrate_threshold(
        checkpoint, corpus, quantile=inputs.CALIB_QUANTILE,
        anchor_stride=scale.calib_stride).epsilon
    return out


def probe(tree: Path) -> dict:
    """Every entry for the checkout at ``tree``, in this process."""
    sys.path.insert(0, str(tree / "src"))
    fld = importlib.import_module("fld")
    if Path(fld.__file__).resolve().parents[1] != (tree / "src").resolve():
        raise SystemExit(f"fld imported from {fld.__file__}, not from {tree / 'src'}")
    sys.dont_write_bytecode = True  # leave the tree's perfbench as it is
    spec = importlib.util.spec_from_file_location("_probe_inputs", tree / "perfbench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(inputs)
    return {**tiny_entries(), **paper_entries(inputs)}


def relative_difference(a, b) -> float | None:
    """Largest relative difference of two equal-shaped scalars, lists or
    dicts of numbers (None matches only None); None for digests."""
    if isinstance(a, str) or isinstance(b, str):
        return None
    if isinstance(a, dict):
        a, b = [a.get(k) for k in sorted(a)], [b.get(k) for k in sorted(a)]
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return float("inf")
        return max((relative_difference(x, y) for x, y in zip(a, b)), default=0.0)
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def run_probe(tree: Path) -> dict:
    """:func:`probe` of ``tree`` in a fresh process on one CPU and one BLAS thread."""
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)],
        env={**os.environ, **THREAD_ENV}, capture_output=True, text=True, check=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return json.loads(done.stdout.splitlines()[-1])


def against(rev: str) -> list[str]:
    """One line per entry: REV's probe against this checkout's."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        base = run_probe(Path(tree))
    head = run_probe(ROOT)
    lines = []
    for name in sorted(base.keys() | head.keys()):
        if name not in base or name not in head:
            lines.append(f"{name}: only in {'this checkout' if name in head else rev}")
        elif base[name] == head[name]:
            lines.append(f"{name}: equal")
        else:
            gap = relative_difference(base[name], head[name])
            lines.append(f"{name}: different" + ("" if gap is None else
                                                 f", largest relative difference {gap:.3g}"))
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--tree", type=Path, help="probe the checkout at this path")
    which.add_argument("--against", metavar="REV", help="compare REV with this checkout")
    args = parser.parse_args()
    if args.tree is not None:
        print(json.dumps(probe(args.tree.resolve())))
    else:
        print("\n".join(against(args.against)))


if __name__ == "__main__":
    main()
