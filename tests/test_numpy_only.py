"""fld runs on numpy alone: a tiny train, then every inference entry point
(calibration, a gate pass, synthesis, prediction evaluation, manifold
export and the quasi-constancy report), in a fresh interpreter where
importing ``scipy`` or ``numpy.fft`` fails. numpy imports ``numpy.fft``
only on first use, so blocking it catches any call into it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None
sys.modules["numpy.fft"] = None
import numpy as np
from fld import dynamics, signals, training
from fld.model import FLDConfig
corpus = [signals.generate_synthetic(signals.SyntheticMotionSpec(
    base_frequency=1.2 + 0.3 * i, amplitudes=np.ones(3), phase_offsets=np.zeros(3),
    means=np.zeros(3), frames=60, dt=0.02, seed=i)) for i in range(2)]
result = training.train("fld", corpus, training.TrainConfig(
    max_iterations=2, epochs=1, mini_batches=1, batch_size=4, seed=0),
    FLDConfig(dims=3, channels=2, window=16, horizon=3, hidden=8))
gate = dynamics.calibrate_threshold(result.checkpoint, corpus, anchor_stride=4)
runner = dynamics.GateRunner(result.checkpoint, gate)
verdicts = {runner.step(frame).verdict for frame in corpus[0].frames}
rollout = dynamics.synthesize(result.checkpoint, runner.state, 5)
assert verdicts & {"accepted", "rejected"} and np.all(np.isfinite(rollout.frames))
report = training.evaluate_prediction({"fld": result.checkpoint}, corpus[1], [0, 3])
points = training.export_latent_manifold(result.checkpoint, corpus, anchor_stride=4)
constancy = training.quasi_constancy_report(result.checkpoint, corpus, anchor_stride=4)
assert np.all(np.isfinite(report.errors["fld"])) and len(points) >= 3
assert np.isfinite(constancy.mean_ratio)
"""


def test_fld_runs_without_scipy_or_numpy_fft():
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
