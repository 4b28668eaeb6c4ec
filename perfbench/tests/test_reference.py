"""The reference workload that scales the end-to-end times."""

import statistics

from reference import NOMINAL_SECONDS, Reference
from workloads import OpLog


def test_speed_is_nominal_over_the_median_sample():
    ref = Reference()
    samples = [ref.sample() for _ in range(3)]
    assert all(s > 0 for s in samples)
    assert ref.speed() == NOMINAL_SECONDS / statistics.median(samples)


def test_op_log_samples_the_reference_after_every_nth_op_outside_its_time():
    ref = Reference()
    ops = OpLog(reference=ref, every=2, repeats=3)
    for _ in range(5):
        ops.run(1, lambda: None)
    assert len(ref.samples) == 6
    assert sum(ops.seconds) < sum(ref.samples)
