"""A fixed reference workload that gauges how fast the CPU runs right now.

On a 2-CPU virtual machine whose host is shared with other tenants, the
same code ran up to 30 % slower in CPU time for minutes at a time.
So every run also times this reference, which runs no ``fld`` code, between
its ops, and the end-to-end times are scaled by how fast the reference ran
(``run.py``). The reference has two parts, the kinds of work the program's
ops are made of:

- small FFTs on the program's thread-pool setting (``workers=-1``), where
  the batch-1 gate spends its time;
- a streaming pass over arrays of 8 MB each, which gauges the shared caches
  and memory the large decoder batches of training and calibration use.

A sample is the geometric mean of the two parts' CPU times. Its inputs come
from a fixed seed, not from the workload seed.
"""

from __future__ import annotations

import math
from time import process_time

import numpy as np
import scipy.fft

# CPU seconds of one sample on this machine in a fast spell: the unit the
# end-to-end times are scaled to
NOMINAL_SECONDS = 2.0e-3
FFT_REPEATS = 10
STREAM_PASSES = 4


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((64, 51))
        self.big = rng.standard_normal(1 << 20)
        self.out = np.empty_like(self.big)
        self.samples: list[float] = []
        self._fft()  # first calls build scipy's plans and start its thread pool
        self._stream()

    def _fft(self) -> None:
        for _ in range(FFT_REPEATS):
            spectrum = scipy.fft.rfft(self.small, axis=-1, workers=-1)
            scipy.fft.irfft(spectrum, n=self.small.shape[-1], axis=-1, workers=-1)

    def _stream(self) -> None:
        for _ in range(STREAM_PASSES):
            np.multiply(self.big, 1.0001, out=self.out)
            np.add(self.out, 0.5, out=self.out)

    def sample(self) -> float:
        """Time both parts once, keep the sample and return it in seconds."""
        start = process_time()
        self._fft()
        middle = process_time()
        self._stream()
        end = process_time()
        seconds = math.sqrt((middle - start) * (end - middle))
        self.samples.append(seconds)
        return seconds

    def speed(self) -> float:
        """How fast the CPU ran over the samples, against the nominal speed:
        above 1 is faster. The median keeps one interrupted sample from
        moving it."""
        return NOMINAL_SECONDS / float(np.median(self.samples))
