"""Host-speed reference for the end-to-end timings.

The benchmark runs on a share of a host whose speed changes from second to
second (by up to 2x) and drifts over minutes, with the same code; the process
is slowed, not descheduled, so its CPU time shows the same changes.  Those
changes slow a fixed piece of Python and numpy work by about the same factor
as they slow devqe, so the benchmark times such a piece, the reference slice,
all through each pass and divides the host's speed out of the pass time.

While a ``HostSpeedSampler`` is active, SIGALRM interrupts the main thread
every ``INTERVAL_S`` seconds of wall time; the handler runs one reference
slice and times it.  The handler's own time is kept apart, so the workload's
time is the wall time minus the handler time.  The reference slice is fixed
work that does not touch devqe: a change to devqe cannot change it.

A reference second is (measured mean slice time) / ``REF_SLICE_S`` seconds
of wall time: on a host running at the speed the constant was taken at, it is
one second.  Work per reference second is therefore work per second with the
host's speed of the moment divided out.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02  # wall time between reference slices
UNITS_PER_SLICE = 20  # reference units in one slice
# Mean time of one slice, taken in passes on the host this constant was
# taken on (2-vCPU Xeon VM at 2.1 GHz) at about its median speed.  It only
# scales the reference second; it is never measured again.
REF_SLICE_S = 0.0015

_QUBITS = 8
_INDEX = np.arange(1 << _QUBITS, dtype=np.uint64)
_PHASES = np.arange(1 << _QUBITS, dtype=float)
_AMPLITUDES = (np.cos(_PHASES) + 1j * np.sin(_PHASES)) / 16.0


def reference_unit() -> float:
    """A small fixed mix of numpy work on a 256-amplitude vector and of plain
    Python arithmetic, the two kinds of work devqe's evaluations do."""
    amplitudes = _AMPLITUDES
    total = 0.0
    for mode in range(4):
        bit = np.uint64(1 << mode)
        signs = 1.0 - 2.0 * ((_INDEX >> np.uint64(mode)) & np.uint64(1))
        flipped = amplitudes[_INDEX ^ bit] * signs
        total += np.vdot(amplitudes, flipped).real
    count = 0
    for i in range(100):
        count += (i * 7) % 13
    return total + count


def reference_slice() -> float:
    total = 0.0
    for _ in range(UNITS_PER_SLICE):
        total += reference_unit()
    return total


class HostSpeedSampler:
    """Times reference slices all through a ``with`` block, from SIGALRM."""

    def __init__(self):
        self.slices = 0
        self.slice_s = 0.0  # summed time of the reference slices
        self.handler_s = 0.0  # summed time spent in the handler
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        reference_slice()
        self.slice_s += perf_counter() - start
        self.slices += 1
        self.handler_s += perf_counter() - start

    def reference_seconds(self, seconds) -> float:
        """Wall seconds in reference seconds, at the mean speed sampled."""
        if not self.slices:
            raise RuntimeError("no reference slice ran; the block was shorter than the interval")
        return seconds * REF_SLICE_S / (self.slice_s / self.slices)
