"""Machine-speed calibration for timings taken on a shared host.

On a host whose other tenants come and go, the same Python code runs up
to about 1.8 times slower from one second to the next, and a run's
share of slow seconds differs from run to run, so no number of samples
within one run averages it away.  Each timed input is therefore
followed by a fixed calibration loop, and a timing is reported at a
reference speed: raw seconds x REFERENCE_LOOP_S / loop seconds, with
the loop timed right before and right after the input.  No code of the
program under test runs inside the loop, so a change to the program
moves the raw time and leaves the loop time alone.
"""

from __future__ import annotations

from time import perf_counter

# The loop's time at the reference speed.  A 2-vCPU Xeon virtual machine
# with Python 3.11 runs it in about 1.0 ms while its host is quiet and in
# about 1.8 ms while the host is busy.
REFERENCE_LOOP_S = 0.001

_TEXT = "the quick brown fox jumps over the lazy dog " * 50


def calibration_loop() -> float:
    """Seconds taken by a fixed amount of pure-Python work.  It keeps no
    objects, so it triggers no garbage collection of the caller's heap."""
    start = perf_counter()
    counts: dict[str, int] = {}
    for i in range(8000):
        ch = _TEXT[i % 2200]
        counts[ch] = counts.get(ch, 0) + 1
    return perf_counter() - start


class SpeedGauge:
    """Scale factors to the reference speed, one per timed interval, from
    the calibration loops run before and after it."""

    def __init__(self):
        self._before = sorted(calibration_loop() for _ in range(3))[1]

    def scale_after_interval(self) -> float:
        after = calibration_loop()
        scale = REFERENCE_LOOP_S / ((self._before + after) / 2)
        self._before = after
        return scale
