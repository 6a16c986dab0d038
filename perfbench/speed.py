"""Machine-speed sampling, so that timings follow the program, not the host.

The cores this benchmark runs on are shared, and the speed of the same
interpreter-bound code drifts by up to a factor of two in spells of
seconds to minutes.  ``Sampler`` runs a fixed reference loop (standard
library only: exact rationals, complex floats, small containers) from a
``SIGALRM`` handler every ``INTERVAL_S`` of wall time while a piece of
work runs, so the samples spread evenly over the work.  ``stop`` then
returns the work's wall time with the handler's own time taken out and
scaled by the mean of ``REF_S / sample`` over the samples: the seconds
the work would have taken on a machine on which the reference loop takes
``REF_S``.  A change to the program moves this figure as it moves wall
time; a spell of the host moves the reference loop with it and cancels.

Usage::

    sampler = Sampler()
    sampler.start()
    work()
    adjusted_s, wall_s = sampler.stop()
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: what the reference loop takes on the reference machine, in seconds
REF_S = 1.0e-3
#: wall time between two samples; a sample takes about 2% of it
INTERVAL_S = 0.05


def reference_loop() -> None:
    acc, z, box = Fraction(0), 0j, {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        z = z * 0.999 + complex(i, -i) / (i + 1.5)
        box[i % 17] = [z.real, z.imag, i]


class Sampler:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []  # reference loop durations, seconds
        self.spent = 0.0  # wall time inside the handler
        self.t0 = None

    def sample(self, *_signal_args) -> None:
        t0 = self.clock()
        reference_loop()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self.spent += self.clock() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self.sample)
        self.t0 = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S / 2, INTERVAL_S)

    def stop(self) -> tuple:
        """(adjusted seconds, wall seconds) of the work since ``start``."""
        wall = self.clock() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # work shorter than the first alarm
            self.sample()
            self.spent = 0.0
        return adjust(wall - self.spent, self.samples), wall


def adjust(seconds: float, samples: list) -> float:
    """``seconds`` scaled to the reference speed by the samples taken in them."""
    return seconds * sum(REF_S / s for s in samples) / len(samples)
