"""Host speed, sampled while the program runs.

Shared virtual machines can change the speed of their cores by up to a
factor of two over stretches from seconds to minutes, with no steal time to
show for it. A fixed slice of reference work, run from a timer signal every
few milliseconds while the program runs, measures that speed in the same
stretches as the program. The harness rescales the program's times by it to
the time they would take at the reference speed (``REFERENCE_UNIT_S`` per
unit), so that what is left is the program's own cost.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

# every sampling period of wall time, the reference work runs once
SAMPLE_PERIOD_S = 0.025
# thread CPU seconds that one unit of reference work takes at reference speed
REFERENCE_UNIT_S = 0.0004
_REFERENCE_LOOPS = 250


def reference_unit() -> float:
    """A fixed slice of pure-Python work: scalar float arithmetic, small
    tuples, builtin calls and float formatting, as in the program's hot loops.

    It touches no coherence_lab code, so no change to the program moves it;
    its time tracks only how fast the host runs this thread right now.
    """
    acc = 0.0
    for i in range(_REFERENCE_LOOPS):
        c = ((i % 17) / 8.0 - 1.0, (i % 13) / 6.0 - 1.0, (i % 11) / 5.0 - 1.0)
        q = min(1.0 - c[0] - c[1] - c[2], 1.0 + c[0] + c[1] - c[2],
                1.0 + c[0] - c[1] + c[2], 1.0 - c[0] + c[1] + c[2])
        if q >= 0.0:
            acc += max(abs(c[0]), abs(c[1])) / (1.0 + abs(c[2]))
        acc += len(repr(c[0] * c[1]))
    return acc


class Sampler:
    """Runs ``reference_unit`` from a SIGALRM handler every SAMPLE_PERIOD_S
    and records its thread CPU time.

    The samples are spread evenly over the wall time of what runs meanwhile,
    so their mean speed is the speed the host gave that stretch. The handler
    runs in the main thread; thread CPU time leaves out any wait for the
    GIL or for a core that the program's own pool threads hold.
    """

    def __init__(self) -> None:
        self.unit_s: list[float] = []  # thread CPU seconds per reference unit
        self.wall_s = 0.0  # wall time spent in the handler

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        cpu = thread_time()
        reference_unit()
        self.unit_s.append(thread_time() - cpu)
        self.wall_s += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.unit_s), self.wall_s

    def since(self, mark: tuple[int, float]) -> dict:
        """Samples and handler wall time since ``mark``."""
        count, wall = mark
        return {"unit_s": self.unit_s[count:], "handler_s": self.wall_s - wall}


def speed(unit_s: list[float]) -> float:
    """Mean host speed over the samples, as a share of the reference speed."""
    return statistics.mean(REFERENCE_UNIT_S / u for u in unit_s)


def scaled(seconds: float, samples: dict, fallback: dict | None = None) -> float:
    """``seconds`` of wall or CPU time that the samples were taken in, less
    the handler's share, at the reference speed. ``fallback`` supplies the
    samples when the stretch was too short to hold one."""
    units = samples["unit_s"] or (fallback or {}).get("unit_s")
    if not units:
        raise ValueError("no host-speed samples")
    return (seconds - samples["handler_s"]) * speed(units)
