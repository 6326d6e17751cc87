"""Host-speed correction: every stretch of timed work is followed by calibration.

The sandbox's CPU speed is not steady: the same code runs up to three times
slower for minutes at a time, and faster again later.  So the benchmark runs
a fixed calibration kernel, from its own files, right after each stretch of
program work, for a fixed share of that stretch's time.  Work and kernel then
run under the same conditions, and a stretch's time is reported in reference
seconds: its measured seconds times ``REFERENCE_SLICE_S`` over the mean time
of the calibration slices run beside it.  A change to the program moves the
work's time and leaves the kernel's alone, so it shows in full.

The kernel is the benchmark's own closure of behaviour states
(``reference.behaviour_states``) over a small fixed algebra: interpreted
loops that build tuples and look them up in dicts and sets, the kind of work
the program spends its time on.  In slow spells such code slows more than
work done inside C-level set operations, so a kernel of the latter tracks
the program less well.
"""
from __future__ import annotations

import itertools
import random
from time import monotonic_ns, perf_counter
from types import SimpleNamespace

import reference as ref

SHARE = 0.15               # calibration time per second of work time
REFERENCE_SLICE_S = 3.4e-4  # a slice's time on the reference host; sets the unit


class Pacer:
    def __init__(self):
        # a unary and a binary operation on three elements: 9 states for k = 1
        rng = random.Random(0)
        carrier = ("e0", "e1", "e2")
        ops = {sym: {args: rng.choice(carrier) for args in itertools.product(carrier, repeat=r)}
               for sym, r in (("f", 1), ("g", 2))}
        self.algebra = SimpleNamespace(carrier=carrier, ops=ops, constants={})
        self.debt = 0.0
        self.cal_s = 0.0       # calibration time so far
        self.cal_n = 0         # calibration slices so far
        self.work_s = 0.0      # work time so far, as measured
        self.mark = perf_counter()

    def slice(self) -> int:
        """One calibration slice: a fixed amount of work."""
        return len(ref.behaviour_states((self.algebra,), 1, None, 100))

    def settle(self, work: float) -> None:
        """Account ``work`` seconds of program work and run its share of calibration."""
        self.work_s += work
        self.debt += SHARE * work
        while self.debt > 0:
            start = perf_counter()
            self.slice()
            spent = perf_counter() - start
            self.cal_s += spent
            self.cal_n += 1
            self.debt -= spent

    def tick(self) -> None:
        """Close the stretch of work begun at the last tick, calibrate, start the next."""
        self.settle(perf_counter() - self.mark)
        self.mark = perf_counter()

    def totals(self) -> tuple:
        return self.work_s, self.cal_s, self.cal_n


def reference_seconds(before: tuple, after: tuple) -> tuple:
    """(reference seconds, reference seconds per measured second) of the work between two totals."""
    work = after[0] - before[0]
    cal, n = after[1] - before[1], after[2] - before[2]
    scale = REFERENCE_SLICE_S * n / cal
    return work * scale, scale


def start(t0_ns: int) -> Pacer:
    """A pacer whose first stretch of work began at ``time.monotonic_ns()`` value
    ``t0_ns`` (process start), less the time taken to set up the kernel."""
    begin = perf_counter()
    pacer = Pacer()
    pacer.mark -= (monotonic_ns() - t0_ns) / 1e9 - (pacer.mark - begin)
    return pacer
