"""Machine-speed probe for scaling measured times.

The benchmark runs on shared machines, where the speed available to one
process changes by 10-30% from one second to the next and drifts over
minutes: the same command, in the same process, takes 1.4 s at one moment
and 2.3 s a minute later.  Medians over repetitions do not remove that.

So while a measured call runs, a timer signal every PERIOD_S seconds runs a
fixed pure-Python probe computation and times it; the probe is also timed
PROBES times right before and right after the call.  The median probe time
is the speed the call ran at, and the benchmark reports

    scaled = (elapsed - time spent in probes) * REFERENCE_S / median probe

The probe does not touch invstab, so a change to invstab moves measured and
scaled times alike.  It mixes the two kinds of work the workloads do: list
loops of small-integer products mod p (the polynomial and packed-field
kernels) and operator calls on small objects (the ``FieldElement``
operators).  At about 0.25 ms per probe and 50 probes a second the probes
take about 1% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

#: nominal seconds of one probe_work() call: scaled times are seconds on a
#: machine that runs the probe in this time (close to the median probe time
#: on the 2-vCPU Xeon machine the benchmark was tuned on)
REFERENCE_S = 3e-4

#: seconds between probes while a measured call runs
PERIOD_S = 0.02

#: probes timed on each side of a measured call
PROBES = 3


class _Residue:
    __slots__ = ('v',)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Residue(self.v * other.v % 8191)

    def __add__(self, other):
        return _Residue((self.v + other.v) % 8191)


def probe_work():
    """A fixed computation of about 0.25 ms; returns its result."""
    p = 7
    f = [(3 * i + 1) % p for i in range(24)]
    g = [(5 * i + 2) % p for i in range(24)]
    for _ in range(3):
        prod = [0] * 47
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    prod[i + j] += a * b
        f = [c % p for c in prod[:24]]
    x, acc = _Residue(3), _Residue(0)
    for k in range(150):
        x = x * x + _Residue(k)
        acc = acc + x
    return f, acc.v


def _probe(samples: list) -> None:
    t0 = time.perf_counter()
    probe_work()
    samples.append(time.perf_counter() - t0)


def timed(call):
    """Run ``call()``; return (result, measured seconds, scaled seconds).

    Measured seconds exclude the time spent in probes during the call.
    """
    before, during, after = [], [], []
    for _ in range(PROBES):
        _probe(before)
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: _probe(during))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(PROBES):
        _probe(after)
    seconds = elapsed - sum(during)
    speed = statistics.median(before + during + after)
    return result, seconds, seconds * REFERENCE_S / speed
