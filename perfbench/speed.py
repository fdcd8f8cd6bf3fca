"""Machine-speed probe: turns measured seconds into reference seconds.

On a shared machine the speed of a core swings by 20-60% over seconds to
minutes, far more than the changes the benchmark must resolve.  While a
worker runs, SIGALRM fires every `interval` seconds and the handler times a
fixed pure-Python kernel (a multiply-accumulate of packed integer keys and
coefficients mod p, like charclass's inner loops).  A duration is then
reported as

    (measured seconds - probe time inside it) * REFERENCE_S / median probe

where the median is over the probes around that interval.  The kernel does
not depend on charclass, so the scaling cancels the machine's swings but not
changes in the program.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

REFERENCE_S = 0.0012  # the kernel's typical time inside a worker on the 2-vCPU VM the bounds were set on
PAD_S = 0.5          # probes this close to an interval count for it

_rng = random.Random(0)
_P = 2147483647
_A = [(_rng.randrange(1 << 40), _rng.randrange(_P)) for _ in range(60)]
_B = [(_rng.randrange(1 << 40), _rng.randrange(_P)) for _ in range(40)]


def kernel():
    # no container grows: the only allocations are short-lived ints, which
    # reuse one pool block, so the process's heap state does not leak in
    acc = 0
    for ka, ca in _A:
        for kb, cb in _B:
            acc = (acc + (ka ^ kb) * ca * cb) % _P
    return acc


class SpeedProbe:
    """Samples (end time, seconds) of the kernel every `interval` seconds.

    Use as a context manager; leaving it stops the timer and puts the
    previous SIGALRM handler back.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, _signum, _frame):
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def mark(self):
        return len(self.samples)

    def factor(self, t0=None, t1=None):
        """REFERENCE_S / median probe time near [t0, t1] (all probes if None)."""
        if not self.samples:
            self.sample()
        near = [d for t, d in self.samples
                if t0 is None or t0 - PAD_S <= t <= t1 + PAD_S]
        return REFERENCE_S / statistics.median(near or [d for _t, d in self.samples])

    def reference_seconds(self, t0, t1, mark):
        """Seconds from t0 to t1, minus the probes in between, at reference speed."""
        spent = sum(d for t, d in self.samples[mark:] if t <= t1)
        return (t1 - t0 - spent) * self.factor(t0, t1)
