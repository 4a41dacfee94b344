"""Host-speed calibration for the end-to-end times.

On a shared machine the same work runs up to twice as slowly from one
second to the next, in CPU time as well as wall time, as other tenants
come and go.  Raw seconds from two runs therefore differ by more than
the changes the benchmark has to resolve.  While a ``Calibrator`` is
active, a wall-clock timer interrupts the process every ``INTERVAL_S``
and times a tiny fixed reference kernel.  A block of work that took T
seconds, sampler time excluded, is reported as T times the mean of
``NOMINAL_S / kernel time`` over the samples taken during it: the
seconds it would take on a host where the kernel takes NOMINAL_S.  The
detail line keeps the raw seconds and the measured host speed.

The kernel imitates the library's instruction mix (short Python loops
over small numpy arrays, a tanh recurrence, a log-space lattice sweep,
JSON of floats) and shares no code with it, so a change to the library
cannot move the reference.  Editing the kernel, NOMINAL_S or
INTERVAL_S rescales every calibrated time and needs a fresh baseline.
"""

import json
import signal
import time

import numpy as np

NOMINAL_S = 0.001
INTERVAL_S = 0.02
_REPS = 2


def _kernel():
    rng = np.random.default_rng(0)
    R = 0.3 * rng.normal(size=(16, 16))
    W = 0.3 * rng.normal(size=(16, 8))
    x = rng.normal(size=(30, 8))
    lp = np.log(rng.dirichlet(np.ones(11), size=30))
    total = 0.0
    for _ in range(_REPS):
        h = np.tanh(x @ W.T)
        prev = np.zeros(16)
        for t in range(len(h)):
            prev = np.tanh(h[t] + prev @ R.T)
        a = lp[0].copy()
        for t in range(1, len(lp)):
            nxt = a.copy()
            nxt[1:] = np.logaddexp(nxt[1:], a[:-1])
            nxt[2:] = np.where(nxt[2:] > -5.0, np.logaddexp(nxt[2:], a[:-2]), nxt[2:])
            a = nxt + lp[t]
        total += sum(json.loads(json.dumps(prev.tolist()))) + float(a.max())
    return total


class Calibrator:
    """Samples the reference kernel on a timer while active (use it as a
    context manager) and converts measured blocks to nominal seconds."""

    def __init__(self):
        self.samples = []       # reference kernel seconds, in time order
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:          # a tick that lands inside the handler
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def block(self, mark, seconds):
        """(raw, calibrated) seconds of a block that began at ``mark``
        and took ``seconds`` of wall time.  A block too short to hold a
        sample takes the speed of the last few samples before it; with
        no samples at all the calibrated time equals the raw time."""
        inside = self.samples[mark:]
        raw = seconds - sum(inside)
        speed = inside or self.samples[max(0, mark - 3):mark]
        if not speed:
            return raw, raw
        return raw, raw * float(np.mean([NOMINAL_S / k for k in speed]))

    def host_speed(self):
        """Median of NOMINAL_S over the kernel time (1 = nominal)."""
        return NOMINAL_S / float(np.median(self.samples)) if self.samples else 0.0
