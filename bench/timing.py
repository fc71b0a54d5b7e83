"""Speed-normalized timing: a calibration kernel run at every work boundary.

The vCPUs this benchmark was written on switch between two speeds about
1.7x apart, in phases lasting seconds, so raw wall time does not repeat
within a tenth.  Every boundary between timed pieces of work (a training
batch, an oracle solve, a verify check) runs a short fixed kernel of small
numpy and scipy operations in a Python loop and records its time ``c``.  A piece of
work with raw time ``t`` is reported as ``t * REF_CALIB_S / c``,
where ``c`` is the median of the six calibrations nearest to it, three
before and three after: phases last seconds, while one calibration is only
good to a few percent.  The kernel's own time is left out of every timed
piece and of every trace span.
"""

import statistics
import time

import numpy as np
from scipy import sparse

#: Calibration time (seconds) that normalized times are expressed against:
#: the kernel's typical time in the fast phase of a shared 2-vCPU x86-64 VM
#: (Python 3.11, numpy 2.4, scipy 1.17).  Any fixed value works; it only
#: sets the scale.
REF_CALIB_S = 185e-6

_CAL_LOOPS = 4
_CAL_REPEATS = 3
_rng = np.random.default_rng(0)
_CAL_SPARSE = sparse.csr_array(np.kron(np.eye(6), np.ones((3, 4))))
_CAL_WEIGHTS = _rng.standard_normal((6, 19))
_CAL_ACTIONS = [_rng.standard_normal(4) for _ in range(6)]
_CAL_SYSTEM = np.eye(5) * 3.0 + 0.1
del _rng


def _kernel() -> float:
    """A synthetic decentralized step: the mix of Python and small-array work netdac does.

    Per-agent action lists, concatenation, a sparse feature map, a critic
    update with an outer product, a Gaussian draw, a 5x5 solve, dict and
    scalar bookkeeping.  It shares no code with netdac, so changes to
    netdac never change the yardstick.
    """
    rng = np.random.default_rng(1)
    totals = {}
    acc = 0.0
    for k in range(_CAL_LOOPS):
        acts = [a + 0.01 * k for a in _CAL_ACTIONS]
        flat = np.concatenate(acts)
        phi = np.ones(19)
        phi[:18] = _CAL_SPARSE @ flat
        noise = 0.1 * rng.standard_normal(24)
        delta = _CAL_WEIGHTS @ phi - 0.5
        weights = _CAL_WEIGHTS + 0.01 * delta[:, None] * phi[None, :]
        x = np.linalg.solve(_CAL_SYSTEM, flat[:5])
        totals[k % 3] = totals.get(k % 3, 0.0) + float(delta @ delta)
        acc += float(weights.sum()) + float(x.sum()) + float(noise.sum())
        acc += sum(float(a[0]) for a in acts)
    return acc + sum(totals.values())


def calibrate() -> float:
    """Seconds the kernel takes now: the fastest of a few back-to-back runs."""
    best = float("inf")
    for _ in range(_CAL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Laps of timed work separated by calibration runs.

    ``lap(label)`` closes the piece of work begun at the previous boundary,
    calibrates, and starts the next piece after the calibration; ``skip()``
    restarts the current piece without recording (for untimed checks).
    ``now()`` is wall time minus all calibration time so far, so trace spans
    that enclose boundaries do not count the kernel either.
    """

    def __init__(self):
        self.laps = []  # (label, raw seconds, index of the calibration after it)
        self.calibs = []
        self._scaled = []  # see scaled()
        self.excluded = 0.0
        self._calib = self._calibrate()
        self._start = time.perf_counter()

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        c = calibrate()
        self.calibs.append(c)
        self.excluded += time.perf_counter() - t0
        return c

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def factor(self) -> float:
        """Scale for work done since the latest calibration."""
        return REF_CALIB_S / self._calib

    def lap(self, label) -> None:
        raw = time.perf_counter() - self._start
        self._calib = self._calibrate()
        if label is not None:
            self.laps.append((label, raw, len(self.calibs) - 1))
        self._start = time.perf_counter()

    def calib_near(self, index: int) -> float:
        """Median of the three calibrations before and the three after a lap."""
        return statistics.median(self.calibs[max(index - 3, 0) : index + 3])

    def skip(self) -> None:
        self._start = time.perf_counter()

    def scaled(self) -> list:
        """(label, raw seconds, normalized seconds) of every lap."""
        if len(self._scaled) != len(self.laps):
            self._scaled = [
                (label, t, t * REF_CALIB_S / self.calib_near(index))
                for label, t, index in self.laps
            ]
        return self._scaled

    def times(self, keep) -> tuple:
        """(raw, normalized) lists of the laps whose label satisfies ``keep``."""
        chosen = [(raw, norm) for label, raw, norm in self.scaled() if keep(label)]
        return [raw for raw, _ in chosen], [norm for _, norm in chosen]

    def speed_factor(self) -> float:
        """REF_CALIB_S over the run's median calibration (above 1: faster)."""
        return REF_CALIB_S / statistics.median(self.calibs)


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), linear between order statistics."""
    return float(np.percentile(np.asarray(values, dtype=float), q))
