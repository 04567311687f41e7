"""Host-speed calibration: a fixed kernel sampled on a timer while commands run.

The benchmark host's speed changes underneath the program. On the 2-vCPU
virtual machine this was written on, a fixed kernel runs at one of two
speeds, one twice the other, switching every fraction of a second to a few
seconds, on each vCPU separately; how much time is spent at the slow speed
drifts over minutes. Medians over the passes of a run cannot remove drift
that lasts longer than the run.

So while a measured command runs, a wall-clock timer (``SIGALRM`` every
``INTERVAL_S``) interrupts it and times one call of a small fixed kernel.
Samples come at even intervals of wall time. A slice of wall time in which
the kernel took ``k`` seconds did ``1 / k`` units of work, so the work done
in a command of ``T`` raw seconds is ``T`` times the mean of ``1 / k``: the
raw time divided by the harmonic mean of the samples. A stage's time is
reported as that work in *normalised seconds*:

    normalised = raw seconds * REFERENCE_S / harmonic mean of kernel samples

The arithmetic mean would be wrong here: when the host spends half the
time at each of two speeds, one twice the other, it gives the slow speed
too much weight and so understates the program's time. A sample stretched by a
stall of the host adds little to the harmonic mean, as a stall adds little
work.

The raw seconds exclude the time spent in the samples, 3% to 5% of it.
A normalised second is a second on a host that runs the kernel in
``REFERENCE_S``.

The kernel is frozen here and shares no code with morphtok, so a change to
the program cannot change it: a program that gets faster or slower shows in
full. It does what the tokenizers do, Viterbi segmentation of words over a
dictionary of substrings. It runs with the garbage collector off, so the
size of the program's heap does not reach it, and warm (see `sample`), so
the program's cache footprint does not either: samples taken while a loop
churned a 2-million-entry dict matched those taken while it churned a
1,000-entry one. Over repeated runs of one CLI command, the logarithm of
its time followed the logarithm of the mean sample with a slope of 0.9 to
1.2, for commands long enough to get 5 or more samples.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from collections import defaultdict

INTERVAL_S = 0.02
# kernel seconds on the reference host (the 2-vCPU "Intel(R) Xeon(R)
# Processor" virtual machine above, Python 3.11.7, at its fast speed); it
# only sets the scale of normalised times
REFERENCE_S = 0.00017

_rng = random.Random(20261017)
_CONSONANTS, _VOWELS = "bcdfglmnprstv", "aeiou"
_WORDS = tuple(
    "".join(_rng.choice(_CONSONANTS) + _rng.choice(_VOWELS) for _ in range(_rng.randint(3, 7)))
    for _ in range(600)
)
_SAMPLE_WORDS = _WORDS[:12]
_MAX_PIECE = 8
_PIECES: dict[str, float] = {c: -8.0 for c in _CONSONANTS + _VOWELS}
for _w in _WORDS:
    for _a in range(len(_w)):
        for _b in range(_a + 1, min(len(_w), _a + _MAX_PIECE) + 1):
            _PIECES[_w[_a:_b]] = _PIECES.get(_w[_a:_b], 0.0) - 1.0 / (_b - _a)


def kernel() -> float:
    """Best segmentation score of each sample word, summed."""
    total = 0.0
    for word in _SAMPLE_WORDS:
        n = len(word)
        best = [0.0] + [float("-inf")] * n
        for end in range(1, n + 1):
            for start in range(max(0, end - _MAX_PIECE), end):
                score = _PIECES.get(word[start:end])
                if score is not None and best[start] + score > best[end]:
                    best[end] = best[start] + score
        total += best[n]
    return total


def sample() -> float:
    """Seconds of one kernel call, with the garbage collector off. An untimed
    call first brings the kernel's code and data back into the caches the
    program has just used, so that the sample measures the host's speed,
    not how much of the cache the program's work displaced."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel samples taken on a timer, filed under the label being measured.

    Use as a context manager around a series of `measure` calls. Between
    them, and outside the context, no samples are taken.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._label: str | None = None
        self._spent = 0.0  # seconds spent in the signal handler
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        label = self._label
        if label is None:
            return
        self._label = None  # a signal due while the kernel runs is dropped
        start = time.perf_counter()
        try:
            self.samples[label].append(sample())
        finally:
            self._spent += time.perf_counter() - start
            self._label = label

    def measure(self, label: str, fn, *args):
        """(fn's result, seconds it took less the time spent sampling)."""
        spent = self._spent
        self._label = label
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self._label = None
        return result, elapsed - (self._spent - spent)

    def normalise(self, raw_s: float, *labels: str) -> float:
        """Raw seconds measured under `labels`, scaled to the reference host's
        speed by the harmonic mean of those labels' samples (of all samples
        if they have none)."""
        samples = [s for label in labels for s in self.samples.get(label, ())]
        if not samples:
            samples = [s for values in self.samples.values() for s in values]
        if not samples:  # everything measured was shorter than INTERVAL_S
            samples = [sample() for _ in range(5)]
        return raw_s * REFERENCE_S / statistics.harmonic_mean(samples)
