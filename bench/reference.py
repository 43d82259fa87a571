"""Gauges the shared machine's current speed during a measured iteration.

Two fixed reference computations stand for what subsense spends its time
on: one small float64 transformer step of quickstart size (RMS norm,
two-head attention, a tanh GELU with its cube, a backward-like product),
and feature-prep-like Python text work (split, strip, look up, build
records). They use numpy and the standard library only, so they stay the
same whichever program version is measured.

``SpeedGauge`` runs both from a SIGALRM handler once per interval, in the
middle of whatever the program is doing, with the garbage collector held
off. ``slowdown`` mixes the two median times in the proportions a workload
spends on such work, each relative to a fixed nominal time, so 1.0 means
the machine ran at nominal speed. ``clock`` is a work clock that leaves
out the time spent in the handler.

Set-up is gauged from outside the program instead: run as a script,

    python3 bench/reference.py

starts an interpreter, imports numpy and takes ``PROCESS_SAMPLES`` samples,
like a set-up worker starts, imports and computes. Its wall time over
``PROCESS_NOMINAL_S`` is the machine's slowdown for set-up.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

_B, _T, _D, _H, _F = 32, 17, 32, 2, 64
_GELU_C, _GELU_A = float(np.sqrt(2.0 / np.pi)), 0.044715
_WORDS = ("the council said new budget is not very good for town and people were "
          "quite angry about it muslim women great awful fed up really never").split()
_LEXICON = {w: (i % 7) / 7.0 for i, w in enumerate(_WORDS) if len(w) > 3}
_COMMENTS = tuple(
    " ".join(_WORDS[(i * 7 + j * 3) % len(_WORDS)] + ("," if j % 5 == 4 else "")
             for j in range(12 + i % 20)).capitalize() + "!"
    for i in range(450)
)
# Seconds one sample of each component takes at nominal speed (a quiet
# moment on the 2-vCPU Xeon VM the benchmark was tuned on). Fixed, so that
# slowdowns compare across runs and program versions.
NOMINAL_S = {"numpy": 0.0085, "python": 0.0053}
_STEPS_PER_SAMPLE = 2
# Samples one reference process takes, and its wall time at nominal speed
# (start-up and numpy import included), on the same VM.
PROCESS_SAMPLES = 30
PROCESS_NOMINAL_S = 0.6


def _numpy_step(x, weights) -> float:
    wq, wk, wv, wo, w1, w2 = weights
    a = x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-9)

    def heads(m):
        return (a @ m).reshape(_B, _T, _H, _D // _H).transpose(0, 2, 1, 3)

    q, k, v = heads(wq), heads(wk), heads(wv)
    s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(_D // _H)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    h = a + (p @ v).transpose(0, 2, 1, 3).reshape(_B, _T, _D) @ wo
    u = h @ w1
    t = np.tanh(_GELU_C * (u + _GELU_A * u**3))
    z = (0.5 * u * (1.0 + t)) @ w2
    du = (z @ w2.T) * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C
                       * (1.0 + 3.0 * _GELU_A * u**2))
    return float((h.reshape(-1, _D).T @ du.reshape(-1, _F)).sum())


def _python_step() -> float:
    records = []
    for text in _COMMENTS:
        tokens = [t.strip(",.!?") for t in text.lower().split()]
        scores = [_LEXICON[t] for t in tokens if t in _LEXICON]
        records.append((tuple(tokens), sum(scores) / max(1, len(scores)),
                        any(t in ("muslim", "women") for t in tokens)))
    records.sort(key=lambda r: (r[1], len(r[0])))
    return sum(r[1] for r in records)


class SpeedGauge:
    """Samples both reference components every ``interval`` seconds while active."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: dict[str, list[float]] = {"numpy": [], "python": []}
        self.paused = 0.0
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((_B, _T, _D)) * 0.5
        self._weights = [rng.standard_normal(shape) * 0.2
                         for shape in ((_D, _D),) * 4 + ((_D, _F), (_F, _D))]
        self._previous = None

    def clock(self) -> float:
        """Seconds of work: wall time minus time spent sampling."""
        return time.perf_counter() - self.paused

    def sample(self, *_signal_args) -> None:
        # A collection started by the reference's allocations would walk the
        # program's heap and be charged to the reference; defer it.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            value = sum(_numpy_step(self._x, self._weights) for _ in range(_STEPS_PER_SAMPLE))
            middle = time.perf_counter()
            value += sum(_python_step() for _ in range(_STEPS_PER_SAMPLE))
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        if value != value:  # consume the results; NaN would mean a broken numpy
            raise ArithmeticError("reference computation produced NaN")
        self.samples["numpy"].append(middle - start)
        self.samples["python"].append(end - middle)
        self.paused += time.perf_counter() - start

    def seconds(self) -> dict[str, float]:
        """Median time of each component over the samples taken."""
        return {k: statistics.median(v) for k, v in self.samples.items()}

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def slowdown(seconds: dict[str, float], mix: dict[str, float]) -> float:
    """The machine's slowdown against nominal speed for a workload's mix of
    numpy and Python work (weights summing to 1)."""
    return sum(w * seconds[k] / NOMINAL_S[k] for k, w in mix.items())


if __name__ == "__main__":
    gauge = SpeedGauge()
    for _ in range(PROCESS_SAMPLES):
        gauge.sample()
