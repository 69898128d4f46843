"""The machine's speed, measured by a fixed reference kernel.

The benchmark's machine shares its host. Its speed switches between states
that last seconds: the same eval run takes 1.6 s in one and 2.6 s in the
other. How much of a 25 s run falls in each state would otherwise decide its
medians. So every timed piece of work (a set-up, a round) is bracketed by a
run of this kernel. Times are reported at the reference speed:
`raw seconds / factor`, where `factor` is the mean kernel time around the
piece divided by `REFERENCE_SECONDS`. Raw times and factors go to stderr.

The kernel is fixed numpy work shaped like xrtd's: six encoder-like blocks on
one 12-token sentence and on a 42-sentence batch. It lives here and never
calls the program, so a change to the program cannot change the kernel.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time at the reference speed: its median on the machine named
# in README.md, so that reported times read like that machine's wall times
REFERENCE_SECONDS = 0.045

_rng = np.random.default_rng(0)
_ONE = _rng.standard_normal((1, 12, 64))
_BATCH = _rng.standard_normal((42, 12, 64))
_PROJ = [_rng.standard_normal((64, 64)) * 0.1 for _ in range(4)]
_FFN_IN = _rng.standard_normal((64, 128)) * 0.1
_FFN_OUT = _rng.standard_normal((128, 64)) * 0.1


def _norm(h: np.ndarray) -> np.ndarray:
    c = h - h.mean(axis=-1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5)


def _blocks(h: np.ndarray) -> np.ndarray:
    b, n, _ = h.shape
    for _ in range(6):
        q, k, v = (np.matmul(h, w).reshape(b, n, 4, 16).transpose(0, 2, 1, 3)
                   for w in _PROJ[:3])
        s = np.matmul(q, k.transpose(0, 1, 3, 2)) * 0.25
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        a = np.matmul(e / e.sum(axis=-1, keepdims=True), v)
        h = _norm(h + np.matmul(a.transpose(0, 2, 1, 3).reshape(b, n, 64), _PROJ[3]))
        h = _norm(h + np.matmul(np.tanh(np.matmul(h, _FFN_IN)), _FFN_OUT))
    return h


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(30):
        _blocks(_ONE)
    for _ in range(2):
        _blocks(_BATCH)
    return time.perf_counter() - start


class Clock:
    """Runs the kernel between timed pieces and gives each piece its factor."""

    def __init__(self):
        self._last = kernel_seconds()

    def factor(self) -> float:
        """Speed factor of the piece that just ended (above 1: slower)."""
        now = kernel_seconds()
        factor = (self._last + now) / (2 * REFERENCE_SECONDS)
        self._last = now
        return factor
