"""A fixed unit of CPU work that measures how fast the host runs right now.

On a shared host the same run can take up to twice as long from one
second to the next, because other tenants contend for the same cores;
the process's own CPU time slows with its wall time, so neither can tell
a slower program from a busier host. The probe is a fixed mix of the
kinds of work the workloads spend their time in: small NumPy array
arithmetic (stepping, energies), a generator over complex numbers
(spectral dedupe) and float-to-text formatting (CSV artifacts). It never
touches tipwave, so a change to the package cannot change it.

``Sampler`` times the probe just before and after a run and, through an
interval timer, at a fixed period during it, so that the probe sees the
host's speed over the whole run. The probe time is taken out of the
run's wall time, and the run's wall time divided by the mean probe time
is the host-independent run time the benchmark reports as ``wall_rel``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

ROUNDS = 1000     # one probe: about 45 ms on a 2-vCPU Xeon host
SAMPLE_ROUNDS = 20
PERIOD_S = 0.02
_SIZE = 256


def probe(rounds: int = ROUNDS) -> float:
    """Wall seconds taken by ``rounds`` rounds of the fixed work."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, _SIZE)
    y = np.empty_like(x)
    roots = [complex(k, 0.5 * k) for k in range(48)]
    acc, lines = 0.0, 0
    for i in range(rounds):
        for _ in range(4):
            np.multiply(x, 0.999, out=y)
            y += 0.001
            x, y = y, x
        z = complex(float(x[i % _SIZE]), 100.0)
        if any(abs(z - w) <= 1e-9 for w in roots):
            acc -= 1.0
        for j in range(6):
            lines += len(f"{acc!r},{float(x[j])!r},{z.real!r}\n")
        acc += float(x[i % _SIZE])
    elapsed = time.perf_counter() - t0
    if not (acc > 0.0 and lines > 0):
        raise RuntimeError("probe computed a wrong value")
    return elapsed


class Sampler:
    """Probe times around and during one run, in units of a full probe."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0  # probe time spent inside the run

    def _tick(self, signum, frame) -> None:
        dt = probe(SAMPLE_ROUNDS)
        self.inside_s += dt
        self.samples.append(dt * ROUNDS / SAMPLE_ROUNDS)

    def __enter__(self) -> "Sampler":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    @property
    def probe_s(self) -> float:
        """Mean time of one full probe over the run."""
        return sum(self.samples) / len(self.samples)
