"""Machine-speed probe: a separate process that times a fixed kernel.

The benchmark's machine is shared, and the speed at which it runs the same
code drifts by tens of percent within seconds and from one quarter hour to
the next, which is wider than any useful regression bound.  ``run.py``
starts this file as its own process for the whole run.  Every
``INTERVAL_S`` it times ``kernel()``, a fixed piece of work that does not
call the program, in its own thread's CPU time, so waiting for a CPU does
not count and nothing of the worker's process (its heap, its signals, its
threads) enters the timing.  When its standard input closes it prints the
kernel's CPU seconds of every sample as one JSON list and exits.

``factor(samples)`` is the reference kernel time over the mean sampled
time, so ``raw seconds * factor`` estimates a run's seconds at the speed
the machine had when ``REF_KERNEL_S`` was recorded.  One factor serves the
whole run: its set-up probes, its worker and, traced, both passes.

    python3 perfbench/speed.py < /dev/null
"""

from __future__ import annotations

import cmath
import json
import math
import select
import statistics
import sys
import time

import numpy as np

INTERVAL_S = 0.05

#: Typical kernel CPU time on the reference machine (Intel Xeon, 2 vCPUs),
#: so calibrated figures stay near raw ones.
REF_KERNEL_S = 7.4e-4

_COEFFS = [complex((-1) ** k * (k + 1.5), 0.3 * k) for k in range(16)]
_HALF_GAMMA = [math.gamma(m + 0.5) for m in range(17)]
_NODES = [complex(0.05 * k, -0.03 * k) for k in range(64)]
_GRID = np.linspace(-4.0, 4.0, 4096)


def kernel() -> None:
    """A fixed mix of the kinds of work the program does.

    The same operations as the exact algebra at the seed commit (a
    compensated coefficient convolution, then a binomial moment sum),
    per-point polynomial and ``cmath`` evaluations (scalar quadrature
    loops), and a vectorised weighted sum (array quadrature).
    """
    a = _COEFFS
    n = len(a)
    prod = []
    for k in range(2 * n - 1):
        re, im = [], []
        for i in range(max(0, k - n + 1), min(k + 1, n)):
            ai, bj = a[i], a[k - i]
            re.append(ai.real * bj.real)
            re.append(-ai.imag * bj.imag)
            im.append(ai.real * bj.imag)
            im.append(ai.imag * bj.real)
        prod.append(complex(math.fsum(re), math.fsum(im)))
    shift = 0.3 - 0.2j
    terms_re, terms_im = [], []
    for k, ck in enumerate(prod):
        for j in range(0, k + 1, 2):
            t = ck * (math.comb(k, j) * shift ** (k - j) * _HALF_GAMMA[j // 2])
            terms_re.append(t.real)
            terms_im.append(t.imag)
    math.fsum(terms_re)
    math.fsum(terms_im)
    for z in _NODES:
        acc = 0j
        for c in a:
            acc = acc * z + c
        acc * cmath.exp(-0.5 * z * z + 0.25j * z)
    float(np.abs(np.exp(-0.5 * _GRID * _GRID + 0.1j * _GRID)).sum())


def factor(samples: list[float]) -> float:
    """Reference kernel time over the mean of the sampled kernel times.

    The samples are evenly spaced in time and a run's seconds add up how
    slow the machine was over the run, so the mean matches them; the
    median would follow whichever speed held for most of the run.
    """
    if not samples:
        raise ValueError("the speed probe took no sample")
    return REF_KERNEL_S / statistics.fmean(samples)


def main() -> int:
    samples = []
    # select() doubles as the pause between samples and notices the closed
    # standard input (readable at end of file) that ends the run.
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        kernel()  # refill the caches that other processes evicted
        t0 = time.thread_time()
        kernel()
        samples.append(time.thread_time() - t0)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
