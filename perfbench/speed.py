"""The host's speed, measured next to every timed operation.

The benchmark runs on a few shared vCPUs whose speed drifts by up to 1.5x
within a minute (README.md, "Host speed").  Every timed quantity is
therefore reported at a fixed reference speed: its wall time is multiplied
by the reference time of a fixed probe over the probe's time measured
around it.  The probes run no code of the program, so a change to the
program moves the scaled times as it moves the wall times, while a slower
host moves the probes as well.

Two probes: ``probe`` computes in the calling process (the interpreter and
numpy), next to in-process operations; ``import_probe`` starts a fresh
interpreter that imports what prony imports from the standard library,
numpy and scipy, next to operations that start interpreters: their time
goes mostly to start-up and imports, which drift apart from compute.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# probe times on the reference host (the medians of the probes on a 2-vCPU
# Xeon VM at 2.1 GHz, between operations); scaled times are wall times
# converted to that speed
REFERENCE_S = 0.0017
IMPORT_REFERENCE_S = 0.85

IMPORTS = ("import argparse, csv, hashlib, io, json, logging, math, os, pathlib, "
           "tempfile, numpy, numpy.polynomial, scipy.optimize")

_COEFFS = np.array([1.0, -3.0, 0.5, 2.0, -1.0, 0.25])


def _work():
    acc = 0.0
    for k in range(1, 700):
        acc += math.sqrt(k) / k
    c = _COEFFS
    for _ in range(30):
        r = np.roots(c)
        c = _COEFFS + 1e-12 * float(np.abs(r).max())
    return acc


def probe():
    """Seconds taken by one fixed probe computation."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def warm_up(n=20):
    for _ in range(n):
        _work()


def import_probe(env):
    """Seconds from starting a fresh interpreter to its imports done and
    its exit, as a subprocess with environment ``env``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def local_factors(probes, count, reference):
    """Scale factors for ``count`` operations timed in a row, where
    ``probes[j]`` was measured just before operation j and ``probes[count]``
    just after the last: operation j is scaled by ``reference`` over the
    median of the (up to) four probes around it."""
    if len(probes) != count + 1:
        raise ValueError(f"{len(probes)} probes for {count} operations")
    return [reference / statistics.median(probes[max(0, j - 1): j + 3])
            for j in range(count)]
