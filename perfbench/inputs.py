"""Workload inputs, made from fixed numpy random streams; moments are
summed exactly and rounded once.

The operation set of every workload is the same in every run: faults A
and D (see README.md) fail on a share of the unscreened family vectors
that depends on which vectors are drawn, so the vectors come from streams
fixed here and ``--seed`` only sets the order in which each round visits
them.  That keeps the share of failed operations identical in every run.
"""

from fractions import Fraction

import numpy as np

# base seed of the family stream; the stream for order d is [BASE_SEED, d]
BASE_SEED = 1803_01685
FAMILY_ORDERS = (2, 3, 4, 5)
FAMILY_PER_ORDER = 20

# amplify configs: three d = 2 and two d = 3 clusters, so that the median and
# the 90th percentile of the per-config latency each fall inside one order
AMPLIFY_EPSILON = 1e-10
AMPLIFY_H_GRID = (0.4, 0.2, 0.1, 0.05)
AMPLIFY_CONFIGS = (
    {"d": 2, "trials": 40, "seed": 0},
    {"d": 2, "trials": 40, "seed": 1},
    {"d": 2, "trials": 40, "seed": 2},
    {"d": 3, "trials": 16, "seed": 0},
    {"d": 3, "trials": 16, "seed": 1},
)


def exact_moments(amplitudes, nodes, count):
    """mu_0 .. mu_{count-1} of a float signal, exactly, as Fractions."""
    a = [Fraction(float(v)) for v in amplitudes]
    x = [Fraction(float(v)) for v in nodes]
    return [sum(ai * xi ** k for ai, xi in zip(a, x)) for k in range(count)]


def family_signal(rng, d):
    """d nodes of order 1 with gaps in [0.5, 1], amplitudes of magnitude
    [0.5, 1.5] with random signs."""
    x0 = rng.uniform(-1.0, 0.0)
    nodes = x0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.0, d - 1))])
    amps = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
    return [float(v) for v in amps], [float(v) for v in nodes]


def family_pool():
    """Family vectors: dicts with the generating signal, the moments
    mu_0..mu_{2d-2} the program receives (correctly rounded), and the
    parameter t* = -mu_{2d-1} of the generating signal on its line."""
    pool = []
    for d in FAMILY_ORDERS:
        rng = np.random.default_rng([BASE_SEED, d])
        for _ in range(FAMILY_PER_ORDER):
            amps, nodes = family_signal(rng, d)
            mu = exact_moments(amps, nodes, 2 * d)
            pool.append({
                "d": d,
                "amplitudes": amps,
                "nodes": nodes,
                "mu": [float(m) for m in mu[: 2 * d - 1]],
                "t_star": float(-mu[2 * d - 1]),
            })
    return pool


def amplify_pool():
    return [dict(cfg, epsilon=AMPLIFY_EPSILON, h_grid=list(AMPLIFY_H_GRID))
            for cfg in AMPLIFY_CONFIGS]


def round_order(n, seed, round_index):
    """The order in which round ``round_index`` visits n operations."""
    rng = np.random.default_rng([seed, round_index])
    return [int(i) for i in rng.permutation(n)]


def rounds_done(elapsed, rounds, seconds, paired):
    """Whether a run that has spent ``elapsed`` seconds on ``rounds`` whole
    rounds stops: when one more round would end further past ``seconds``
    than stopping now falls short of it.  Paired (traced) runs stop only
    after an even number of rounds."""
    if paired and rounds % 2:
        return False
    return elapsed + 0.5 * elapsed / rounds >= seconds


# cli: one round runs each command once, on fixed family vectors and the
# first amplify config
CLI_VECTORS = {"classify": 20, "analyze": 21, "curve": 22}  # family pool, d = 3
CLI_AMPLIFY_CONFIG = 0


def write_cli_inputs(directory):
    """Write the cli workload's input files into ``directory``; return the
    round's invocations as (name, prony arguments, input file, input)."""
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    pool = family_pool()
    round_ = []
    for name, index in CLI_VECTORS.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as handle:
            json.dump({"moments": pool[index]["mu"]}, handle)
        round_.append((name, [name, path], path, pool[index]))
    cfg = amplify_pool()[CLI_AMPLIFY_CONFIG]
    path = os.path.join(directory, "amplify.json")
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    round_.append(("amplify", ["amplify", path], path, cfg))
    return round_
