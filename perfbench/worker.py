"""Runs one workload's operations against the program in a process of its
own, so that its peak resident set holds the program and not the
benchmark's reference algebra.

    PYTHONPATH=src python3 perfbench/worker.py --workload family --seed 1 \
        --seconds 25 --trace 0 --result out.json
    PYTHONPATH=src python3 perfbench/worker.py --workload family --setup-only

With --setup-only the process imports prony, makes the workload's inputs
and prints the CLOCK_MONOTONIC time at which both were done.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import speed  # noqa: E402

WARMUP_OPS = 8


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _grid(intervals):
    """A few parameters inside each interval of the domain, away from its
    ends, so that sampling stays off the collision boundaries."""
    out = []
    for lo, hi in intervals:
        if math.isinf(lo) and math.isinf(hi):
            out += [-1.0, 0.0, 1.0]
        elif math.isinf(lo):
            step = max(1.0, abs(hi))
            out += [hi - 0.5 * step, hi - 4.0 * step]
        elif math.isinf(hi):
            step = max(1.0, abs(lo))
            out += [lo + 0.5 * step, lo + 4.0 * step]
        else:
            out += [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]
    return out


def family_op(prony, entry):
    """line_params, hyperbolic_domain, detect_collisions, escape_analysis
    toward each unbounded direction, sample_curve and classify_d2/d3 on one
    moment vector.  A call that raises is recorded and the rest still run."""
    mu, d = entry["mu"], entry["d"]
    out = {"errors": {}}
    intervals = []
    try:
        line = prony.line_params(mu)
        out["detM"] = line.detM
        domain = prony.hyperbolic_domain(line)
        intervals = [[float(lo), float(hi)] for lo, hi in domain.intervals]
        out["intervals"] = intervals
        out["endpoints"] = [[float(e.t0), e.kind] for e in domain.endpoints]
    except Exception as exc:  # a program fault: record it, run the rest
        out["errors"]["domain"] = _error(exc)
    try:
        out["collisions"] = [
            {"t0": r.t0, "pair": r.pair_index, "confirmed": r.blowup_confirmed,
             "probes": [list(map(float, row)) for row in r.probes]}
            for r in prony.detect_collisions(mu)]
    except Exception as exc:
        out["errors"]["detect_collisions"] = _error(exc)
    escapes = {}
    directions = ([math.inf] if any(math.isinf(hi) for _, hi in intervals) else []) + \
        ([-math.inf] if any(math.isinf(lo) for lo, _ in intervals) else [])
    for direction in directions:
        key = "+inf" if direction > 0 else "-inf"
        try:
            rep = prony.escape_analysis(mu, direction)
            escapes[key] = {"escaping": list(rep.escaping_indices),
                            "ambiguous": list(rep.ambiguous_indices),
                            "hypothesis_met": bool(rep.hypothesis_met)}
        except Exception as exc:
            out["errors"]["escape_analysis " + key] = _error(exc)
    out["escapes"] = escapes
    grid = [entry["t_star"]] + _grid(intervals)
    try:
        out["samples"] = [[s.t, list(map(float, s.nodes)), list(map(float, s.amplitudes))]
                          for s in prony.sample_curve(mu, grid)]
    except Exception as exc:
        out["errors"]["sample_curve"] = _error(exc)
    if d in (2, 3):
        try:
            c = prony.classify_d2(mu) if d == 2 else prony.classify_d3(mu)
            out["classify"] = [c.collision, c.bounded]
        except Exception as exc:
            out["errors"]["classify"] = _error(exc)
    return out


def amplify_op(prony, cfg):
    """amplification_experiment on one cluster config."""
    out = {"errors": {}}
    try:
        res = prony.amplification_experiment(prony.NoiseConfig(
            d=cfg["d"], epsilon=cfg["epsilon"], trials=cfg["trials"],
            seed=cfg["seed"], h_grid=tuple(cfg["h_grid"])))
        out["rows"] = [list(map(float, row)) for row in res.rows]
        out["point_slope"] = res.point_slope
        out["curve_slope"] = res.curve_slope
    except Exception as exc:
        out["errors"]["amplification_experiment"] = _error(exc)
    return out


def _workload(name, directory=None):
    if name == "cli":
        return inputs.write_cli_inputs(directory), None
    if name == "family":
        return inputs.family_pool(), family_op
    if name == "amplify":
        return inputs.amplify_pool(), amplify_op
    raise ValueError(f"the worker runs family and amplify, not {name!r}")


def paired_overhead(by_round):
    """Median over operations of (latency in a traced round) / (latency of
    the same operation in the untraced round before it), minus 1.  Pairing
    each operation with its neighbour in time keeps the machine's drift
    out of the ratio."""
    ratios = [traced[key] / plain[key]
              for plain, traced in zip(by_round[0::2], by_round[1::2]) for key in plain]
    return statistics.median(ratios) - 1.0


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args):
    import prony
    pool, op = _workload(args.workload, args.input_dir)
    if args.setup_only:
        print(time.monotonic(), flush=True)
        return 0
    for i in range(min(WARMUP_OPS, len(pool))):
        op(prony, pool[i])
    speed.warm_up()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    outputs = {}  # pool index -> {output json: times seen}
    latencies = {"plain": [], "traced": []}
    by_round = []  # pool index -> latency, per round
    probes = []  # probe times: before each untraced operation, and after the last
    clock = time.perf_counter
    start = clock()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        lat = latencies["traced" if traced else "plain"]
        by_round.append({})
        for i in inputs.round_order(len(pool), args.seed, rounds):
            if not traced:
                probes.append(speed.probe())
            t0 = clock()
            out = op(prony, pool[i])
            lat.append(clock() - t0)
            by_round[-1][i] = lat[-1]
            seen = outputs.setdefault(i, {})
            key = json.dumps(out)
            seen[key] = seen.get(key, 0) + 1
        if traced:
            tracer.uninstall()
        rounds += 1
        if inputs.rounds_done(clock() - start, rounds, args.seconds, tracer is not None):
            break
    probes.append(speed.probe())

    result = {
        "rounds": rounds,
        "ops_per_round": len(pool),
        "latencies": latencies,
        "probes": probes,
        "outputs": [[i, key, n] for i, seen in sorted(outputs.items())
                    for key, n in seen.items()],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = {"stats": tracer.stats, "observed": tracer.observed,
                           "traced_rounds": rounds // 2,
                           "overhead": paired_overhead(by_round)}
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--input-dir", help="where --setup-only writes cli inputs")
    return run(parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
