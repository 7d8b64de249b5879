"""Benchmark of the prony library: the family, amplify and cli workloads.

Run from the root of the repository (the package is imported from src/,
not installed):

    python3 perfbench/run.py --workload family --seed 1 --seconds 25 --trace 0

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones (see README.md).  Result and trace files
go to perfbench_out/ at the root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import cli_workload  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("family", "amplify", "cli")
SETUP_REPEATS = 5
IMPORT_PROBES = 5
OUT_DIR = "perfbench_out"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import prony.cli; "
                "print(time.perf_counter() - t)")


def child_env(root):
    env = dict(os.environ)
    env.pop("PRONY_SEED", None)  # would override the amplify configs' seeds
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_argv(workload, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, *extra]


def measure_setup(rundir, env, workload):
    """Median over fresh interpreters of the time from process start to
    prony imported and the workload's inputs made, at the reference speed,
    and the same median of the wall times.  Import probes run before the
    first interpreter and after each one; an interpreter is scaled by the
    two probes around it."""
    probes, wall = [speed.import_probe(env)], []
    for k in range(SETUP_REPEATS):
        argv = worker_argv(workload, "--setup-only", "--input-dir",
                           os.path.join(rundir, f"setup{k}"))
        t0 = time.monotonic()
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        wall.append(float(done.stdout.split()[-1]) - t0)
        probes.append(speed.import_probe(env))
    scaled = [w * speed.IMPORT_REFERENCE_S / statistics.mean(probes[k:k + 2])
              for k, w in enumerate(wall)]
    return statistics.median(scaled), statistics.median(wall)


def measure_import(env):
    """Median over fresh interpreters of the time to import prony.cli."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def latency_metrics(latencies, probes, reference):
    """ops_per_s and the latency percentiles of one run's operations, at the
    reference speed: each wall time is scaled by the probes around it."""
    factors = speed.local_factors(probes, len(latencies), reference)
    ms = [1000.0 * v * f for v, f in zip(latencies, factors)]
    return {
        "ops_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
    }


def end_to_end_metrics(run, setup):
    metrics = {"setup_s": (setup[0], "s")}
    metrics.update(latency_metrics(run["latencies"], run["probes"], run["reference"]))
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    return metrics


def wall_metrics(run, setup):
    """The same figures from the unscaled wall times, for the result file."""
    metrics = {"setup_s": setup[1]}
    ones = [1.0] * (len(run["latencies"]) + 1)
    metrics.update({k: v for k, (v, _u) in latency_metrics(run["latencies"], ones, 1.0).items()})
    metrics["probe_ms"] = 1000.0 * statistics.median(run["probes"])
    return metrics


def layer_metrics(trace, import_s):
    """Per-layer metrics from the tracer's aggregates over the traced
    rounds: call counts per round, self seconds per operation, ratios."""
    stats, observed, rounds = trace["stats"], trace["observed"], trace["rounds"]
    ops = rounds * trace["ops_per_round"]
    layers = {layer: [0, 0.0] for layer in LAYERS.values()}
    for key, (calls, total, child, _raised) in stats.items():
        layer = layers[key.split(".", 1)[0]]
        layer[0] += calls
        layer[1] += total - child

    def calls(key):
        return stats.get(key, [0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    domains = calls("prony_line.hyperbolic_domain")
    solves = calls("prony_solver.solve_complete")
    solves_raised = stats.get("prony_solver.solve_complete", [0, 0, 0, 0])[3]
    cli = trace["cli"]
    return {
        "kernels.calls": (layers["kernels"][0] / rounds, "count"),
        "kernels.self_s": (layers["kernels"][1] / ops, "s"),
        "poly_engine.calls": (layers["poly_engine"][0] / rounds, "count"),
        "poly_engine.self_s": (layers["poly_engine"][1] / ops, "s"),
        "poly_engine.is_hyperbolic.calls": (calls("poly_engine.is_hyperbolic") / rounds, "count"),
        "poly_engine.discriminant.calls": (calls("poly_engine.discriminant") / rounds, "count"),
        "poly_engine.real_roots.calls": (calls("poly_engine.real_roots") / rounds, "count"),
        "signal_model.self_s": (layers["signal_model"][1] / ops, "s"),
        "signal_model.vieta_inverse.calls": (calls("signal_model.vieta_inverse") / rounds, "count"),
        "prony_line.self_s": (layers["prony_line"][1] / ops, "s"),
        "prony_line.line_params.calls": (calls("prony_line.line_params") / rounds, "count"),
        "prony_line.hyperbolic_domain.calls": (domains / rounds, "count"),
        "prony_line.domains_per_op": (domains / ops, "count"),
        "prony_line.discriminants_per_domain": (
            ratio(observed["domain_discriminants"], domains), "count"),
        "curve_analysis.self_s": (layers["curve_analysis"][1] / ops, "s"),
        "curve_analysis.certified_endpoint_ratio": (
            ratio(observed["collision_reports"], observed["collision_endpoints"]), "ratio"),
        "closed_forms.self_s": (layers["closed_forms"][1] / ops, "s"),
        "prony_solver.self_s": (layers["prony_solver"][1] / ops, "s"),
        "prony_solver.solve_complete.calls": (solves / rounds, "count"),
        "prony_solver.valid_trial_ratio": (ratio(solves - solves_raised, solves), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.compute_s": (cli["compute_s"], "s"),
        "cli.write_s": (cli["write_s"], "s"),
        "cli.bytes_written": (cli["bytes_written"], "bytes"),
        "trace.overhead": (trace["overhead"], "ratio"),
    }


def _tally(problem_lists):
    """Failed operations, failed operations per fault, and the distinct
    problems found, from (problems, times seen) pairs."""
    failed, faults, seen = 0, {}, set()
    for problems, n in problem_lists:
        if problems:
            failed += n
            seen.update(problems)
            for f in sorted({checks.fault(p) for p in problems}):
                faults[f] = faults.get(f, 0) + n
    return failed, faults, sorted(seen)


def python_workload(args, rundir, env):
    """family or amplify: run the worker, check every distinct output."""
    result_path = os.path.join(rundir, "worker.json")
    argv = worker_argv(args.workload, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace),
                       "--result", result_path)
    with open(os.path.join(rundir, "worker.stderr"), "w") as err:
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=err, check=True)
    with open(result_path) as handle:
        res = json.load(handle)

    if args.workload == "family":
        pool = inputs.family_pool()
        refs = {}

        def check(i, out):
            if i not in refs:
                refs[i] = checks.FamilyReference(pool[i])
            return checks.check_family(pool[i], refs[i], out)
    else:
        pool = inputs.amplify_pool()

        def check(i, out):
            return checks.check_amplify(pool[i], out)

    failed, faults, problems = _tally((check(i, json.loads(key)), n)
                                      for i, key, n in res["outputs"])
    attempted = res["rounds"] * res["ops_per_round"]
    lat = res["latencies"]
    run = {"attempted": attempted, "failed": failed, "faults": faults, "problems": problems,
           "complete": sum(n for _i, _key, n in res["outputs"]) == attempted,
           "latencies": lat["plain"], "probes": res["probes"],
           "reference": speed.REFERENCE_S,
           "peak_rss_mb": res["peak_rss_mb"]}
    if args.trace:
        tr = res["trace"]
        run["trace"] = {"stats": tr["stats"], "observed": tr["observed"],
                        "rounds": tr["traced_rounds"], "ops_per_round": res["ops_per_round"],
                        "overhead": tr["overhead"],
                        "cli": {"compute_s": 0.0, "write_s": 0.0, "bytes_written": 0.0}}
    return run


def cli_run(args, rundir, env):
    """cli: the parent runs the commands itself, one at a time."""
    records, probes, rounds, per_round = cli_workload.run(rundir, env, args.seed,
                                                          args.seconds, args.trace)
    failed, faults, problems = _tally((rec["problems"], 1) for rec in records)
    plain = [r for r in records if r["mode"] != "traced"]
    run = {"attempted": len(records), "failed": failed, "faults": faults, "problems": problems,
           "complete": len(records) == rounds * per_round,
           "latencies": [r["wall"] for r in plain], "probes": probes,
           "reference": speed.IMPORT_REFERENCE_S,
           "peak_rss_mb": max(r["rss_mb"] for r in plain)}
    if args.trace:
        traced = [r for r in records if r["mode"] == "traced"]
        stats = {}
        observed = dict.fromkeys(Tracer().observed, 0)
        for rec in traced:
            for key, row in rec["stats"]["trace"]["stats"].items():
                acc = stats.setdefault(key, [0, 0.0, 0.0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
            for key, v in rec["stats"]["trace"]["observed"].items():
                observed[key] += v
        writes = [r["stats"]["write_s"] for r in plain if r["name"] in ("curve", "amplify")]
        run["trace"] = {
            "stats": stats, "observed": observed, "rounds": rounds // 2,
            "ops_per_round": per_round,
            "overhead": worker.paired_overhead(
                [{r["name"]: r["wall"] for r in records[k:k + per_round]}
                 for k in range(0, len(records), per_round)]),
            "cli": {"compute_s": statistics.median(r["stats"]["main_s"] - r["stats"]["write_s"]
                                                   for r in plain),
                    "write_s": statistics.median(writes),
                    "bytes_written": sum(r["bytes"] for r in plain) / (rounds // 2)}}
    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prony", "__init__.py")):
        print("error: run from the repository root; src/prony is missing", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    rundir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(rundir)
    env = child_env(root)
    wall = None
    try:
        setup = None if args.trace else measure_setup(rundir, env, args.workload)
        workload = cli_run if args.workload == "cli" else python_workload
        run = workload(args, rundir, env)
        if args.trace:
            metrics = layer_metrics(run["trace"], measure_import(env))
        else:
            metrics = end_to_end_metrics(run, setup)
            wall = wall_metrics(run, setup)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    # a failure that no known fault explains means the program broke
    correct = run["complete"] and "other" not in run["faults"]
    doc = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as handle:
        json.dump(dict(doc, failed_by_fault=run["faults"], problems=run["problems"],
                       wall_metrics=wall), handle, indent=1)
    if args.trace:
        tr = run["trace"]
        functions = {key: {"calls": c, "total_s": t, "self_s": t - ch, "raised": r}
                     for key, (c, t, ch, r) in sorted(tr["stats"].items())}
        with open(os.path.join(out_dir, f"trace-{stem}.json"), "w") as handle:
            json.dump({"traced_rounds": tr["rounds"], "ops_per_round": tr["ops_per_round"],
                       "observed": tr["observed"], "functions": functions}, handle, indent=1)
    print(f"failed operations by fault: {run['faults']}", file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
