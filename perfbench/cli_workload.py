"""The cli workload: ``prony`` commands run one at a time as subprocesses
(``python -m prony.cli`` with PYTHONPATH=src), so each operation pays
interpreter start-up and imports as a user does."""

import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import checks
import inputs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))


def _invoke(argv, env, stdout_path, stderr_path):
    """Run one child; return (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _bytes_in(directory):
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _check_manifest(outdir, input_path):
    """Every artifact carries the digest recorded in manifest.json, and the
    manifest's input digest is the sha256 of the input file."""
    problems = []
    manifest = _read_json(os.path.join(outdir, "manifest.json"))
    digest = manifest.get("digest")
    with open(input_path, "rb") as handle:
        want = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    if manifest.get("input_digest") != want:
        problems.append("other: input_digest is not the sha256 of the input file")
    if sorted(manifest.get("outputs", [])) != sorted(os.listdir(outdir)):
        problems.append("other: manifest outputs differ from the files written")
    for name in manifest.get("outputs", []):
        path = os.path.join(outdir, name)
        if name == "manifest.json" or not os.path.exists(path):
            continue
        if name.endswith(".csv"):
            with open(path) as handle:
                first = handle.readline().strip()
            if first != f"# manifest {digest}":
                problems.append(f"other: {name} carries another manifest digest")
        elif _read_json(path).get("manifest_digest") != digest:
            problems.append(f"other: {name} carries another manifest digest")
    return problems


def _check_curve(entry, outdir, stdout):
    problems = _check_manifest(outdir, stdout["input"])
    if stdout["doc"]["manifest_digest"] != _read_json(os.path.join(outdir, "manifest.json"))["digest"]:
        problems.append("other: curve printed another manifest digest than manifest.json")
    d = entry["d"]
    with open(os.path.join(outdir, "curve.csv")) as handle:
        rows = list(csv.reader(handle))[2:]  # digest line, header
    if len(rows) != stdout["doc"]["n_rows"] or not rows:
        problems.append(f"other: curve.csv has {len(rows)} rows, the command reported "
                        f"{stdout['doc']['n_rows']}")
    for row in rows:
        vals = [float(v) for v in row]
        nodes, amps = vals[1 + d: 1 + 2 * d], vals[1 + 2 * d: 1 + 3 * d]
        problems += checks.check_sample(entry, nodes, amps)
    return problems


def _check_analyze(entry, ref, doc):
    problems = checks.check_endpoints(ref, [c["t0"] for c in doc["collisions"]])
    problems += checks.check_collisions(
        [{"t0": c["t0"], "probes": c["probes"]} for c in doc["collisions"]])
    escapes = {("+inf" if e["direction"] == "inf" else "-inf"):
               {"escaping": e["escaping_indices"], "ambiguous": e["ambiguous_indices"]}
               for e in doc["escapes"]}
    problems += checks.check_escapes(ref, escapes)
    # at d = 3, D > 0 exactly where the cubic is hyperbolic, so the exact
    # leading coefficient says which directions are unbounded
    if ref.disc[-1] > 0 and len(ref.disc) == 5 and set(escapes) != {"+inf", "-inf"}:
        problems.append("other: analyze skipped an unbounded direction")
    return problems


def _check_amplify(cfg, outdir, stdout):
    problems = _check_manifest(outdir, stdout["input"])
    doc = _read_json(os.path.join(outdir, "amplify.json"))
    out = {"errors": {}, "point_slope": doc["point_slope"], "curve_slope": doc["curve_slope"],
           "rows": [[r["h"], r["max_point_err"], r["max_curve_dist"], r["n_failed_trials"]]
                    for r in doc["rows"]]}
    return problems + checks.check_amplify(cfg, out)


class CliChecker:
    def __init__(self):
        self.refs = {}

    def ref(self, entry):
        key = id(entry)
        if key not in self.refs:
            self.refs[key] = checks.FamilyReference(entry)
        return self.refs[key]

    def check(self, name, data, code, stdout_text, outdir, input_path):
        if code != 0:
            return [f"other: prony {name} exited {code}"]
        try:
            doc = json.loads(stdout_text)
            stdout = {"doc": doc, "input": input_path}
            if name == "classify":
                want = self.ref(data).verdicts()
                if (doc["collision"], doc["bounded"]) != want:
                    return [f"other: classify says {doc['collision']}/{doc['bounded']}, "
                            f"exact D says {want}"]
                return []
            if name == "analyze":
                return _check_analyze(data, self.ref(data), doc)
            if name == "curve":
                return _check_curve(data, outdir, stdout)
            return _check_amplify(data, outdir, stdout)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            return [f"other: prony {name} output unreadable: {exc!r}"]


def run(rundir, env, seed, seconds, trace):
    """Whole rounds of the four commands for about ``seconds`` (see
    ``inputs.rounds_done``), then the checks.  Returns (records, probes,
    rounds, commands per round); a record holds name, mode (plain, light or
    traced), wall, peak RSS, problems, bytes written and the child's own
    timings; ``probes`` holds the import probe time before each record's
    invocation and after the last (none in a traced run)."""
    round_ = inputs.write_cli_inputs(os.path.join(rundir, "inputs"))
    python = sys.executable
    records = []
    probes = []  # import probe times: before each invocation, and after the last
    serials = itertools.count()

    def probe():
        if not trace:  # the traced run reports no end-to-end figures
            probes.append(speed.import_probe(env))

    def once(item, mode):
        name, args, _input_path, _data = item
        serial = next(serials)
        outdir = os.path.join(rundir, f"out{serial}")
        argv = list(args)
        if name in ("curve", "amplify"):
            argv += ["--out", outdir]
        stats_path = os.path.join(rundir, f"stats{serial}.json")
        if mode == "plain":
            cmd = [python, "-m", "prony.cli"] + argv
        else:
            cmd = [python, os.path.join(HERE, "cli_child.py"), mode, stats_path] + argv
        stdout_path = os.path.join(rundir, f"stdout{serial}")
        probe()
        code, wall, rss = _invoke(cmd, env, stdout_path, os.path.join(rundir, f"stderr{serial}"))
        records.append({"item": item, "name": name, "mode": mode, "wall": wall,
                        "rss_mb": rss, "code": code, "outdir": outdir,
                        "stdout": stdout_path, "stats": stats_path,
                        "bytes": _bytes_in(outdir) if os.path.isdir(outdir) else 0})

    once(round_[-1], "plain")  # warm-up: fills the page cache with the imports
    records.clear()
    probes.clear()
    start = time.perf_counter()
    rounds = 0
    while True:
        mode = ("light", "traced")[rounds % 2] if trace else "plain"
        for i in inputs.round_order(len(round_), seed, rounds):
            once(round_[i], mode)
        rounds += 1
        if inputs.rounds_done(time.perf_counter() - start, rounds, seconds, trace):
            break
    probe()

    checker = CliChecker()
    for rec in records:
        name, _args, input_path, data = rec.pop("item")
        with open(rec.pop("stdout")) as handle:
            text = handle.read()
        outdir = rec.pop("outdir")
        rec["problems"] = checker.check(name, data, rec.pop("code"), text, outdir, input_path)
        stats_path = rec.pop("stats")
        rec["stats"] = _read_json(stats_path) if rec["mode"] != "plain" else None
    return records, probes, rounds, len(round_)
