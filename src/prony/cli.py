"""Command line front end.

Subcommands: moments, solve, curve, classify, analyze, amplify.  Verdict
commands print JSON to stdout; file-emitting commands (curve, amplify)
write their artifacts into --out together with a run manifest, and every
emitted file carries the manifest digest (JSON field "manifest_digest",
CSV leading comment line), so any artifact can be traced to the exact
invocation that produced it.

All numbers are serialized with 17 significant digits, which round-trips
IEEE doubles exactly; nonfinite values appear as the strings "inf",
"-inf", "nan" to stay inside strict JSON.

Exit codes: 0 success, 2 invalid input, 3 mathematical degeneracy,
4 internal inconsistency.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile

import numpy as np

from . import __version__, closed_forms, curve_analysis, prony_line, prony_solver
from .errors import InconsistentComputation, MathDegeneracy
from .signal_model import MomentVector, Signal, compute_moments


# ---------------------------------------------------------------------------
# serialization

def _format_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return "%.17g" % v


def _scalar(obj):
    return not isinstance(obj, (dict, list, tuple, np.ndarray))


def dumps(obj, level: int = 0) -> str:
    """JSON text with %.17g floats; lists of scalars stay on one line."""
    pad = "  " * level
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps(v, level + 1)}"
            for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if all(_scalar(x) for x in items):
            return "[" + ", ".join(dumps(x) for x in items) + "]"
        body = ",\n".join(pad + "  " + dumps(x, level + 1) for x in items)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % float(v) if isinstance(v, (float, np.floating))
                         else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# manifest plumbing

def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _atomic_write(path: pathlib.Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_outputs(outdir, command, input_path, config, json_docs, csv_docs):
    """Emit artifacts plus manifest.json; returns the manifest digest.

    Every JSON document gains a manifest_digest field and every CSV a
    leading "# manifest" comment, closing the reproducibility chain.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "input_digest": _digest(pathlib.Path(input_path).read_text()),
        "config": config,
        "outputs": sorted(list(json_docs) + list(csv_docs) + ["manifest.json"]),
    }
    digest = _digest(dumps(manifest))
    for name, doc in json_docs.items():
        _atomic_write(outdir / name,
                      dumps({"manifest_digest": digest, **doc}) + "\n")
    for name, (header, rows) in csv_docs.items():
        _atomic_write(outdir / name,
                      f"# manifest {digest}\n" + _csv_text(header, rows))
    _atomic_write(outdir / "manifest.json",
                  dumps({"digest": digest, **manifest}) + "\n")
    return digest


# ---------------------------------------------------------------------------
# input loading

def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _signal_from(doc) -> Signal:
    if (not isinstance(doc, dict) or "amplitudes" not in doc
            or "nodes" not in doc):
        raise ValueError(
            'signal file must hold {"amplitudes": [...], "nodes": [...]}')
    return Signal(doc["amplitudes"], doc["nodes"])


def _moments_from(doc) -> np.ndarray:
    values = doc.get("moments") if isinstance(doc, dict) else doc
    return MomentVector(values).values


# ---------------------------------------------------------------------------
# commands

def cmd_moments(args) -> int:
    signal = _signal_from(_load_json(args.signal_file))
    mv = compute_moments(signal, args.q)
    doc = {"moments": [float(v) for v in mv.values]}
    print(dumps(doc))
    if args.out:
        write_outputs(args.out, "moments", args.signal_file,
                      {"q": args.q}, {"moments.json": doc}, {})
    return 0


def cmd_solve(args) -> int:
    mu = _moments_from(_load_json(args.moments_file))
    signal = prony_solver.solve_complete(mu)
    doc = {"amplitudes": [float(a) for a in signal.amplitudes],
           "nodes": [float(x) for x in signal.nodes]}
    print(dumps(doc))
    if args.out:
        write_outputs(args.out, "solve", args.moments_file, {},
                      {"signal.json": doc}, {})
    return 0


def _default_t_range(domain):
    finite = [v for iv in domain.intervals for v in iv if math.isfinite(v)]
    if domain.intervals and all(
            math.isfinite(lo) and math.isfinite(hi)
            for lo, hi in domain.intervals):
        lo, hi = min(finite), max(finite)
        width = hi - lo
        return lo - 0.1 * width, hi + 0.1 * width
    scale = max([1.0] + [abs(v) for v in finite])
    return -100.0 * scale, 100.0 * scale


def cmd_curve(args) -> int:
    mu = _moments_from(_load_json(args.moments_file))
    if len(mu) % 2 == 0 or len(mu) < 3:
        raise ValueError(
            f"the solution family needs an odd moment count >= 3, got {len(mu)}")
    d = (len(mu) + 1) // 2
    line = prony_line.line_params(mu)

    t_lo, t_hi = _default_t_range(line.domain)
    if args.t_min is not None:
        t_lo = args.t_min
    if args.t_max is not None:
        t_hi = args.t_max
    if not t_lo < t_hi:
        raise ValueError(f"need t-min < t-max, got [{t_lo}, {t_hi}]")
    grid = np.linspace(t_lo, t_hi, args.samples)

    samples = curve_analysis.sample_curve(line, grid)
    if not samples:
        print(f"warning: no sample parameter in [{t_lo:g}, {t_hi:g}] lies in "
              "the hyperbolic set; emitting empty data", file=sys.stderr)

    header = (["t"] + [f"sigma_{k}" for k in range(1, d + 1)]
              + [f"x_{k}" for k in range(1, d + 1)]
              + [f"a_{k}" for k in range(1, d + 1)]
              + ["residual", "product_residual"])
    rows = [[s.t, *s.sigma.sigma, *s.nodes, *s.amplitudes,
             s.residual, s.product_residual] for s in samples]

    sigma_header = ["kind", "t"] + [f"sigma_{k}" for k in range(1, d + 1)]
    sigma_rows = [["line", t, *line.sigma_at(t).sigma] for t in grid]
    if d == 2:
        # the discriminant-zero boundary in (sigma_1, sigma_2) coordinates
        s1_vals = [r[2] for r in sigma_rows]
        lo, hi = min(s1_vals), max(s1_vals)
        pad = 0.1 * (hi - lo) if hi > lo else 1.0
        for s1 in np.linspace(lo - pad, hi + pad, args.samples):
            sigma_rows.append(["parabola", "", s1, s1 * s1 / 4.0])

    digest = write_outputs(
        args.out, "curve", args.moments_file,
        {"samples": args.samples, "t_min": t_lo, "t_max": t_hi},
        {},
        {"curve.csv": (header, rows),
         "sigma_line.csv": (sigma_header, sigma_rows)})
    print(dumps({"manifest_digest": digest, "n_rows": len(rows),
                 "t_min": t_lo, "t_max": t_hi}))
    return 0


def cmd_classify(args) -> int:
    mu = _moments_from(_load_json(args.moments_file))
    if len(mu) == 3:
        result = closed_forms.classify_d2(mu)
    elif len(mu) == 5:
        result = closed_forms.classify_d3(mu)
    else:
        raise ValueError(
            f"classification needs 3 (d=2) or 5 (d=3) moments, got {len(mu)}")
    doc = {"d": result.d, "collision": result.collision,
           "bounded": result.bounded, **result.evidence}
    print(dumps(doc))
    if args.out:
        write_outputs(args.out, "classify", args.moments_file, {},
                      {"classification.json": doc}, {})
    return 0


def _collision_doc(report) -> dict:
    return {
        "t0": report.t0,
        "pair_index": report.pair_index,
        "numerator": report.numerator,
        "numerator_bound": report.numerator_bound,
        "blowup_confirmed": report.blowup_confirmed,
        "probes": [list(row) for row in report.probes],
        "beta": report.beta,
        "predicted_gap": report.predicted_gap,
        "blowup_bound": report.blowup_bound,
        "gap_bound": report.gap_bound,
    }


def _escape_doc(report) -> dict:
    return {
        "direction": report.direction,
        "escaping_indices": list(report.escaping_indices),
        "bounded_indices": list(report.bounded_indices),
        "bounded_limits": [float(v) for v in report.bounded_limits],
        "ambiguous_indices": list(report.ambiguous_indices),
        "hypothesis_met": report.hypothesis_met,
        "probes": [[t, list(nodes)] for t, nodes in report.probes],
        "predicted": list(report.predicted),
        "escape_bound": report.escape_bound,
    }


def cmd_analyze(args) -> int:
    line = prony_line.line_params(_moments_from(_load_json(args.moments_file)))
    collisions = curve_analysis.detect_collisions(line)
    escapes = []
    for direction in (math.inf, -math.inf):
        try:
            escapes.append(_escape_doc(
                curve_analysis.escape_analysis(line, direction)))
        except curve_analysis.NoUnboundedComponent:
            pass
    doc = {"collisions": [_collision_doc(r) for r in collisions],
           "escapes": escapes}
    print(dumps(doc))
    if args.out:
        write_outputs(args.out, "analyze", args.moments_file, {},
                      {"analysis.json": doc}, {})
    return 0


def cmd_amplify(args) -> int:
    config = _load_json(args.config_file)
    if not isinstance(config, dict):
        raise ValueError("amplify config must be a JSON object")
    cfg = prony_solver.NoiseConfig.from_mapping(config)
    result = prony_solver.amplification_experiment(cfg)

    doc = {
        "config": {"d": cfg.d, "epsilon": cfg.epsilon, "trials": cfg.trials,
                   "seed": cfg.seed, "h_grid": list(cfg.h_grid)},
        "rows": [{"h": h, "max_point_err": p, "max_curve_dist": c,
                  "n_failed_trials": f} for h, p, c, f in result.rows],
        "point_slope": result.point_slope,
        "point_intercept": result.point_intercept,
        "point_r2": result.point_r2,
        "curve_slope": result.curve_slope,
        "curve_intercept": result.curve_intercept,
        "curve_r2": result.curve_r2,
    }
    header = ["h", "max_point_err", "max_curve_dist", "n_failed_trials"]
    rows = [list(row) for row in result.rows]
    write_outputs(args.out, "amplify", args.config_file, doc["config"],
                  {"amplify.json": doc}, {"amplify.csv": (header, rows)})
    print(dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prony",
        description="Spike-train reconstruction from power moments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moments of a signal file")
    p.add_argument("signal_file")
    p.add_argument("-q", type=int, required=True, help="highest moment order")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("solve", help="solve a complete (even-length) system")
    p.add_argument("moments_file")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("curve", help="sample the one-missing-moment family")
    p.add_argument("moments_file")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("classify", help="closed-form d=2/d=3 verdicts")
    p.add_argument("moments_file")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="collision and escape certificates")
    p.add_argument("moments_file")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("amplify", help="noise-amplification experiment")
    p.add_argument("config_file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_amplify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistentComputation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MathDegeneracy as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
