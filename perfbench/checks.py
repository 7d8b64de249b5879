"""Reference checks of the program's outputs.

Each check compares an output with a computation made apart from the
program (exact rational algebra in ``exact``, moments recomputed from the
generating signal) or with a property the method guarantees.  A check
returns a list of problems; an operation with any problem counts as failed.
Each problem starts with the fault it belongs to (README.md): "A" for the
hyperbolic domain, "B" for the amplification result check, "D" for family
points that miss the moments, and "other" for anything no known fault
explains.
"""

import math
from fractions import Fraction

import numpy as np

import exact
from inputs import exact_moments

# |det M| computed by the program vs prod a_i * prod (x_j - x_i)^2
DETM_RTOL = 1e-6
# the family point at t* vs the generating signal
GENERATING_RTOL = 1e-6
# a returned sample's moments vs the input, per unit of sum |a_i| |x_i|^k
SAMPLE_MOMENT_RTOL = 1e-6
# a finite domain endpoint must have a root of the exact D within this
# share of max(1, |t0|)
ENDPOINT_RTOL = 1e-6
# collision probes: product-invariant mismatch allowed in every row
PRODUCT_RESIDUAL_MAX = 1e-6
# amplify: fitted slopes within this of -(2d-1) (points), -(2d-2) (curve)
SLOPE_TOL = 0.5
# amplify: worst point error per h vs the numpy route below
POINT_ERROR_RTOL = 1e-6


class FamilyReference:
    """Exact data of one moment vector, computed once and reused for every
    output of that vector."""

    def __init__(self, entry):
        self.entry = entry
        d = entry["d"]
        base, slope = exact.line(entry["mu"])
        self.disc = exact.restricted_discriminant(base, slope)
        self._chain = None
        h = exact.hankel(entry["mu"])
        self.top_left_minor = exact.det([row[: d - 1] for row in h[: d - 1]])
        a = [Fraction(v) for v in entry["amplitudes"]]
        x = [Fraction(v) for v in entry["nodes"]]
        det_m = math.prod(a)
        for i in range(d):
            for j in range(i + 1, d):
                det_m *= (x[j] - x[i]) ** 2
        self.det_m = det_m

    @property
    def chain(self):
        if self._chain is None:
            self._chain = exact.sturm_chain(self.disc)
        return self._chain

    def has_root_near(self, t0, width):
        """True iff the exact D has a real root in [t0 - width, t0 + width]:
        a sign change, else (an even root) an exact Sturm count."""
        lo = Fraction(t0) - Fraction(width)
        hi = Fraction(t0) + Fraction(width)
        if exact.evaluate(self.disc, lo) * exact.evaluate(self.disc, hi) <= 0:
            return True
        return exact.count_real_roots(self.chain, lo, hi) > 0

    def verdicts(self):
        """(collision, bounded) for d = 2, 3 from the exact D: collision iff
        D has a real root (for d = 2 iff a_1 a_2 < 0), bounded iff D has
        full degree 2d-2 and a negative leading coefficient."""
        d = self.entry["d"]
        if d == 2:
            a1, a2 = self.entry["amplitudes"]
            collision = a1 * a2 < 0
        else:
            collision = exact.count_real_roots(self.chain) > 0
        bounded = len(self.disc) == 2 * d - 1 and self.disc[-1] < 0
        return ("yes" if collision else "no"), ("yes" if bounded else "no")


def _raised(call, err):
    if err.startswith("InterpolationInconsistency"):
        fault = "A"
    elif "exceeds point error" in err:
        fault = "B"
    else:
        fault = "other"
    return f"{fault}: {call} raised {err}"


def fault(problem):
    return problem.split(":", 1)[0]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_sample(entry, nodes, amps):
    """Problems with one family point (nodes, amplitudes): it must
    reproduce mu_0..mu_{2d-2}, recomputed exactly here."""
    mu = entry["mu"]
    got = exact_moments(amps, nodes, len(mu))
    problems = []
    for k, (g, m) in enumerate(zip(got, mu)):
        scale = sum(abs(a) * abs(x) ** k for a, x in zip(amps, nodes))
        if abs(float(g) - m) > SAMPLE_MOMENT_RTOL * max(1.0, scale):
            problems.append(f"D: sample misses mu_{k} by {abs(float(g) - m):.3g}")
            break
    return problems


def check_endpoints(ref, endpoints):
    problems = []
    for t0 in endpoints:
        width = ENDPOINT_RTOL * max(1.0, abs(t0))
        if not ref.has_root_near(t0, width):
            problems.append(f"A: endpoint {t0:.17g} is no root of the exact discriminant")
    return problems


def check_collisions(collisions):
    problems = []
    for rep in collisions:
        gaps = [row[1] for row in rep["probes"]]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"other: probe gaps do not shrink toward {rep['t0']:.17g}")
        if any(row[4] > PRODUCT_RESIDUAL_MAX for row in rep["probes"]):
            problems.append(f"other: product residual above {PRODUCT_RESIDUAL_MAX} near {rep['t0']:.17g}")
    return problems


def check_escapes(ref, escapes):
    problems = []
    if ref.top_left_minor == 0:
        return problems
    for key, rep in escapes.items():
        if len(rep["escaping"]) != 1 or rep["ambiguous"]:
            problems.append(f"other: toward {key} {len(rep['escaping'])} nodes escape, "
                            "exactly one must (top-left minor is nonzero)")
    return problems


def check_family(entry, ref, out):
    """All problems with one family operation's output."""
    problems = [_raised(call, err) for call, err in out["errors"].items()]
    d = entry["d"]
    if "detM" in out and not _close(out["detM"], float(ref.det_m), DETM_RTOL):
        problems.append(f"other: det M {out['detM']:.17g} != prod formula {float(ref.det_m):.17g}")
    t_star = entry["t_star"]
    if "intervals" in out:
        if not any(lo < t_star < hi for lo, hi in out["intervals"]):
            problems.append(f"A: t* = {t_star:.17g} lies outside the domain {out['intervals']}")
        problems += check_endpoints(ref, [t0 for t0, _kind in out["endpoints"]])
    problems += check_collisions(out.get("collisions", []))
    problems += check_escapes(ref, out.get("escapes", {}))
    samples = out.get("samples", [])
    at_star = [s for s in samples if s[0] == t_star]
    if not at_star:
        inside = any(lo < t_star < hi for lo, hi in out.get("intervals", []))
        problems.append(("D" if inside else "A") + ": sample_curve returned no point at t*")
    else:
        _, nodes, amps = at_star[0]
        if not (all(_close(g, w, GENERATING_RTOL) for g, w in zip(nodes, entry["nodes"]))
                and all(_close(g, w, GENERATING_RTOL)
                        for g, w in zip(amps, entry["amplitudes"]))):
            problems.append("D: the family point at t* is not the generating signal")
    for _t, nodes, amps in samples:
        problems += check_sample(entry, nodes, amps)
    if d in (2, 3) and "classify" in out:
        want = ref.verdicts()
        if tuple(out["classify"]) != want:
            problems.append(f"other: classify_d{d} says {out['classify']}, exact D says {list(want)}")
    return problems


def check_amplify(cfg, out):
    """Problems with one amplification_experiment result."""
    problems = [_raised(call, err) for call, err in out["errors"].items()]
    if "rows" not in out:
        return problems
    d = cfg["d"]
    if [row[0] for row in out["rows"]] != list(cfg["h_grid"]):
        problems.append("other: rows do not follow h_grid")
    if any(row[3] > cfg["trials"] // 2 for row in out["rows"]):
        problems.append("other: more than half of the trials failed at some h")
    for row, (worst, failed) in zip(out["rows"], independent_point_errors(cfg)):
        if row[3] != failed or abs(row[1] - worst) > POINT_ERROR_RTOL * worst:
            problems.append(f"other: at h={row[0]} the worst point error is {row[1]:.17g}, "
                            f"the numpy route gives {worst:.17g}")
    if abs(out["point_slope"] + (2 * d - 1)) > SLOPE_TOL:
        problems.append(f"other: point slope {out['point_slope']:.3f} is not near {-(2 * d - 1)}")
    if abs(out["curve_slope"] + (2 * d - 2)) > SLOPE_TOL:
        problems.append(f"other: curve slope {out['curve_slope']:.3f} is not near {-(2 * d - 2)}")
    return problems


def independent_point_errors(cfg):
    """Worst point error and failed trials per h, recomputed with numpy
    alone: the cluster of make_cluster_signal (nodes equispaced on [0, h],
    amplitudes +1, -1, ...), moments rounded from exact sums, the noise
    stream the experiment documents (default_rng([seed, h index, trial])),
    a Hankel solve, companion-matrix roots and a Vandermonde solve."""
    d = cfg["d"]
    out = []
    for hi, h in enumerate(cfg["h_grid"]):
        nodes = np.linspace(0.0, h, d)
        amps = np.array([(-1.0) ** i for i in range(d)])
        mu = np.array([float(m) for m in exact_moments(amps, nodes, 2 * d)])
        worst, failed = 0.0, 0
        for trial in range(cfg["trials"]):
            rng = np.random.default_rng([cfg["seed"], hi, trial])
            m = mu + rng.uniform(-cfg["epsilon"], cfg["epsilon"], 2 * d)
            hankel = np.array([[m[i + j] for j in range(d)] for i in range(d)])
            sigma = np.linalg.solve(hankel, -m[d:])[::-1]
            roots = np.roots(np.concatenate([[1.0], sigma]))
            if np.any(roots.imag != 0.0):
                failed += 1
                continue
            x = np.sort(roots.real)
            a = np.linalg.solve(np.vander(x, increasing=True).T, m[:d])
            worst = max(worst, float(np.max(np.abs(a - amps))),
                        float(np.max(np.abs(x - nodes))))
        out.append((worst, failed))
    return out
