"""classify_d3 on two fixed d = 3 input streams, the outcomes that move
between two checkouts, and a bound on the wrong verdicts of one checkout,
each against the exact collision and boundedness truth.

    python3 tools/d3_census.py run <checkout> <verdicts.json>
    python3 tools/d3_census.py compare <before.json> <after.json> <census.json>
    python3 tools/d3_census.py check <checkout> <max_wrong_A> <max_wrong_B>

`run` imports prony from `<checkout>/src` and records, per input, the
collision and bounded verdicts of `classify_d3`, or the class and the
message head of what it raised.  `compare` reads two such files, decides
each input's collision exactly (a real root of the restricted discriminant
of the exact line of the float moments, `perfbench/exact.py`) and writes
the counts of both sides and every input whose outcome moved: its verdict
pair, or the class it raised.  Inputs that raise the same class with
another message are counted as `message_only`, not listed.  The bounded
truth is the exact sign of P8 = 4*d1^3*d2 - d1^2*d3^2 of the float moments
(bounded iff P8 > 0), and none where mu0, d1 or P8 is zero, the hypotheses
of the closed form: there a yes/no bounded verdict counts as wrong.  `check`
runs both streams on `<checkout>` and exits 1 where a stream has more wrong
yes/no collision verdicts, or more wrong yes/no bounded verdicts, than its
bound.

Stream A: 20,000 inputs from default_rng([20261019, 2]).  A quarter are
uniform moments in (-2, 2); the rest are the moments, summed exactly and
rounded once, of three-spike signals with nodes uniform in (-1.5, 1.5) and
amplitudes 0.5 to 1.5 with random signs, a third of them with one pair
1e-8 to 1e-3 apart.
Stream B: 4,000 extreme-scale inputs from default_rng([20261019, 3]):
uniform moments in (-2, 2), each entry with probability 1/3 times
10^U(-150, 150).
"""

import collections
import json
import logging
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import exact  # noqa: E402

VERDICTS = ("yes", "no", "indeterminate")


def _moments(amplitudes, nodes):
    a = [Fraction(v) for v in amplitudes]
    x = [Fraction(v) for v in nodes]
    return [float(sum(ai * xi ** k for ai, xi in zip(a, x))) for k in range(5)]


def stream_a():
    rng = np.random.default_rng([20261019, 2])
    for i in range(20000):
        if i % 4 == 0:
            yield rng.uniform(-2, 2, 5).tolist()
            continue
        x = np.sort(rng.uniform(-1.5, 1.5, 3))
        if i % 4 == 1:
            k = int(rng.integers(0, 2))
            x[k + 1] = x[k] + 10 ** rng.uniform(-8, -3)
        a = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
        yield _moments(a.tolist(), x.tolist())


def stream_b():
    rng = np.random.default_rng([20261019, 3])
    for _ in range(4000):
        mu = rng.uniform(-2, 2, 5)
        scaled = rng.random(5) < 1 / 3
        mu[scaled] *= 10.0 ** rng.uniform(-150, 150, int(scaled.sum()))
        yield mu.tolist()


def outcomes(checkout):
    """Per stream, [mu, collision, bounded] or [mu, class, message head]
    of classify_d3 on each input, with prony imported from checkout."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    from prony import closed_forms

    logging.disable(logging.WARNING)
    warnings.simplefilter("ignore")
    out = {}
    for name, stream in (("A", stream_a), ("B", stream_b)):
        rows = out[name] = []
        for mu in stream():
            try:
                c = closed_forms.classify_d3(mu)
                rows.append([mu, c.collision, c.bounded])
            except Exception as exc:  # recorded as the outcome
                rows.append([mu, type(exc).__name__, str(exc).split(":")[0]])
    return out


def run(checkout, path):
    with open(path, "w") as handle:
        json.dump(outcomes(checkout), handle)


def exact_collision(mu):
    """"yes" or "no" from the exact restricted discriminant; None where the
    moments are not finite or M is singular."""
    if not all(map(math.isfinite, mu)):
        return None
    try:
        base, slope = exact.line(mu)
    except ZeroDivisionError:
        return None
    disc = exact.restricted_discriminant(base, slope)
    while disc and disc[-1] == 0:
        disc.pop()
    if len(disc) <= 1:
        return "no" if disc else None
    return "yes" if exact.count_real_roots(exact.sturm_chain(disc)) > 0 else "no"


def exact_bounded(mu):
    """"yes" or "no" from the exact sign of P8; None where a moment is not
    finite or mu0, d1 or P8 is zero."""
    if not all(map(math.isfinite, mu)):
        return None
    m0, m1, m2, m3, _ = map(Fraction, mu)
    d1, d2, d3 = m0 * m2 - m1 * m1, m1 * m3 - m2 * m2, m0 * m3 - m1 * m2
    p8 = 4 * d1 ** 3 * d2 - d1 * d1 * d3 * d3
    if m0 == 0 or d1 == 0 or p8 == 0:
        return None
    return "yes" if p8 > 0 else "no"


def _counts(rows, truth):
    decided = [(r[1], t) for r, t in zip(rows, truth) if r[1] in ("yes", "no")]
    bounded = [(r[2], exact_bounded(r[0])) for r in rows if r[2] in ("yes", "no")]
    return {"yes_no": len(decided),
            "wrong": sum(1 for v, t in decided if t is not None and v != t),
            "indeterminate": sum(1 for r in rows if r[1] == "indeterminate"),
            "bounded_yes_no": len(bounded),
            "bounded_wrong": sum(1 for v, t in bounded if v != t),
            "bounded_indeterminate": sum(1 for r in rows if r[2] == "indeterminate"),
            "raised": dict(collections.Counter(r[1] for r in rows if r[1] not in VERDICTS))}


def _outcome(row):
    # the verdict pair of a classified input, the class of a raised one
    return row[1:] if row[1] in VERDICTS else row[1:2]


def compare(before_path, after_path, path):
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    counts, moved = {}, {}
    for name in before:
        old, new = before[name], after[name]
        if [r[0] for r in old] != [r[0] for r in new]:
            raise SystemExit(f"stream {name}: the two files hold different inputs")
        truth = [exact_collision(r[0]) for r in new]
        counts[name] = {"before": _counts(old, truth), "after": _counts(new, truth),
                        "message_only": sum(1 for r, s in zip(old, new)
                                            if _outcome(r) == _outcome(s) and r[2] != s[2])}
        moved[name] = [{"mu": r[0], "before": r[1:], "after": s[1:], "exact_collision": t}
                       for r, s, t in zip(old, new, truth) if _outcome(r) != _outcome(s)]
    # one moved input a line
    head = json.dumps({"streams": __doc__.split("\n\n")[-1].strip(), "counts": counts}, indent=1)
    body = ",\n".join(f'  "{name}": [\n' + ",\n".join("   " + json.dumps(row) for row in rows)
                      + "\n  ]" for name, rows in moved.items())
    with open(path, "w") as handle:
        handle.write(head[:-2] + ',\n "moved": {\n' + body + "\n }\n}\n")


def check(checkout, max_wrong_a, max_wrong_b):
    failed = False
    bounds = (int(max_wrong_a), int(max_wrong_b))
    for (name, rows), bound in zip(outcomes(checkout).items(), bounds):
        counts = _counts(rows, [exact_collision(r[0]) if r[1] in ("yes", "no") else None
                                for r in rows])
        print(f"stream {name}: collision {counts['wrong']} wrong of {counts['yes_no']} "
              f"yes/no verdicts (at most {bound}), {counts['indeterminate']} indeterminate; "
              f"bounded {counts['bounded_wrong']} wrong of {counts['bounded_yes_no']} "
              f"(at most {bound}), {counts['bounded_indeterminate']} indeterminate; "
              f"raised {counts['raised']}")
        failed |= max(counts["wrong"], counts["bounded_wrong"]) > bound
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    {"run": run, "compare": compare, "check": check}[command](*args)
