"""Command line front end tests.

Every command is exercised through main(argv) with real files; stdout is
parsed back as JSON.  The float serializer promises 17 significant
digits, which is exactly the precision that round-trips IEEE doubles, so
re-ingested output must compare equal bit for bit.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import SINGULAR_LU_MU
from prony import cli, prony_line, prony_solver
from prony.errors import InconsistentComputation

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# serializer


def test_dumps_round_trips_doubles():
    rng = np.random.default_rng(8)
    values = [float(v) for v in rng.standard_normal(50)]
    values += [float(v) for v in 10.0 ** rng.uniform(-300, 300, 50)]
    values += [0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308]
    for v in values:
        assert json.loads(cli.dumps(v)) == v
    assert json.loads(cli.dumps({"a": values})) == {"a": values}


def test_dumps_nonfinite_as_strings():
    assert cli.dumps(math.inf) == '"inf"'
    assert cli.dumps(-math.inf) == '"-inf"'
    assert cli.dumps(math.nan) == '"nan"'


# ---------------------------------------------------------------------------
# moments


def test_moments_two_spike_example(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json",
                 {"amplitudes": [-0.5, 0.5], "nodes": [-1, 1]})
    code, out, _ = _run(capsys, ["moments", sig, "-q", "2"])
    assert code == 0
    assert json.loads(out) == {"moments": [0.0, 1.0, 0.0]}


def test_moments_single_spike(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", {"amplitudes": [5], "nodes": [2]})
    code, out, _ = _run(capsys, ["moments", sig, "-q", "0"])
    assert code == 0
    assert json.loads(out)["moments"] == [5.0]


def test_moments_mismatched_lengths(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json",
                 {"amplitudes": [1, 2], "nodes": [0]})
    code, _, err = _run(capsys, ["moments", sig, "-q", "1"])
    assert code == 2
    assert err.strip()


def test_moments_missing_file(capsys):
    code, _, err = _run(capsys, ["moments", "no_such_file.json", "-q", "1"])
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_symmetric(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [2, 0, 2, 0])
    code, out, _ = _run(capsys, ["solve", mu])
    assert code == 0
    doc = json.loads(out)
    assert doc["amplitudes"] == [1.0, 1.0]
    assert doc["nodes"] == [-1.0, 1.0]


def test_solve_output_reingests_exactly(tmp_path, capsys):
    # moments of amplitudes (1.25, -0.75) at nodes (-0.5, 1.5), all dyadic
    mu = [0.5, -1.75, -1.375, -2.6875]
    path = _write(tmp_path, "mu.json", mu)
    code, out, _ = _run(capsys, ["solve", path])
    assert code == 0
    doc = json.loads(out)
    direct = prony_solver.solve_complete(mu)
    assert doc["amplitudes"] == [float(a) for a in direct.amplitudes]
    assert doc["nodes"] == [float(x) for x in direct.nodes]


def test_solve_antisymmetric(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [0, 1, 0, 1])
    code, out, _ = _run(capsys, ["solve", mu])
    assert code == 0
    doc = json.loads(out)
    assert doc["amplitudes"] == [-0.5, 0.5]
    assert doc["nodes"] == [-1.0, 1.0]


def test_solve_degenerate_exit_3(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [1, 1, 1, 1])
    code, _, err = _run(capsys, ["solve", mu])
    assert code == 3
    assert "degenerate" in err


def test_exit_4_on_internal_inconsistency(tmp_path, capsys, monkeypatch):
    def boom(_):
        raise InconsistentComputation("forced")
    monkeypatch.setattr(prony_solver, "solve_complete", boom)
    mu = _write(tmp_path, "mu.json", [2, 0, 2, 0])
    code, _, err = _run(capsys, ["solve", mu])
    assert code == 4
    assert "forced" in err


# ---------------------------------------------------------------------------
# curve


def _read_csv(path):
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest sha256:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0].split()[-1], header, rows


def test_curve_square_root_family(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", {"moments": [0, 1, 0]})
    out_dir = tmp_path / "run"
    code, out, _ = _run(capsys, [
        "curve", mu, "--samples", "100",
        "--t-min", "-10", "--t-max", "-0.01", "--out", str(out_dir)])
    assert code == 0
    digest, header, rows = _read_csv(out_dir / "curve.csv")
    assert header[:3] == ["t", "sigma_1", "sigma_2"]
    assert len(rows) == 100
    for row in rows:
        t, x1, x2 = float(row[0]), float(row[3]), float(row[4])
        root = math.sqrt(-t)
        assert abs(x1 + root) <= 1e-9
        assert abs(x2 - root) <= 1e-9
        # first-kind relation between the node pair and the moments:
        # mu0*x1*x2 - mu1*(x1+x2) + mu2 = 0
        assert abs(0.0 * x1 * x2 - 1.0 * (x1 + x2) + 0.0) <= 1e-9
        assert float(row[7]) <= 1e-9   # residual column


def test_curve_out_of_domain_is_empty_success(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [0, 1, 0])
    out_dir = tmp_path / "run"
    code, out, err = _run(capsys, [
        "curve", mu, "--samples", "10",
        "--t-min", "1", "--t-max", "2", "--out", str(out_dir)])
    assert code == 0
    assert "warning" in err
    _, _, rows = _read_csv(out_dir / "curve.csv")
    assert rows == []


def test_curve_default_range_unbounded_domain(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [1, 0, 1])
    out_dir = tmp_path / "run"
    code, out, _ = _run(capsys, ["curve", mu, "--samples", "50",
                                 "--out", str(out_dir)])
    assert code == 0
    doc = json.loads(out)
    assert doc["t_min"] == -100.0 and doc["t_max"] == 100.0
    assert doc["n_rows"] > 0


def test_curve_companion_has_line_and_parabola(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [0, 1, 0])
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, ["curve", mu, "--samples", "40",
                               "--out", str(out_dir)])
    assert code == 0
    _, header, rows = _read_csv(out_dir / "sigma_line.csv")
    assert header == ["kind", "t", "sigma_1", "sigma_2"]
    kinds = {row[0] for row in rows}
    assert kinds == {"line", "parabola"}
    for row in rows:
        if row[0] == "parabola":
            s1, s2 = float(row[2]), float(row[3])
            assert abs(s2 - s1 * s1 / 4.0) <= 1e-12


def test_curve_manifest_chain(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [0, 1, 0])
    out_dir = tmp_path / "run"
    code, out, _ = _run(capsys, ["curve", mu, "--samples", "10",
                                 "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digest = manifest["digest"]
    assert json.loads(out)["manifest_digest"] == digest
    for name in ("curve.csv", "sigma_line.csv"):
        assert digest in (out_dir / name).read_text().splitlines()[0]
    assert sorted(manifest["outputs"]) == [
        "curve.csv", "manifest.json", "sigma_line.csv"]


# ---------------------------------------------------------------------------
# classify


def test_classify_two_spike_worked_example(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [0, 1, 0])
    code, out, _ = _run(capsys, ["classify", mu])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 2
    assert doc["collision"] == "yes"
    assert doc["bounded"] == "no"
    assert doc["detM"] == -1.0


def test_classify_no_collision(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [1, 0, 1])
    code, out, _ = _run(capsys, ["classify", mu])
    assert code == 0
    assert json.loads(out)["collision"] == "no"


def test_classify_d3_fixture_bounded(tmp_path, capsys):
    record = json.loads((FIXTURES / "d3_classify.json").read_text())["bounded"][0]
    mu = _write(tmp_path, "mu.json", record["mu"])
    code, out, _ = _run(capsys, ["classify", mu])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3
    assert doc["bounded"] == "yes"
    assert doc["K"] < 0.0
    assert "P8" in doc and "quartic_coefficients" in doc


def test_classify_ill_conditioned_collision_decided(tmp_path, capsys):
    # nodes 1.1656062, 1.1655938 and 0.2774, kappa_inf(M) = 6.2e11: the line
    # builds, but its domain abstains on resolution.  The verdicts come from
    # the exact quartic of the line (the exact restricted discriminant has
    # two real roots); the domain's abstention is reported as evidence
    mu = _write(tmp_path, "mu.json", [0.9303531462841692, -0.6754644035109824,
                                      -1.2754877121027866, -1.6221178328224701,
                                      -1.9282997715611514])
    code, out, _ = _run(capsys, ["classify", mu])
    assert code == 0
    doc = json.loads(out)
    assert (doc["collision"], doc["bounded"], doc["real_root_count"]) == ("yes", "no", 2)
    assert doc["domain_intervals"] is None and "critical values" in doc["domain_error"]


def test_classify_exactly_singular_exit_3(tmp_path, capsys):
    # det M of (1e308, 1e308, 1e308) is exactly zero, where the float
    # cofactors once gave inf - inf and exit 2 for the range
    mu = _write(tmp_path, "mu.json", [1e308, 1e308, 1e308])
    code, _, err = _run(capsys, ["classify", mu])
    assert code == 3
    assert "det M is exactly zero" in err and "Traceback" not in err


def test_classify_k_past_double_range_exit_0(tmp_path, capsys):
    # 3 mu1 / mu0 = 3e135, whose cube overflows: K is null, and both
    # verdicts come from the exact quartic ("yes", as the exact restricted
    # discriminant of the line has it, and "no" from P8 < 0)
    mu = _write(tmp_path, "mu.json", [9.410610622527965e-136, 0.9269749573460788,
                                      0.447240161215134, 1.3261816923284035,
                                      1.575189086247684])
    code, out, _ = _run(capsys, ["classify", mu])
    assert code == 0
    doc = json.loads(out)
    assert (doc["collision"], doc["bounded"], doc["K"]) == ("yes", "no", None)


def test_classify_quartic_past_double_range_exit_0(tmp_path, capsys):
    # det M^4 and every coefficient of the quartic are past the double
    # range, which once refused the input with exit 2: the exact quartic
    # decides, and its rounded coefficients are reported as infinities
    mu = _write(tmp_path, "mu.json", [1e200, 1, 1e-200, 2, 3])
    code, out, _ = _run(capsys, ["classify", mu])
    assert code == 0
    doc = json.loads(out)
    assert (doc["collision"], doc["bounded"]) == ("yes", "no")
    assert doc["quartic_coefficients"] == ["-inf", "inf", "inf", "inf", "inf"]
    assert doc["P8"] == "-inf"


def test_classify_wrong_length(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [1, 2, 3, 4])
    code, _, err = _run(capsys, ["classify", mu])
    assert code == 2
    assert "3 (d=2) or 5 (d=3)" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_collision_and_double_escape(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [0, 1, 0])
    code, out, _ = _run(capsys, ["analyze", mu])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["collisions"]) == 1
    col = doc["collisions"][0]
    assert col["t0"] == 0.0
    assert col["blowup_confirmed"] is True
    assert len(doc["escapes"]) == 1
    esc = doc["escapes"][0]
    assert esc["direction"] == "-inf"
    assert len(esc["escaping_indices"]) == 2
    assert esc["hypothesis_met"] is False


def test_analyze_escape_both_directions(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [1, 0, 1])
    code, out, _ = _run(capsys, ["analyze", mu])
    assert code == 0
    doc = json.loads(out)
    assert doc["collisions"] == []
    assert len(doc["escapes"]) == 2
    for esc in doc["escapes"]:
        assert len(esc["escaping_indices"]) == 1
        assert esc["hypothesis_met"] is True


def test_analyze_degenerate_exit_3(tmp_path, capsys):
    mu = _write(tmp_path, "mu.json", [1, 1, 1])
    code, _, err = _run(capsys, ["analyze", mu])
    assert code == 3
    assert err.strip()


def test_analyze_pole_at_a_critical_point_exit_3(tmp_path, capsys):
    # a critical point of phi and a pole come out as the same double: the
    # domain build abstains on resolution instead of failing to sort them
    mu = _write(tmp_path, "mu.json", [-1.830210993303282, -1.355682011867008e+90,
                                      1.9443637797854613e-54, -5.482937750392935e-274,
                                      1.5321874468354042])
    code, _, err = _run(capsys, ["analyze", mu])
    assert code == 3
    assert "is also a pole" in err and "Traceback" not in err


def test_analyze_singular_to_lu_exit_3(tmp_path, capsys):
    # M is singular to LU, and its exact det M is 1.8e-15 of the largest
    # first minor: the exact det M policy refuses the line
    mu = _write(tmp_path, "mu.json", SINGULAR_LU_MU[:7])
    code, _, err = _run(capsys, ["analyze", mu])
    assert code == 3
    assert "is degenerate" in err and "Traceback" not in err


def test_analyze_and_curve_build_one_domain(tmp_path, capsys, monkeypatch):
    built = []
    real = prony_line._build_domain
    monkeypatch.setattr(prony_line, "_build_domain",
                        lambda line: built.append(line) or real(line))
    # moments of A = (1, -0.5, 2), X = (-1, 0.3, 1.4): two collisions and an
    # escape in each direction
    mu = _write(tmp_path, "mu.json", [2.5, 1.65, 4.874999999999999,
                                      4.474499999999999, 8.679149999999998])
    for argv in (["analyze", mu],
                 ["curve", mu, "--samples", "20", "--out", str(tmp_path / "r")]):
        built.clear()
        prony_line._line_of.cache_clear()  # each command runs in its own process
        code, _, _ = _run(capsys, argv)
        assert code == 0
        assert len(built) == 1


# ---------------------------------------------------------------------------
# amplify


def test_amplify_artifacts_and_reingest(tmp_path, capsys):
    cfg = {"d": 2, "epsilon": 1e-8, "trials": 8, "seed": 5,
           "h_grid": [0.4, 0.2]}
    path = _write(tmp_path, "cfg.json", cfg)
    out_dir = tmp_path / "run"
    code, out, _ = _run(capsys, ["amplify", path, "--out", str(out_dir)])
    assert code == 0
    doc = json.loads(out)
    direct = prony_solver.amplification_experiment(cfg)
    for row, (h, p, c, f) in zip(doc["rows"], direct.rows):
        assert row["h"] == h
        assert row["max_point_err"] == p          # bit-for-bit reingest
        assert row["max_curve_dist"] == c
        assert row["n_failed_trials"] == f
    assert doc["point_slope"] == direct.point_slope
    assert doc["curve_slope"] == direct.curve_slope
    emitted = json.loads((out_dir / "amplify.json").read_text())
    digest = json.loads((out_dir / "manifest.json").read_text())["digest"]
    assert emitted["manifest_digest"] == digest
    first = (out_dir / "amplify.csv").read_text().splitlines()
    assert digest in first[0]
    assert first[1] == "h,max_point_err,max_curve_dist,n_failed_trials"


def test_amplify_d4_cluster_exit_code(tmp_path, capsys):
    # a numerical failure here may exit 3 or 4, never 2 (malformed input)
    cfg = {"d": 4, "epsilon": 1e-12, "trials": 5, "seed": 1,
           "h_grid": [0.8, 0.4]}
    path = _write(tmp_path, "cfg.json", cfg)
    code, _, _ = _run(capsys, ["amplify", path, "--out", str(tmp_path / "r")])
    assert code in (0, 3, 4)


@pytest.mark.parametrize("key", ["d", "trials", "seed"])
def test_amplify_reads_integral_floats_as_integers(tmp_path, capsys, key):
    # "seed": 3.0 once passed NoiseConfig's checks and then crashed in the
    # noise streams or in range() with a TypeError traceback, exit 1
    twin = {"d": 2, "epsilon": 3e-4, "trials": 4, "seed": 3,
            "h_grid": [0.4, 0.2, 0.1, 0.05]}
    docs = []
    for cfg in (twin, dict(twin, **{key: float(twin[key])})):
        path = _write(tmp_path, "cfg.json", cfg)
        code, out, _ = _run(capsys, ["amplify", path, "--out", str(tmp_path / "r")])
        assert code == 0
        docs.append({k: v for k, v in json.loads(out).items() if k != "manifest_digest"})
    assert docs[1] == docs[0]
    assert type(getattr(prony_solver.NoiseConfig.from_mapping(dict(twin, **{key: 3.0})), key)) is int


def test_amplify_invalid_config(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", {"d": 2})
    code, _, err = _run(capsys, ["amplify", path,
                                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "missing" in err


# ---------------------------------------------------------------------------
# malformed, non-finite and out-of-range input


BAD_INPUTS = [  # command, input document, a phrase naming the cause
    ("classify", {"moments": {"a": 1}}, "moments must be numbers"),
    ("analyze", {"moments": {"a": 1}}, "moments must be numbers"),
    ("moments", {"amplitudes": [1], "nodes": {"x": 1}}, "nodes must be numbers"),
    ("amplify", {"d": 2, "epsilon": 1e-10, "trials": 4, "seed": 0,
                 "h_grid": 5}, "malformed config"),
    ("classify", [1e200, 0.0, 1e200, 0.0, 2e200],  # det M = 1e600
     "moments exceed double range: det M is not finite"),
    ("classify", [1e200, 0.0, 1e200],  # det M = 1e400
     "moments exceed double range: det M is not finite"),
    ("classify", [math.nan, 1, 2], "moments must be finite"),
    ("classify", [[1, 2], [3]], "sequence"),
    ("classify", [1e-11, 0.0, 1e300],  # the slope -1e311
     "moments exceed double range: the line is not finite"),
    ("amplify", {"d": 2, "epsilon": 1e-10, "trials": True, "seed": 0,
                 "h_grid": [0.4, 0.2]}, "trials must be numeric"),
]


@pytest.mark.parametrize("command, doc, cause", BAD_INPUTS,
                         ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(BAD_INPUTS)])
def test_bad_input_exits_2_without_traceback(tmp_path, command, doc, cause):
    path = _write(tmp_path, "in.json", doc)
    extra = {"moments": ["-q", "3"], "amplify": ["--out", str(tmp_path / "r")]}
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "prony.cli", command, path, *extra.get(command, [])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# fuzz: arbitrary JSON through every command


_KEYS = ("moments", "amplitudes", "nodes", "d", "epsilon", "trials", "seed",
         "h_grid", "h", "t_resolution")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=9)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=24,
)


def _costly(command, doc):
    # a valid amplify config runs trials * len(h_grid) noisy solves; the
    # fuzz is about input handling, not about long experiments
    if command != "amplify" or not isinstance(doc, dict):
        return False
    size = {k: doc.get(k) for k in ("d", "trials")}
    grid = doc.get("h_grid")
    return (any(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 4
                for v in size.values())
            or (isinstance(grid, list) and len(grid) > 4))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(command=st.sampled_from(["moments", "solve", "curve", "classify", "analyze",
                                "amplify"]),
       doc=_JSON)
def test_any_json_exits_with_a_documented_code(command, doc):
    # every document ends in exit code 0, 2, 3 or 4 with no traceback; an
    # exception escaping main is the traceback a subprocess would print
    assume(not _costly(command, doc))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        extra = {"moments": ["-q", "3"], "curve": ["--samples", "20", "--out", tmp],
                 "amplify": ["--out", tmp]}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, path, *extra.get(command, [])])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
