"""Subprocess-level checks of the command-line frontend."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmharmonic.cli import _json, main
from cmharmonic.harmonic import certify_qc_ratio_sup, derivative_ratio_sup, map_from_dict
from cmharmonic.moments import is_completely_monotone

SRC = str(Path(__file__).resolve().parents[1] / "src")

F1_ID = {"h": {"atoms": [{"t": 1.0, "w": 1.0}]}, "g": {"atoms": [{"t": 0.0, "w": 1.0}]}}
IDENTITY_MAP = {
    "h": {"atoms": [{"t": 0.0, "w": 1.0}]},
    "g": {"atoms": [{"t": 0.0, "w": 1.0}]},
    "c": 0.0,
}


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "cmharmonic", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_cm_exit_codes(tmp_path):
    ok = write(tmp_path, "ok.json", [1, 0.5, 0.25])
    bad = write(tmp_path, "bad.json", [1, 0.9, 0.5])
    empty = write(tmp_path, "empty.json", [])

    res = run_cli("check-cm", ok)
    assert res.returncode == 0 and '"holds"' in res.stdout

    res = run_cli("check-cm", bad)
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert (payload["k"], payload["n"]) == (2, 0)
    assert math.isclose(payload["value"], -0.3, abs_tol=1e-12)

    res = run_cli("check-cm", empty)
    assert res.returncode == 2

    res = run_cli("check-cm", str(tmp_path / "missing.json"))
    assert res.returncode == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli("check-cm", str(garbled)).returncode == 2


def test_check_cm_prints_the_verdict_dict(tmp_path):
    expected = {
        (1, 0.5, 0.25): '{"verdict": "holds", "scope": "prefix-feasible", "order": 2, '
        '"tol": 1.0000000000000001e-09}\n',
        (1, 0.9, 0.5): '{"verdict": "violated", "k": 2, "n": 0, "value": -0.30000000000000004, '
        '"order": 2, "tol": 1.0000000000000001e-09}\n',
    }
    for seq, text in expected.items():
        assert _json(is_completely_monotone(seq, tol=1e-9).to_dict()) + "\n" == text
        assert run_cli("check-cm", write(tmp_path, "seq.json", list(seq))).stdout == text


def test_check_cm_rejects_non_finite_input(tmp_path):
    # json reads NaN and Infinity; both used to pass or fail the scan silently
    cases = [("[1, NaN, 0.5]", "1e-9"), ("[1, Infinity]", "1e-9"), ("[1, 2, 3]", "nan"), ("[1, 2, 3]", "inf")]
    for text, tol in cases:
        path = tmp_path / "seq.json"
        path.write_text(text)
        res = run_cli("check-cm", str(path), "--tol", tol)
        assert res.returncode == 2, (text, tol)
        assert res.stdout == ""
        assert "must be finite" in res.stderr


def test_certify_exit_matrix(tmp_path):
    spec02 = write(tmp_path, "c02.json", dict(F1_ID, c=0.2))
    spec03 = write(tmp_path, "c03.json", dict(F1_ID, c=0.3))
    poly = write(tmp_path, "poly.json", {"alpha": 4, "beta": 3, "c": 0.5})

    res = run_cli("certify", spec02, "--method", "grid", "--k", "0.8")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["status"] == "certified"
    assert 0.78 <= cert["sup_estimate"] <= 0.8

    res = run_cli("certify", spec03, "--method", "grid", "--k", "0.9")
    assert res.returncode == 1
    assert json.loads(res.stdout)["sup_estimate"] > 1.0

    res = run_cli("certify", poly, "--method", "thm1.7", "--k", "0.7")
    assert res.returncode == 0
    assert json.loads(res.stdout)["method"] == "thm1.7ii"

    # inconclusive branch: neither polylog hypothesis fits
    poly_bad = write(tmp_path, "polybad.json", {"alpha": 3, "beta": 1, "c": 0.2})
    assert run_cli("certify", poly_bad, "--method", "thm1.7", "--k", "0.5").returncode == 2

    # malformed spec
    assert run_cli("certify", write(tmp_path, "x.json", {"h": {}}), "--method", "grid", "--k", "0.5").returncode == 2


def test_certify_thm16_and_thm19_and_hyp(tmp_path):
    conv = write(tmp_path, "conv.json", dict(F1_ID, c=0.2))
    res = run_cli("certify", conv, "--method", "thm1.6", "--k", "0.8")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["method"] == "thm1.6" and cert["ratio_sup"] < 4.0

    pair = write(
        tmp_path,
        "pair.json",
        {
            "h": {"densities": [{"family": "loggamma", "alpha": 4.0, "w": 1.0}]},
            "g": {"densities": [{"family": "loggamma", "alpha": 3.0, "w": 1.0}]},
            "c": 0.5,
        },
    )
    res = run_cli("certify", pair, "--method", "thm1.9", "--k", "0.7")
    assert res.returncode == 0
    assert json.loads(res.stdout)["method"] == "thm1.9"

    hyp = write(tmp_path, "hyp.json", {"a": 1, "c": 6, "a2": 2, "c2": 6, "b": 0.3})
    res = run_cli("certify", hyp, "--method", "hyp", "--k", "0.7")
    assert res.returncode == 0
    assert json.loads(res.stdout)["M"] == 2


def test_certify_thm16_prints_the_library_certificate(tmp_path):
    spec = dict(F1_ID, c=0.2)
    f = map_from_dict(spec)
    cert = certify_qc_ratio_sup(f, 0.8)
    assert cert.sup_estimate == 0.2 * derivative_ratio_sup(f.h)
    res = run_cli("certify", write(tmp_path, "c02.json", spec), "--method", "thm1.6", "--k", "0.8")
    assert res.returncode == 0 and res.stdout == _json(cert) + "\n"


@pytest.mark.parametrize("k", ["1.5", "-0.5", "nan"])
def test_certify_rejects_k_outside_the_unit_interval(tmp_path, k):
    specs = {
        "grid": dict(F1_ID, c=0.2),
        "thm1.6": dict(F1_ID, c=0.2),
        "thm1.7": {"alpha": 4, "beta": 3, "c": 0.5},
        "thm1.9": {
            "h": {"densities": [{"family": "loggamma", "alpha": 4.0, "w": 1.0}]},
            "g": {"densities": [{"family": "loggamma", "alpha": 3.0, "w": 1.0}]},
            "c": 0.5,
        },
        "hyp": {"a": 1, "c": 6, "a2": 2, "c2": 6, "b": 0.3},
    }
    for method, spec in specs.items():
        res = run_cli("certify", write(tmp_path, "spec.json", spec), "--method", method, f"--k={k}")
        assert (res.returncode, res.stdout) == (2, ""), method
        assert res.stderr == f"error: k must lie in [0, 1), got {float(k)!r}\n", method


@pytest.mark.parametrize("c", [-0.3, 1.0])
def test_every_map_command_refuses_c_outside_zero_one(tmp_path, capsys, c):
    # grid certified c = -0.3 with exit 0 while thm1.6 and thm1.9 refused it;
    # the map now refuses it when built, so every command does
    spec = write(tmp_path, "map.json", dict(F1_ID, c=c))
    for argv in (
        ["certify", spec, "--method", "grid", "--k", "0.5"],
        ["certify", spec, "--method", "thm1.6", "--k", "0.5"],
        ["certify", spec, "--method", "thm1.9", "--k", "0.5"],
        ["verify-thm", "1.2", spec],
        ["verify-thm", "1.3", spec],
        ["eval", spec, "--z", "0.5"],
        ["dilatation", spec, "--z", "0.5"],
        ["render", spec, "--curve", "circle"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: c must be real in [0, 1), got {c!r}\n"), argv


def test_eval_and_dilatation(tmp_path):
    spec = write(tmp_path, "map.json", dict(F1_ID, c=0.3))
    res = run_cli("eval", spec, "--z", "0.5j")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert math.isclose(out["re"], -0.2, abs_tol=1e-10)
    assert math.isclose(out["im"], 0.25, abs_tol=1e-10)

    measure = write(tmp_path, "mu.json", {"densities": [{"family": "lebesgue", "w": 1.0}]})
    res = run_cli("eval", measure, "--z", "0.5")
    assert json.loads(res.stdout)["re"] == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    spec2 = write(tmp_path, "map2.json", dict(F1_ID, c=0.2))
    res = run_cli("dilatation", spec2, "--z=-0.9+0j")
    assert res.returncode == 0
    assert json.loads(res.stdout)["abs"] == pytest.approx(0.722, abs=1e-9)


# A log-power h against an atom plus beta(1, 1.9005...) g, whose density is
# unbounded at t = 1; the dilatation references were computed offline with
# mpmath at 40 digits, at the float z.
ATOM_BETA_MAP = {
    "h": {"densities": [{"family": "loggamma", "alpha": 1.2535804438245963}]},
    "g": {
        "atoms": [{"t": 0.5512856438457278, "w": 0.7736347952231699}],
        "densities": [{"family": "beta", "a": 1.0, "c": 1.9005300846446114, "w": 0.22636520477683003}],
    },
    "c": 0.1285442230188769,
}


@pytest.mark.parametrize("z, ref", [("0.9999", 0.56013328956747104), ("0.999999", 2.8430624008449399)])
def test_dilatation_near_one(tmp_path, z, ref):
    res = run_cli("dilatation", write(tmp_path, "map.json", ATOM_BETA_MAP), f"--z={z}")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert math.isclose(out["re"], ref, rel_tol=1e-12)
    assert out["im"] == 0.0


# h = lebesgue and g = a table: h' and g' at the float 0.99999999 are 1/(1 - x)
# and 130151821.74127067257 (mpmath at 50 digits), so the dilatation is
# 0.5 g'/h' = 0.65075911197626123034; the identity charts used to raise
# QuadratureError there, which the command reported with exit 2
def test_dilatation_of_identity_charts_near_one(tmp_path):
    spec = {
        "h": {"densities": [{"family": "lebesgue"}]},
        "g": {"densities": [{"family": "table", "grid": [0, 0.3, 0.31, 1], "values": [1, 2, 0.5, 1.5]}]},
        "c": 0.5,
    }
    res = run_cli("dilatation", write(tmp_path, "map.json", spec), "--z=0.99999999")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert math.isclose(out["re"], 0.65075911197626123034, rel_tol=1e-12)
    assert out["im"] == 0.0


def test_render_of_the_uniform_map_near_one_agrees_with_eval(tmp_path, capsys):
    # render sums over the fixed rule, eval integrates adaptively; on the
    # identity chart of the uniform density render printed re f = 24.3954
    # here against eval's 27.6310 (in process: two subprocesses cost 1 s)
    uniform = {"densities": [{"family": "lebesgue"}]}
    spec = write(tmp_path, "map.json", {"h": uniform, "g": uniform, "c": 0.5})
    assert main(["eval", spec, "--z", "0.99999999"]) == 0
    ref = json.loads(capsys.readouterr().out)["re"]
    assert main(["render", spec, "--curve", "segment", "--x0", "0.99999999", "--x1", "0.99999999", "--n", "2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert math.isclose(float(row[3]), ref, rel_tol=1e-10), (row, ref)


def test_render_of_the_table_map_near_one_agrees_with_eval(tmp_path, capsys):
    # the table map of ROADMAP P: on the identity chart t = 1 - s of each
    # segment, render printed re f = 17.777 here against eval's 19.610
    table = {"densities": [{"family": "table", "grid": [0.0, 0.3, 1.0], "values": [1.0, 2.0, 1.0]}]}
    spec = write(tmp_path, "map.json", {"h": table, "g": table, "c": 0.5})
    assert main(["eval", spec, "--z", "0.99999999"]) == 0
    ref = json.loads(capsys.readouterr().out)["re"]
    assert main(["render", spec, "--curve", "segment", "--x0", "0.99999999", "--x1", "0.99999999", "--n", "2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert math.isclose(float(row[3]), ref, rel_tol=1e-9), (row, ref)


def test_moments_formats(tmp_path):
    mu = write(
        tmp_path,
        "mu.json",
        {"atoms": [{"t": 0.5, "w": 0.3}], "densities": [{"family": "beta", "a": 1, "c": 3, "w": 0.7}]},
    )
    res = run_cli("moments", mu, "--count", "4")
    assert res.returncode == 0
    vals = json.loads(res.stdout)
    assert len(vals) == 4 and vals[0] == pytest.approx(1.0, abs=1e-10)

    res = run_cli("moments", mu, "--count", "3", "--format", "csv")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,value" and len(lines) == 4


def test_verify_thm_subcommands(tmp_path):
    fmap = write(tmp_path, "f.json", {"h": F1_ID["h"], "g": F1_ID["h"], "c": 0.5})
    res = run_cli("verify-thm", "1.2", fmap, "--nr", "6", "--ntheta", "16")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["passed"] and math.isclose(out["limit"], -0.75, abs_tol=1e-9)

    res = run_cli("verify-thm", "1.3", fmap, "--nr", "6")
    assert res.returncode == 0
    assert json.loads(res.stdout)["im_checked"]


def test_ratio_sup(tmp_path):
    f1 = write(tmp_path, "f1.json", F1_ID["h"])
    res = run_cli("ratio-sup", f1)
    assert res.returncode == 0
    assert json.loads(res.stdout)["sup_estimate"] == pytest.approx(1.98**2, abs=1e-9)


def test_ratio_sup_rejects_fewer_than_two_t_samples(tmp_path):
    f1 = write(tmp_path, "f1.json", F1_ID["h"])
    for nt in ("0", "1"):
        res = run_cli("ratio-sup", f1, "--nt", nt)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "nt must be at least 2" in res.stderr


def test_render_circle_row_count(tmp_path):
    spec = write(tmp_path, "id.json", IDENTITY_MAP)
    res = run_cli("render", spec, "--curve", "circle", "--r", "0.5", "--n", "16")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "param,re_z,im_z,re_f,im_f"
    assert len(lines) == 17
    # identity map: image equals the curve
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(float(first[3]))


def test_render_collapsing_arc_constant_column(tmp_path):
    spec = write(tmp_path, "qc.json", dict(F1_ID, c=0.36))
    rho = 1.0 / math.sqrt(0.36)
    res = run_cli(
        "render", spec, "--curve", "circle", "--center", "1,0",
        f"--r={rho}", "--theta0", "2.6", "--theta1", "3.68", "--n", "8",
    )
    assert res.returncode == 0
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert len(rows) == 8
    for row in rows:
        assert float(row[3]) == pytest.approx(-0.64, abs=1e-10)


def test_render_segment_monotone(tmp_path):
    spec = write(tmp_path, "f1map.json", {"h": F1_ID["h"], "g": F1_ID["h"], "c": 0.0})
    res = run_cli("render", spec, "--curve", "segment", "--x0=-0.9", "--x1=0.9", "--n", "12")
    assert res.returncode == 0
    re_f = [float(line.split(",")[3]) for line in res.stdout.strip().splitlines()[1:]]
    assert re_f == sorted(re_f)


def test_render_rejects_curve_outside_disk(tmp_path):
    spec = write(tmp_path, "id2.json", IDENTITY_MAP)
    assert run_cli("render", spec, "--curve", "circle", "--r", "1.2").returncode == 2
    assert run_cli("render", spec, "--curve", "segment", "--x0=-2", "--x1=0").returncode == 2


DENSITY_MAP = {
    "h": {"densities": [{"family": "beta", "a": 1, "c": 3}]},
    "g": {"densities": [{"family": "lebesgue"}]},
    "c": 0.3,
}


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--z", "nan"),
        ("eval", "--z=-inf"),
        ("eval", "--z", "nan+1j"),
        ("dilatation", "--z", "nan"),
        ("render", "--curve", "segment", "--y", "nan", "--n", "3"),
    ],
)
def test_non_finite_points_exit_2(tmp_path, args):
    # NaN fails every distance comparison and -inf lies infinitely far from
    # the slit, so a distance test alone lets both through to a "nan" result
    spec = write(tmp_path, "map.json", DENSITY_MAP)
    res = run_cli(args[0], spec, *args[1:])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "is not finite" in res.stderr


def test_moments_count_must_be_nonnegative(tmp_path):
    mu = write(tmp_path, "mu.json", {"densities": [{"family": "beta", "a": 1, "c": 3}]})
    res = run_cli("moments", mu, "--count", "-2")
    assert (res.returncode, res.stdout) == (2, "")
    assert "count must be nonnegative" in res.stderr
    res = run_cli("moments", mu, "--count", "0")
    assert (res.returncode, res.stdout) == (0, "[]\n")


def test_moments_tol_is_a_usage_error(tmp_path):
    # no density family reads a tolerance: moments are closed forms or rule sums
    mu = write(tmp_path, "beta.json", {"densities": [{"family": "beta", "a": 1, "c": 3}]})
    res = run_cli("moments", mu, "--tol", "1e-9")
    assert (res.returncode, res.stdout) == (2, "")
    assert "unrecognized arguments: --tol" in res.stderr


def test_beta_whose_normalizer_overflows_exits_2(tmp_path):
    mu = write(tmp_path, "mu.json", {"densities": [{"family": "beta", "a": 3000, "c": 6000}]})
    res = run_cli("moments", mu, "--count", "3")
    assert (res.returncode, res.stdout) == (2, "")
    assert "a=3000.0, c=6000.0" in res.stderr and "overflows" in res.stderr


def test_non_finite_density_parameters_exit_2(tmp_path, capsys):
    # loggamma alpha = inf once printed an OverflowError as its message, and
    # the other two integrated to nan
    for density, message in (
        ({"family": "loggamma", "alpha": math.inf}, "log-power density needs alpha > 0"),
        ({"family": "beta", "a": 1, "c": math.inf}, "beta density needs c > a > 0"),
        ({"family": "table", "grid": [0, math.nan, 1], "values": [1, 1, 1]}, "strictly increasing"),
    ):
        mu = write(tmp_path, "mu.json", {"densities": [density]})
        assert main(["moments", mu, "--count", "3"]) == 2, density
        out, err = capsys.readouterr()
        assert out == "" and message in err, (density, err)


_POLY = {"alpha": 4, "beta": 3, "c": 0.5}
_HYP = {"a": 1, "c": 6, "a2": 2, "c2": 6, "b": 0.3}


def _malformed_number_calls(value):
    """(fixture name, fixture, argv after the path) for each place a number can be malformed."""
    text = repr(value)  # nan, inf, -inf
    calls = [
        ("map.json", DENSITY_MAP, ["verify-thm", "1.2", "{}", f"--a={text}"]),
        ("map.json", DENSITY_MAP, ["eval", "{}", "--z", "0.5", f"--tol={text}"]),
        ("map.json", DENSITY_MAP, ["eval", "{}", "--z", "0", f"--tol={text}"]),
    ]
    for name in _POLY:
        calls.append(("poly.json", dict(_POLY, **{name: value}), ["certify", "{}", "--method", "thm1.7", "--k", "0.7"]))
    for name in _HYP:
        calls.append(("hyp.json", dict(_HYP, **{name: value}), ["certify", "{}", "--method", "hyp", "--k", "0.7"]))
    return calls


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_malformed_numbers_exit_2_with_empty_stdout(tmp_path, capsys, value):
    # run in process: 33 subprocesses would cost about 14 s of import time
    for name, fixture, argv in _malformed_number_calls(value):
        path = write(tmp_path, name, fixture)
        argv = [arg.replace("{}", path) for arg in argv]
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: ") and "must be finite" in err, (argv, err)


def test_negative_tolerance_exits_2(tmp_path):
    spec = write(tmp_path, "map.json", DENSITY_MAP)
    for args in (
        ("eval", spec, "--z", "0.5", "--tol", "-1"),
        ("eval", spec, "--z", "0", "--tol", "-1"),
    ):
        res = run_cli(*args)
        assert (res.returncode, res.stdout) == (2, ""), args
        assert "tolerance must be nonnegative" in res.stderr


def test_certify_hyp_within_rounding_of_the_divergent_band_exits_2(tmp_path):
    # c2 - a2 computes to 2.0000000000000004, which thm1.9 reads as a divergent
    # g'(1-); an exact test 2 < c2 - a2 would certify with M = 7132129186994138
    spec = write(
        tmp_path,
        "hyp.json",
        {"a": 1, "c": 4, "a2": 2.622804003712431, "c2": 4.622804003712432, "b": 3.5e-17},
    )
    res = run_cli("certify", spec, "--method", "hyp", "--k", "0.5")
    assert res.returncode == 2
    assert json.loads(res.stdout)["status"] == "inconclusive"


def test_rect_flag(tmp_path):
    fmap = write(tmp_path, "f.json", {"h": F1_ID["h"], "g": F1_ID["h"], "c": 0.5})
    res = run_cli("verify-thm", "1.3", fmap, "--rect=-2,0.9,0.05,2,15,15")
    assert res.returncode == 0
    assert json.loads(res.stdout)["checked_nodes"] == 2 * 15 * 15
    assert run_cli("verify-thm", "1.3", fmap, "--rect=oops").returncode == 2


def test_rect_value_may_start_with_a_minus_sign(tmp_path):
    fmap = write(tmp_path, "f.json", {"h": F1_ID["h"], "g": F1_ID["h"], "c": 0.5})
    joined = run_cli("verify-thm", "1.3", fmap, "--rect=-3,0.99,0.01,3,10,10")
    for args in (("--rect", "-3,0.99,0.01,3,10,10"), ("--rect", "-.5,0.99,0.01,3,10,10", "--nr", "4")):
        res = run_cli("verify-thm", "1.3", fmap, *args)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["checked_nodes"] == 2 * 10 * 10
    assert run_cli("verify-thm", "1.3", fmap, "--rect", "-3,0.99,0.01,3,10,10").stdout == joined.stdout
    res = run_cli("certify", fmap, "--method", "grid", "--k", "0.5", "--nr", "4", "--rect", "-1,0.5,0.1,1")
    assert res.returncode in (0, 1) and res.stdout


def test_rect_below_real_axis_is_rejected(tmp_path):
    fmap = write(tmp_path, "f.json", {"h": F1_ID["h"], "g": F1_ID["h"], "c": 0.5})
    res = run_cli("verify-thm", "1.3", fmap, "--rect=-3,0.99,-1,3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "open upper half" in res.stderr


@pytest.mark.parametrize("rect", ["3,0.5,0.01,0.5,10,10", "-3,0.99,3,0.01,10,10"])
def test_rect_with_out_of_order_bounds_is_rejected(tmp_path, rect):
    # the first rectangle once passed, with 8 of its 10 columns at Re z >= 1
    beta = {"densities": [{"family": "beta", "a": 1, "c": 3, "w": 1}]}
    fmap = write(tmp_path, "f.json", {"h": beta, "g": beta, "c": 0.5})
    res = run_cli("verify-thm", "1.3", fmap, f"--rect={rect}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "must be ordered" in res.stderr


@pytest.mark.parametrize(
    "rect", ["nan,0.99,0.01,3,5,5", "-inf,0.99,0.01,3,5,5", "-3,0.99,0.01,inf,5,5"]
)
def test_rect_with_non_finite_bounds_is_rejected(tmp_path, rect):
    fmap = write(tmp_path, "f.json", {"h": F1_ID["h"], "g": F1_ID["h"], "c": 0.5})
    res = run_cli("verify-thm", "1.3", fmap, f"--rect={rect}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "finite" in res.stderr


def test_density_with_nan_mass_exits_2(tmp_path):
    # the log-power density integrates to NaN; the table, with a NaN value,
    # is refused before it is integrated
    lg150 = {"densities": [{"family": "loggamma", "alpha": 150}]}
    nan_table = {"densities": [{"family": "table", "grid": [0, 0.5, 1], "values": [1, math.nan, 1]}]}
    fmap = write(tmp_path, "f.json", {"h": lg150, "g": lg150, "c": 0.5})
    for args, message in (
        (("verify-thm", "1.3", fmap), "integrates to nan"),
        (("ratio-sup", write(tmp_path, "lg.json", lg150)), "integrates to nan"),
        (("moments", write(tmp_path, "tab.json", nan_table)), "table values must be finite"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert message in res.stderr


def test_infinite_weight_exits_2(tmp_path):
    for spec in (
        {"atoms": [{"t": 0.5, "w": 1e309}]},
        {"densities": [{"family": "lebesgue", "w": 1e309}]},
    ):
        res = run_cli("moments", write(tmp_path, "inf.json", spec), "--count", "3")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "finite and positive" in res.stderr


def test_certify_thm19_roadmap_pair_is_violated(tmp_path):
    # g'/h' tends to 42/23 = 1.826, so c = 0.5 gives sup 0.913 > k = 0.85
    pair = write(
        tmp_path,
        "pair.json",
        {
            "h": {"densities": [{"family": "beta", "a": 1.0, "c": 3.3, "w": 1.0}]},
            "g": {"densities": [{"family": "beta", "a": 1.2, "c": 3.4, "w": 1.0}]},
            "c": 0.5,
        },
    )
    res = run_cli("certify", pair, "--method", "thm1.9", "--k", "0.85")
    assert res.returncode == 1
    cert = json.loads(res.stdout)
    assert cert["status"] == "violated" and cert["path"] == "direct"
    assert math.isclose(cert["f_limit"], 42.0 / 23.0, rel_tol=1e-13)


def test_certify_thm19_rounded_equal_exponents_is_violated(tmp_path):
    # beta(0.9, 1.9) and lebesgue both have exponent 1 at t = 1, though
    # 1.9 - 0.9 computes to 0.9999999999999999; g'/h' -> 1/0.9, sup 1 at c = 0.9
    pair = write(
        tmp_path,
        "pair.json",
        {
            "h": {"densities": [{"family": "beta", "a": 0.9, "c": 1.9, "w": 1.0}]},
            "g": {"densities": [{"family": "lebesgue", "w": 1.0}]},
            "c": 0.9,
        },
    )
    res = run_cli("certify", pair, "--method", "thm1.9", "--k", "0.5")
    assert res.returncode == 1
    cert = json.loads(res.stdout)
    assert cert["status"] == "violated" and cert["path"] == "endpoint exponents"
    assert math.isclose(cert["f_limit"], 1.0 / 0.9, rel_tol=1e-12)


@pytest.mark.parametrize(
    "h, g, k",
    [
        ({"family": "lebesgue"}, {"family": "table", "grid": [0, 0.999, 1], "values": [1, 2, 0.1]}, "0.4"),
        ({"family": "beta", "a": 1.0, "c": 3.0}, {"family": "beta", "a": 2.0, "c": 4.001}, "0.1"),
    ],
)
def test_certify_thm19_boundary_limit_below_one_exits_2(tmp_path, h, g, k):
    # g/h turns down after t = 0.999, which the density-pair sample sees
    spec = {"h": {"densities": [h]}, "g": {"densities": [g]}, "c": 0.5}
    res = run_cli("certify", write(tmp_path, "pair.json", spec), "--method", "thm1.9", "--k", k)
    assert res.returncode == 2
    cert = json.loads(res.stdout)
    assert cert["status"] == "inconclusive" and "sup_estimate" not in cert
    assert cert["reason"] == "density cross inequality failed"
    assert 0.0 < cert["max_violation"] <= 1.0


def test_certify_thm19_boundary_limit_vetoes_a_turn_the_sample_misses(tmp_path):
    # g falls to 0 on the last 1e-14, past the sample; g'/h' -> F(1-) = 0 < 1 refutes it
    g = {"family": "table", "grid": [0, 1 - 1e-14, 1], "values": [1, 1, 0]}
    spec = {"h": {"densities": [{"family": "lebesgue"}]}, "g": {"densities": [g]}, "c": 0.5}
    res = run_cli("certify", write(tmp_path, "pair.json", spec), "--method", "thm1.9", "--k", "0.7")
    assert res.returncode == 2
    cert = json.loads(res.stdout)
    assert cert["status"] == "inconclusive" and "sup_estimate" not in cert
    assert cert["reason"] == "boundary limit below 1 contradicts the cross inequality"
    assert cert["f_limit"] < 1.0


@pytest.mark.parametrize("values", [[0, 3, 2], [0, 5, 2.6]])
def test_certify_thm19_ratio_falling_after_the_midpoints_exits_2(tmp_path, values):
    # g/h rises to t = 0.999 and falls after it, with F(1-) >= 1: only the
    # sample's points past 0.999 see the fall, and --method grid reads a
    # ring sup above 0.9
    g = {"family": "table", "grid": [0, 0.999, 1], "values": values}
    spec = {"h": {"densities": [{"family": "lebesgue"}]}, "g": {"densities": [g]}, "c": 0.5}
    res = run_cli("certify", write(tmp_path, "pair.json", spec), "--method", "thm1.9", "--k", "0.7")
    assert res.returncode == 2
    cert = json.loads(res.stdout)
    assert cert["status"] == "inconclusive" and cert["reason"] == "density cross inequality failed"


def test_verify_thm13_probe_reads_past_the_last_midpoint(tmp_path):
    # mu - c nu = 1 - 0.45 (1 - t)**-0.1 turns negative for t > 0.99966
    spec = {
        "h": {"densities": [{"family": "lebesgue"}]},
        "g": {"densities": [{"family": "beta", "a": 1.0, "c": 1.9}]},
        "c": 0.5,
    }
    res = run_cli("verify-thm", "1.3", write(tmp_path, "map.json", spec), "--rect=-1,0.9,0.1,2,5,5")
    out = json.loads(res.stdout)
    assert not out["im_checked"]
    assert out["im_skip_reason"] == "density domination fails near t=0.9999999999990905"


def test_verify_thm13_reads_split_atoms_as_one(tmp_path):
    h = {"atoms": [{"t": 0.5, "w": 0.6}], "densities": [{"family": "lebesgue", "w": 0.4}]}
    outs = []
    for g in ({"atoms": [{"t": 0.5, "w": 0.5}, {"t": 0.5, "w": 0.5}]}, {"atoms": [{"t": 0.5, "w": 1.0}]}):
        fmap = write(tmp_path, "map.json", {"h": h, "g": g, "c": 0.9})
        res = run_cli("verify-thm", "1.3", fmap, "--rect=-3,0.99,0.01,3,10,10")
        assert res.returncode == 0
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["im_checked"] is False


def test_small_order_log_power_map_gets_a_finite_grid_sup(tmp_path):
    # the right-chart weight of h underflows near s = 0 for alpha this small
    spec = {"h": {"densities": [{"family": "loggamma", "alpha": 0.05}]},
            "g": {"atoms": [{"t": 0.0, "w": 1.0}]}, "c": 0.5}
    res = run_cli("certify", write(tmp_path, "map.json", spec), "--method", "grid", "--k", "0.9")
    assert res.returncode in (0, 1), res.stderr
    assert math.isfinite(json.loads(res.stdout)["sup_estimate"])


def test_certify_thm19_needs_densities(tmp_path):
    atomic = write(tmp_path, "atomic.json", dict(F1_ID, c=0.2))
    assert run_cli("certify", atomic, "--method", "thm1.9", "--k", "0.5").returncode == 2


def test_usage_error_exits_2():
    assert run_cli("certify").returncode == 2
    assert run_cli("no-such-command").returncode == 2


def test_output_files_and_determinism(tmp_path):
    spec = write(tmp_path, "c02.json", dict(F1_ID, c=0.2))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("certify", spec, "--method", "grid", "--k", "0.8", "--out", str(out1)).returncode == 0
    assert run_cli("certify", spec, "--method", "grid", "--k", "0.8", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
