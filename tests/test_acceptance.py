"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmharmonic.harmonic import (
    HarmonicMap,
    certify_qc_grid,
    check_modulus_bound,
    check_partial_signs,
    density_ratio_condition,
    derivative_quotient,
    derivative_ratio_sup,
    harnack_ratio_bound,
    radial_limit,
    shifted,
)
from cmharmonic.measures import beta_measure, dirac, loggamma_measure
from cmharmonic.moments import MomentSequence, hadamard, leibniz_rhs
from cmharmonic.special import (
    gamma,
    gauss_value,
    hyp2f1,
    hyp_ratio_constant,
    shifted_2f1_deriv_limit,
    shifted_2f1_deriv_limit_quad,
    zeta,
)
from cmharmonic.transforms import CauchyTransform, GridSpec, check_membership
from conftest import random_cm_prefix, random_disk_points, random_measure

F1 = shifted(dirac(1.0))
IDENT = shifted(dirac(0.0))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_leibniz_identity_bitwise():
    rng = np.random.default_rng(20240801)
    for _ in range(50):
        a = random_cm_prefix(rng, 12)
        b = random_cm_prefix(rng, 12)
        ta, tb = a.table, b.table
        tp = hadamard(a, b).table
        for k in range(13):
            for n in range(13 - k):
                assert tp.value(k, n) == leibniz_rhs(ta, tb, k, n)
    _report(1, "product-rule expansion matches difference table bit for bit (50 prefixes)")


def test_criterion_02_moment_difference_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mu = random_measure(rng)
        seq = MomentSequence([mu.moment(n, tol=1e-13) for n in range(13)])
        table = seq.table
        for k in range(13):
            for n in range(13 - k):
                oracle = mu.integrate(lambda t, u: t**n * (1.0 - t) ** k, tol=1e-12)
                assert abs(table.value(k, n) - oracle) <= 1e-9
    _report(2, "iterated differences equal beta-kernel integrals to 1e-9 (10 measures)")


def _sample_pairs(seed, n_measures=25, n_points=20):
    rng = np.random.default_rng(seed)
    for _ in range(n_measures):
        mu = random_measure(rng)
        yield CauchyTransform(mu), random_disk_points(rng, n_points, rmax=0.95)


def test_criterion_03_modulus_dominated_by_radial_value():
    count = 0
    for F, zs in _sample_pairs(2024):
        vals = F.values(zs)
        radial = F.values(np.abs(zs)).real
        assert np.all(np.abs(vals) <= radial + 1e-9)
        count += len(zs)
    assert count == 500
    _report(3, "|F(z)| <= F(|z|) + 1e-9 on 500 random pairs")


def test_criterion_04_real_part_floor():
    for F, zs in _sample_pairs(2024):
        assert np.all(F.values(zs).real >= 0.5 - 1e-9)
    # the floor is approached by the point mass at 1 near z = -1
    edge = CauchyTransform(dirac(1.0)).eval(-0.995)
    assert 0.5 - 1e-12 <= edge.real <= 0.51
    _report(4, "Re F >= 0.5 - 1e-9 on the sample; floor approached within 0.01 at the point mass")


def test_criterion_05_ratio_sup_constant_four():
    grids = [
        GridSpec(rmax=0.90, nr=8, ntheta=32),
        GridSpec(rmax=0.95, nr=10, ntheta=48),
        GridSpec(rmax=0.98, nr=12, ntheta=64),
    ]
    sups = [derivative_ratio_sup(F1, g) for g in grids]
    assert sups[0] < sups[1] < sups[2]
    assert all(s < 4.0 for s in sups)
    assert 3.8 <= sups[-1] <= 4.0
    _report(5, f"ratio sup refines {sups[0]:.4f} -> {sups[2]:.4f}, inside [3.8, 4.0]")


def test_criterion_06_collapsing_example():
    cert = certify_qc_grid(HarmonicMap(F1, IDENT, 0.2), 0.8)
    assert 4 * 0.2 - 0.02 <= cert.sup_estimate <= 4 * 0.2
    c = 0.36
    f = HarmonicMap(F1, IDENT, c)
    rho = 1.0 / math.sqrt(c)
    for theta in np.linspace(2.6, 3.68, 8):
        z = 1.0 + rho * np.exp(1j * theta)
        assert abs(z) < 1.0
        assert abs(f.eval(z) - (c - 1.0)) <= 1e-10
    _report(6, "grid sup in [0.78, 0.8] at c=0.2; 8 arc points collapse to -0.64 within 1e-10")


def test_criterion_07_log_derivative_floor_bound():
    rep = harnack_ratio_bound(F1, 1.0)
    assert rep.hypothesis_holds
    assert rep.ratio_sup <= math.e**2 + 1e-9
    rep_id = harnack_ratio_bound(IDENT, 1.0)
    assert rep_id.hypothesis_holds
    assert abs(rep_id.ratio_sup - 1.0) <= 1e-12
    _report(7, f"floor holds; ratio sup {rep.ratio_sup:.4f} <= e^2; identity ratio is 1")


def test_criterion_08_zeta_quotient_and_polylog_grid():
    # independent oracle: closed form pi^2/6 over a direct partial sum with
    # integral tail correction
    n = np.arange(1, 200001, dtype=float)
    zeta3_oracle = float(np.sum(n**-3.0)) + 0.5 * 200000.0**-2.0
    oracle = (math.pi**2 / 6.0) / zeta3_oracle
    ratio = zeta(2.0) / zeta(3.0)
    assert abs(ratio - oracle) <= 1e-8
    f = HarmonicMap(shifted(loggamma_measure(4.0)), shifted(loggamma_measure(3.0)), 0.5)
    cert = certify_qc_grid(f, 0.99)
    assert cert.sup_estimate <= 0.5 * ratio + 1e-6
    _report(8, f"zeta quotient {ratio:.8f} matches oracle to 1e-8; grid sup below 0.5*ratio")


def test_criterion_09_hypergeom_constant_and_derivative_limit():
    assert hyp_ratio_constant(1.0, 6.0, 2.0, 6.0) == 2.0
    closed = shifted_2f1_deriv_limit(1.0, 6.0)
    quad = shifted_2f1_deriv_limit_quad(1.0, 6.0)
    assert abs(quad - closed) / closed <= 1e-3
    _report(9, f"M = 2 exactly; derivative limit {quad:.6f} matches {closed:.6f} within 1e-3")


def test_criterion_10_gauss_value_and_gamma_identity():
    val = hyp2f1(1.0, 1.0, 3.0, 1.0 - 1e-4, tol=1e-9)
    target = gauss_value(1.0, 1.0, 3.0)
    assert abs(val - target) / target <= 1e-2
    rng = np.random.default_rng(10)
    for x in rng.uniform(0.1, 30.0, 100):
        assert abs(gamma(x + 1.0) - x * gamma(x)) / abs(gamma(x + 1.0)) <= 1e-12
    _report(10, "series near 1 within 1e-2 of the closed form; recurrence exact to 1e-12 (100 samples)")


def test_criterion_11_radial_modulus_inequality():
    rng = np.random.default_rng(1102)
    for _ in range(20):
        f = HarmonicMap(
            shifted(random_measure(rng)),
            shifted(random_measure(rng)),
            float(rng.uniform(0.0, 0.95)),
        )
        a = max(0.0, -radial_limit(f))
        rep = check_modulus_bound(f, a=a, samples=random_disk_points(rng, 200))
        assert rep.min_margin_pointwise >= -1e-9
    _report(11, "|a + f(z)| >= a + f(-|z|) - 1e-9 on 20 maps x 200 samples")


def test_criterion_12_partial_signs_on_default_grid():
    rng = np.random.default_rng(12)
    for _ in range(10):
        mu = random_measure(rng)
        f = HarmonicMap(shifted(mu), shifted(mu), float(rng.uniform(0.0, 0.9)))
        rep = check_partial_signs(f)  # default half-plane grid
        assert rep.im_checked
        assert rep.violations_re == 0 and rep.violations_im == 0
    _report(12, "both sign checks clean at every non-degenerate node (10 maps, default grid)")


def test_criterion_13_density_pipeline():
    for phi, psi in [
        (beta_measure(1.0, 3.0), beta_measure(2.0, 3.0)),
        (loggamma_measure(2.0), loggamma_measure(1.0)),
    ]:
        verdict = density_ratio_condition(phi, psi, n=200)
        assert verdict.holds
        rep = check_membership(derivative_quotient(shifted(phi), shifted(psi)))
        assert rep.consistent
    _report(13, "cross inequality on 200x200 samples; derivative quotients consistent")


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "cmharmonic", *args],
        capture_output=True, text=True, env=env, timeout=240,
    )


def test_criterion_14_cli_determinism_and_exit_matrix(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    f1_id = {"h": {"atoms": [{"t": 1.0, "w": 1.0}]}, "g": {"atoms": [{"t": 0.0, "w": 1.0}]}}
    fixtures = {
        "ok": write("ok.json", [1, 0.5, 0.25]),
        "bad": write("bad.json", [1, 0.9, 0.5]),
        "empty": write("empty.json", []),
        "c02": write("c02.json", dict(f1_id, c=0.2)),
        "c03": write("c03.json", dict(f1_id, c=0.3)),
        "c036": write("c036.json", dict(f1_id, c=0.36)),
        "poly": write("poly.json", {"alpha": 4, "beta": 3, "c": 0.5}),
        "ident": write(
            "ident.json",
            {"h": {"atoms": [{"t": 0.0, "w": 1.0}]}, "g": {"atoms": [{"t": 0.0, "w": 1.0}]}, "c": 0.0},
        ),
        "f1map": write("f1map.json", {"h": f1_id["h"], "g": f1_id["h"], "c": 0.5}),
        "mu": write("mu.json", {"densities": [{"family": "beta", "a": 1, "c": 3, "w": 1.0}]}),
    }
    rho = 1.0 / math.sqrt(0.36)
    matrix = [
        (("check-cm", fixtures["ok"]), 0),
        (("check-cm", fixtures["bad"]), 1),
        (("check-cm", fixtures["empty"]), 2),
        (("moments", fixtures["mu"], "--count", "5"), 0),
        (("eval", fixtures["c03"], "--z", "0.5j"), 0),
        (("dilatation", fixtures["c02"], "--z=-0.9+0j"), 0),
        (("certify", fixtures["c02"], "--method", "grid", "--k", "0.8"), 0),
        (("certify", fixtures["c03"], "--method", "grid", "--k", "0.9"), 1),
        (("certify", fixtures["poly"], "--method", "thm1.7", "--k", "0.7"), 0),
        (("verify-thm", "1.2", fixtures["f1map"], "--nr", "6", "--ntheta", "16"), 0),
        (("verify-thm", "1.3", fixtures["f1map"], "--nr", "6"), 0),
        (("ratio-sup", fixtures["mu"], "--nr", "6", "--ntheta", "16"), 0),
        (("render", fixtures["ident"], "--curve", "circle", "--r", "0.5", "--n", "8"), 0),
        (
            (
                "render", fixtures["c036"], "--curve", "circle", "--center", "1,0",
                f"--r={rho}", "--theta0", "2.6", "--theta1", "3.68", "--n", "8",
            ),
            0,
        ),
        (("render", fixtures["f1map"], "--curve", "segment", "--x0=-0.9", "--x1=0.9", "--n", "6"), 0),
        (("render", fixtures["ident"], "--curve", "circle", "--r", "1.2"), 2),
    ]
    for args, expected in matrix:
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first.returncode == expected, (args, first.returncode, first.stderr)
        assert second.returncode == expected
        assert first.stdout.encode() == second.stdout.encode(), args
    # the collapsing-arc render carries the constant image column
    arc = _run_cli(
        "render", fixtures["c036"], "--curve", "circle", "--center", "1,0",
        f"--r={rho}", "--theta0", "2.6", "--theta1", "3.68", "--n", "8",
    )
    for line in arc.stdout.strip().splitlines()[1:]:
        assert abs(float(line.split(",")[3]) + 0.64) <= 1e-10
    _report(14, "every subcommand byte-identical across runs; exit-code matrix as specified")
