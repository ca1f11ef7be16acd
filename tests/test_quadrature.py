import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmharmonic.quadrature import _GAUSS_LEGENDRE, GRADED_LEVELS, QuadratureError, adaptive_quad, composite_rule, graded_edges

NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


def test_polynomial():
    val, err = adaptive_quad(lambda t: t**3, 0.0, 1.0, tol=1e-12)
    assert abs(val - 0.25) < 1e-13
    assert err < 1e-12


def test_exponential():
    val, _ = adaptive_quad(np.exp, 0.0, 1.0, tol=1e-12)
    assert abs(val - (math.e - 1.0)) < 1e-12


def test_complex_kernel():
    z = 0.3 + 0.4j
    val, _ = adaptive_quad(lambda t: 1.0 / (1.0 - z * t), 0.0, 1.0, tol=1e-12)
    exact = -np.log(1.0 - z) / z
    assert abs(val - exact) < 1e-11
    assert isinstance(val, complex)


def test_sharp_peak():
    # oracle: arctan antiderivative of the Lorentzian
    eps = 1e-3
    val, _ = adaptive_quad(lambda t: 1.0 / ((t - 0.3) ** 2 + eps**2), 0.0, 1.0, tol=1e-10)
    exact = (math.atan(0.7 / eps) + math.atan(0.3 / eps)) / eps
    assert abs(val - exact) / exact < 1e-12


def test_wide_frontier_is_evaluated_in_slices():
    # sin(1e4 t) splits into thousands of panels per level; each integrand
    # call still sees at most 512 panels of 7 + 15 points
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.sin(1e4 * t)

    val, _ = adaptive_quad(f, 0.0, 1.0, tol=1e-10)
    assert abs(val - (1.0 - math.cos(1e4)) / 1e4) < 1e-15
    assert max(sizes) == 512 * 22
    assert sum(sizes) > 4 * 512 * 22


def test_empty_interval():
    assert adaptive_quad(lambda t: t, 0.5, 0.5) == (0.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_quad(lambda t: t, 1.0, 0.0)


def test_unreachable_tolerance_reports_estimate():
    # the 16384-panel cap, not MAX_DEPTH, ends this refinement, and the
    # message names the depth it reached
    with pytest.raises(QuadratureError, match="not met after depth 15 ") as info:
        adaptive_quad(lambda t: np.sin(3e5 * t), 0.0, 1.0, tol=1e-300)
    est = info.value.estimate
    exact = (1.0 - math.cos(3e5)) / 3e5
    assert info.value.error_estimate > 0
    assert abs(est) < 1.0  # magnitude sane even when tolerance missed
    assert abs(est - exact) <= info.value.error_estimate


def test_graded_edges_structure():
    edges = graded_edges(0.0, 1.0)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert np.all(np.diff(edges) > 0)
    assert edges[1] == 2.0**-GRADED_LEVELS
    assert edges.size == 2 * GRADED_LEVELS + 1  # 2 * levels panels


def test_composite_rule_integrates():
    nodes, weights = composite_rule(graded_edges(0.0, 1.0))
    assert abs(np.sum(weights * np.exp(nodes)) - (math.e - 1.0)) < 1e-13


@pytest.mark.parametrize(
    "tol, words",
    [(math.nan, "tolerance must be finite"), (math.inf, "tolerance must be finite"),
     (-math.inf, "tolerance must be finite"), (-1e-12, "tolerance must be nonnegative")],
)
def test_tolerance_must_be_finite_and_nonnegative(tol, words):
    # a NaN tolerance made the final "err_total > tol" False, so even an
    # exhausted refinement returned without an error
    with pytest.raises(ValueError, match=words):
        adaptive_quad(np.exp, 0.0, 1.0, tol=tol)


def test_zero_tolerance_means_to_rounding():
    val, _ = adaptive_quad(lambda t: t**3, 0.0, 1.0, tol=0.0)
    assert abs(val - 0.25) < 1e-15


@pytest.mark.parametrize("n", [7, 15])
def test_gauss_legendre_panels_are_numpys_leggauss(n):
    # held as constants; numpy 2's leggauss gives them bit for bit
    for got, ref in zip(_GAUSS_LEGENDRE[n], np.polynomial.legendre.leggauss(n)):
        assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))
        if NUMPY_2:
            assert got.tobytes() == ref.tobytes()


_FOOTPRINT = """
import sys
import cmharmonic
from cmharmonic.measures import _pair_points
mu = cmharmonic.lebesgue()
h = cmharmonic.ShiftedCauchyTransform.from_measure(mu)
cmharmonic.certify_qc_grid(cmharmonic.HarmonicMap(h, h, 0.3), 0.5, cmharmonic.GridSpec(nr=4, ntheta=8))
_pair_points(mu, mu, 8)
print([m for m in ("numpy.polynomial", "numpy.ma") if m in sys.modules])
"""


@pytest.mark.skipif(not NUMPY_2, reason="numpy 1 imports numpy.polynomial and numpy.ma with numpy itself")
def test_rules_and_sweeps_import_neither_numpy_polynomial_nor_numpy_ma():
    # each would add about 1 MB of resident memory to every process
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
