import math

import numpy as np
import pytest

from cmharmonic.quadrature import QuadratureError, adaptive_quad, composite_rule, graded_edges


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
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(lambda t: np.sin(3e5 * t), 0.0, 1.0, tol=1e-300, max_depth=12)
    est = info.value.estimate
    exact = (1.0 - math.cos(3e5)) / 3e5
    assert info.value.error_estimate > 0
    assert abs(est) < 1.0  # magnitude sane even when tolerance missed
    assert exact == pytest.approx(exact)


def test_graded_edges_structure():
    edges = graded_edges(0.0, 1.0, levels=6)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert np.all(np.diff(edges) > 0)
    assert edges[1] == 2.0**-6
    assert edges.size == 2 * 6 + 1  # 2 * levels panels


def test_composite_rule_integrates():
    nodes, weights = composite_rule(graded_edges(0.0, 1.0, levels=10))
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
