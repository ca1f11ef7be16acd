import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmharmonic import special
from cmharmonic.harmonic import HarmonicMap, certify_qc_boundary_limit, certify_qc_grid, shifted
from cmharmonic.measures import beta_measure, loggamma_measure, same_exponent
from cmharmonic.special import (
    ConvergenceError,
    certify_hypergeom_map,
    certify_polylog_map,
    gamma,
    gauss_value,
    hyp2f1,
    hyp2f1_deriv,
    hyp_ratio_constant,
    pochhammer,
    polylog,
    polylog_via_measure,
    shifted_2f1,
    shifted_2f1_deriv_limit,
    shifted_2f1_deriv_limit_quad,
    zeta,
)
from cmharmonic.transforms import GridSpec

SMALL = GridSpec(nr=6, ntheta=32, nx=30, ny=30)


# -- gamma ------------------------------------------------------------------


# Gamma at doubles x, correctly rounded: mpmath 1.3 at 50 digits.
_GAMMA_MPMATH = [
    (0.01, 99.4325851191506),
    (0.1, 9.51350769866873),
    (0.37, 2.4035500200786535),
    (0.5, 1.772453850905516),
    (0.9, 1.0686287021193193),
    (1.5, 0.886226925452758),
    (2.25, 1.1330030963193463),
    (3.7, 4.170651783796604),
    (7.3, 1271.4236336639087),
    (12.5, 136843365.46556586),
    (23.1, 1.5349165501415935e21),
    (37.75, 5.5665810532941776e42),
    (49.9, 4.118011034253036e62),
    (50.0, 6.082818640342675e62),
]


def test_gamma_factorial():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(1.772453850905516, rel=1e-15)  # sqrt(pi), mpmath


def test_gamma_against_mpmath():
    for x, ref in _GAMMA_MPMATH:
        assert gamma(x) == pytest.approx(ref, rel=1e-15), x


def test_gamma_against_libm():
    rng = np.random.default_rng(17)
    for x in rng.uniform(0.05, 50.0, 200):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-15)


def test_gamma_functional_equation():
    # Gamma(x + 1) = x Gamma(x) up to the rounding of x + 1.0 itself, which
    # moves Gamma by psi(x + 1) ulp(x + 1) / 2 relative: up to 6e-15 at x = 30
    rng = np.random.default_rng(23)
    for x in rng.uniform(0.1, 30.0, 100):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-14)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(0.0)
    with pytest.raises(ValueError):
        gamma(-1.5)


def test_pochhammer():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == 3 * 4 * 5 * 6
    assert pochhammer(0.5, 2) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


# -- zeta -------------------------------------------------------------------


def test_zeta_closed_forms():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-12)


def test_zeta_3_against_series_oracle():
    n = np.arange(1, 200001, dtype=float)
    oracle = float(np.sum(n**-3.0)) + 0.5 * 200000.0**-2.0
    assert zeta(3.0) == pytest.approx(oracle, abs=1e-10)


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)
    assert zeta(1.00001) > 1e4  # pole-adjacent growth


@pytest.mark.parametrize(
    "s, ref",
    [  # mpmath at the double nearest each s
        (1.000001, 1000000.5772980043553),
        (1.0000005, 2000000.5769361453755),
        (1.0000001, 10000000.571377000418),
        (1.000000001, 999999917.83685151185),
        (1.000000000001, 999911107320.8471979),
    ],
)
def test_zeta_just_above_one(s, ref):
    assert zeta(s) == pytest.approx(ref, rel=1e-13)


# -- polylog ----------------------------------------------------------------


def test_polylog_order_zero_closed_form():
    assert polylog(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)
    z = 0.3 - 0.4j
    assert polylog(0.0, z) == pytest.approx(z / (1.0 - z), abs=1e-15)


def test_polylog_order_one_is_log():
    assert polylog(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-13)
    z = -0.7 + 0.2j
    assert polylog(1.0, z) == pytest.approx(-np.log(1.0 - z), abs=1e-12)


def test_polylog_approaches_zeta2():
    gaps = [abs(polylog(2.0, 1.0 - d) - zeta(2.0)) for d in (1e-1, 1e-2, 1e-3)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


def test_polylog_domain_and_cap():
    with pytest.raises(ValueError):
        polylog(-0.5, 0.3)
    with pytest.raises(ValueError):
        polylog(1.0, 1.0)
    with pytest.raises(ConvergenceError) as info:
        polylog(0.5, 1.0 - 1e-9)
    assert info.value.partial is not None and info.value.terms == 10**6


def test_polylog_term_cap_env(monkeypatch):
    monkeypatch.setattr(special, "_MAX_TERMS", 50)
    with pytest.raises(ConvergenceError):
        polylog(2.0, 0.9)


def test_polylog_series_vs_integral_representation():
    for alpha in (1.0, 1.5, 2.0, 3.0):
        for z in (0.5, -0.9, 0.4 + 0.6j, -0.2 - 0.55j):
            assert polylog(alpha, z) == pytest.approx(
                polylog_via_measure(alpha, z), abs=1e-8
            )


def test_polylog_derivative_chain():
    # z d/dz Li_a = Li_{a-1}, differentiated through the series numerically
    for alpha in (1.0, 2.0, 3.0):
        for z in (0.4, -0.6, 0.3 + 0.3j):
            h = 1e-6
            dval = (polylog(alpha, z + h) - polylog(alpha, z - h)) / (2.0 * h)
            assert z * dval == pytest.approx(polylog(alpha - 1.0, z), abs=1e-7)


# -- Gauss hypergeometric ------------------------------------------------------


def test_hyp2f1_at_origin_and_log_case():
    assert hyp2f1(1.3, 0.4, 2.2, 0.0) == 1.0
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-11)


def test_hyp2f1_b_zero_is_one():
    assert hyp2f1(1.7, 0.0, 3.0, 0.6) == 1.0


def test_hyp2f1_near_boundary_telescoping():
    val = hyp2f1(1.0, 1.0, 3.0, 1.0 - 1e-4, tol=1e-9)
    assert val == pytest.approx(2.0, rel=1e-2)


def test_hyp2f1_pole_and_domain():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)


def test_hyp2f1_derivative_contiguous_relation():
    # oracle: central finite difference of the series
    for (a, b, c, z) in [(1.2, 0.7, 2.5, 0.4), (2.0, 1.0, 4.0, -0.3)]:
        h = 1e-6
        numeric = (hyp2f1(a, b, c, z + h) - hyp2f1(a, b, c, z - h)) / (2.0 * h)
        assert hyp2f1_deriv(a, b, c, z) == pytest.approx(numeric, abs=1e-7)


def test_gauss_value_examples():
    assert gauss_value(1.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-12)
    assert gauss_value(2.0, 0.0, 5.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        gauss_value(1.0, 1.0, 2.0)


def test_gauss_boundary_consistency():
    # series values approach the closed form monotonically as delta shrinks
    target = gauss_value(1.0, 1.0, 4.0)
    gaps = [abs(hyp2f1(1.0, 1.0, 4.0, 1.0 - d, tol=1e-10) - target) for d in (1e-1, 1e-2, 1e-3)]
    assert gaps == sorted(gaps, reverse=True)
    assert abs(hyp2f1(1.0, 1.0, 4.0, 1.0 - 1e-4, tol=1e-9) - target) / target < 1e-2


def test_shifted_2f1_log_case():
    assert shifted_2f1(1.0, 2.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-11)
    # outside the series radius the measure path takes over; the log closed
    # form still applies on the negative axis
    assert shifted_2f1(1.0, 2.0, -1.5) == pytest.approx(-math.log(2.5), abs=1e-9)


def test_shifted_2f1_series_vs_measure_path():
    part = shifted(beta_measure(1.0, 3.0))
    for z in (0.3 - 0.6j, 0.5, -0.8 + 0.2j):
        assert shifted_2f1(1.0, 3.0, z) == pytest.approx(part.value(z), abs=1e-8)
    assert shifted_2f1(2.0, 3.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        shifted_2f1(3.0, 2.0, 0.5)


# -- certificates -----------------------------------------------------------------


def test_polylog_certificate_floor_branch():
    cert = certify_polylog_map(1.0, 2.0, 0.3, 0.6, grid=SMALL)
    assert cert.holds and cert.method == "thm1.7i"
    assert cert.details["claimed_bound"] == pytest.approx(0.6)
    assert cert.details["spot_sup"] <= 0.6


def test_polylog_certificate_zeta_branch():
    cert = certify_polylog_map(4.0, 3.0, 0.5, 0.7, grid=SMALL)
    assert cert.holds and cert.method == "thm1.7ii"
    assert cert.details["zeta_ratio"] == pytest.approx(
        (math.pi**2 / 6.0) / zeta(3.0), abs=1e-10
    )
    assert cert.details["claimed_bound"] <= 0.7


def test_polylog_certificate_equal_orders():
    cert = certify_polylog_map(2.0, 2.0, 0.2, 0.5, grid=SMALL)
    assert cert.holds and cert.method == "thm1.7i"
    # above the floor branch the zeta branch degenerates to c <= k (order > 2)
    cert2 = certify_polylog_map(3.0, 3.0, 0.55, 0.6, grid=SMALL)
    assert cert2.holds and cert2.method == "thm1.7ii"
    assert cert2.details["zeta_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_polylog_certificate_inconclusive_and_refusal():
    cert = certify_polylog_map(3.0, 1.0, 0.2, 0.5, grid=SMALL)
    assert cert.status == "inconclusive"
    with pytest.raises(ValueError):
        certify_polylog_map(0.5, 2.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        certify_polylog_map(2.0, 3.0, 0.1, 1.0)


def test_hyp_ratio_constant_exact():
    assert hyp_ratio_constant(1.0, 6.0, 2.0, 6.0) == 2.0
    assert hyp_ratio_constant(1.0, 6.0, 1.0, 6.0) == 1.0
    with pytest.raises(ValueError):
        hyp_ratio_constant(1.0, 2.0, 1.0, 6.0)


def test_hypergeom_certificate_boundary_branch():
    cert = certify_hypergeom_map(1.0, 6.0, 2.0, 6.0, 0.3, 0.7, grid=SMALL)
    assert cert.holds and cert.details["branch"] == "boundary-limit"
    assert cert.details["M"] == 2.0
    assert cert.details["claimed_bound"] == pytest.approx(0.6)
    assert cert.details["h_deriv_limit_closed"] == shifted_2f1_deriv_limit(1.0, 6.0)


def test_hypergeom_certificate_floor_branch():
    cert = certify_hypergeom_map(2.0, 3.0, 1.0, 4.0, 0.25, 0.5, grid=SMALL)
    assert cert.holds and cert.details["branch"] == "floor"
    assert cert.details["claimed_bound"] == pytest.approx(0.5)


def test_hypergeom_certificate_inconclusive():
    # neither ordering of the parameter gaps fits a branch at this k
    cert = certify_hypergeom_map(1.0, 2.5, 2.0, 3.0, 0.4, 0.5, grid=SMALL)
    assert cert.status == "inconclusive"
    with pytest.raises(ValueError):
        certify_hypergeom_map(2.0, 1.0, 1.0, 3.0, 0.1, 0.5)


# -- closed-form branches against the boundary-limit route -------------------------
#
# Inside hyp's branch (ii) and thm1.7ii the densities satisfy the cross
# inequality, so thm1.9 applies to the same map and must reach the same
# constant.  The scale is s / M, so both routes certify exactly when s <= k.


def _cross_route_check(h_mu, g_mu, m_const, closed, s, k=0.5):
    assume(abs(s - k) > 1e-9)
    scale = s / m_const
    closed_cert = closed(scale, k)
    cert = certify_qc_boundary_limit(shifted(h_mu), shifted(g_mu), scale, k)
    assert cert.details["f_limit"] == pytest.approx(m_const, rel=1e-13)
    assert cert.holds == closed_cert.holds == (s <= k)
    ring = certify_qc_grid(HarmonicMap(shifted(h_mu), shifted(g_mu), scale), k, grid=SMALL)
    assert ring.sup_estimate <= cert.sup_estimate * (1.0 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.3, 3.0),
    st.floats(0.0, 2.0),
    st.floats(2.0, 6.0, exclude_min=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.05, 0.95),
    st.none() | st.floats(-4e-12, 4e-12),
)
def test_hyp_boundary_branch_agrees_with_thm19(a, da, gap, shrink, s, band):
    # c2 - a2 lies above 2, or (band drawn) within a few 1e-12 of 2, where the
    # endpoint calculus counts it as 2 and g'(1-) diverges
    a2 = a + da
    c, c2 = a + gap, a2 + 2.0 + ((gap - 2.0) * shrink if band is None else band)
    assume(a2 >= a and c2 - a2 <= c - a)
    if same_exponent(c2 - a2, 2.0):
        # hyp's M is huge or undefined here and thm1.9 reads F(1-) = inf: hyp
        # must not certify at the scale that would pass its bound test
        assume(not same_exponent(c - a, 2.0))  # h'(1-) finite
        try:
            scale = s / abs(hyp_ratio_constant(a, c, a2, c2))
        except ValueError:  # c2 - a2 computed to exactly 2
            scale = s * 1e-16
        cert = certify_hypergeom_map(a, c, a2, c2, scale, 0.5, spot_check=False)
        assert cert.status == "inconclusive"
        h, g = shifted(beta_measure(a, c)), shifted(beta_measure(a2, c2))
        thm = certify_qc_boundary_limit(h, g, scale, 0.5)
        assert (thm.status, thm.details["path"]) == ("violated", "divergent")
        return
    assume(2.0 < c2 - a2)  # branch (ii)
    m_const = hyp_ratio_constant(a, c, a2, c2)
    _cross_route_check(
        beta_measure(a, c), beta_measure(a2, c2), m_const,
        lambda b, k: certify_hypergeom_map(a, c, a2, c2, b, k, spot_check=False), s,
    )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(2.0, 6.0, exclude_min=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.05, 0.95),
)
def test_polylog_zeta_branch_agrees_with_thm19(alpha, shrink, s):
    beta = 2.0 + (alpha - 2.0) * shrink
    assume(2.0 < beta <= alpha)
    m_const = zeta(beta - 1.0) / zeta(alpha - 1.0)
    _cross_route_check(
        loggamma_measure(alpha), loggamma_measure(beta), m_const,
        lambda c, k: certify_polylog_map(alpha, beta, c, k, spot_check=False), s,
    )


def test_deriv_limit_closed_vs_quadrature():
    closed = shifted_2f1_deriv_limit(1.0, 6.0)
    assert closed == pytest.approx(5.0 / 3.0, rel=1e-14)
    quad = shifted_2f1_deriv_limit_quad(1.0, 6.0)
    assert quad == pytest.approx(closed, rel=1e-14)
    # (c-1)(c-2)/((c-a-1)(c-a-2)) = 1.7 * 0.7 / (1.2 * 0.2)
    assert shifted_2f1_deriv_limit_quad(0.5, 2.7) == pytest.approx(119.0 / 24.0, rel=1e-14)
    assert shifted_2f1_deriv_limit_quad(1.0, 2.5) == math.inf
    with pytest.raises(ValueError):
        shifted_2f1_deriv_limit(1.0, 2.5)


def test_loggamma_moments_match_series_coefficients():
    # the shifted generator's coefficient n is 1/(n+1)^alpha
    for alpha in (1.0, 2.5):
        coeffs = loggamma_measure(alpha).moments(21)
        for n in range(21):
            assert coeffs[n] == pytest.approx((n + 1.0) ** -alpha, abs=1e-10)
