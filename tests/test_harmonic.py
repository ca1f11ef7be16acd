import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmharmonic import harmonic, measures, transforms
from cmharmonic.harmonic import (
    CROSS_SLACK,
    SINGULAR_TOL,
    ConvolutionPart,
    _derivative_quotient_limit,
    _signed_nonneg_probe,
    HarmonicMap,
    SingularDerivativeError,
    certify_qc_boundary_limit,
    certify_qc_grid,
    certify_qc_ratio_sup,
    check_modulus_bound,
    check_partial_signs,
    convex_combination,
    convolve,
    density_ratio_condition,
    derivative_quotient,
    derivative_ratio_sup,
    harnack_ratio_bound,
    make_convolution_map,
    map_from_dict,
    map_to_dict,
    quotient,
    radial_limit,
    shifted,
)
from cmharmonic.measures import (
    Atom,
    Beta,
    Measure,
    beta_measure,
    dirac,
    lebesgue,
    loggamma_measure,
    _pair_points,
    measure_from_dict,
    mix,
    table_measure,
)
from cmharmonic.special import hyp_ratio_constant
from cmharmonic.transforms import (
    CauchyTransform,
    GridSpec,
    _block_rows,
    _kernel_sums,
    _rect_kernel_sums,
    check_membership,
)
from conftest import random_disk_points, random_measure

F1 = shifted(dirac(1.0))  # z/(1-z)
IDENT = shifted(dirac(0.0))  # z

SMALL = GridSpec(nr=6, ntheta=32, nx=30, ny=30)


# -- evaluation ----------------------------------------------------------------


def test_eval_reduces_to_analytic_part():
    f = HarmonicMap(F1, F1, 0.0)
    assert f.eval(0.5) == pytest.approx(1.0, abs=1e-13)


def test_eval_direct_complex_arithmetic():
    # oracle: z/(1-z) + 0.3 * conj(z) at z = i/2 by hand
    f = HarmonicMap(F1, IDENT, 0.3)
    z = 0.5j
    expected = z / (1.0 - z) + 0.3 * np.conj(z)
    assert f.eval(z) == pytest.approx(expected, abs=1e-13)
    assert expected == pytest.approx(-0.2 + 0.25j, abs=1e-15)


def test_collapsing_arc_maps_to_single_point():
    c = 0.36
    f = HarmonicMap(F1, IDENT, c)
    rho = 1.0 / math.sqrt(c)
    for theta in np.linspace(2.6, 3.68, 8):
        z = 1.0 + rho * np.exp(1j * theta)
        assert abs(z) < 1.0
        assert f.eval(z) == pytest.approx(c - 1.0, abs=1e-10)


def test_values_vectorized_matches_scalar():
    rng = np.random.default_rng(4)
    f = HarmonicMap(shifted(random_measure(rng)), shifted(random_measure(rng)), 0.4)
    zs = random_disk_points(rng, 6)
    vec = f.values(zs)
    for z, v in zip(zs, vec):
        assert v == pytest.approx(f.eval(z), abs=1e-10)


def _two_call_values(f, zs):
    """``values`` and ``dilatation_values`` as first written, each part evaluated on its own."""
    hp, gp = f.h.derivs(zs), f.g.derivs(zs)
    singular = np.abs(hp) < SINGULAR_TOL
    omega = np.full(zs.shape, np.nan + 0j)
    omega[~singular] = f.c * gp[~singular] / hp[~singular]
    return f.h.values(zs) + f.c * np.conj(f.g.values(zs)), omega, singular


_SHARED = ("one measure object", "equal measures parsed apart", "point mass at 0")


class _FakePart:
    """A part of neither transform class."""


@pytest.mark.parametrize("case", [*_SHARED, "distinct measures", "probe fails", "convolution part"])
def test_vectorized_map_evaluates_a_shared_measure_once(monkeypatch, case):
    maps = _equivalence_maps()
    # an atomic factor keeps the 768-node sweep cheap: three blocks of 256
    # scaled copies, one kernel sum each
    nu = Measure(((0.2, 0.5), (0.9, 0.5)))
    maps["convolution part"] = make_convolution_map(shifted(beta_measure(1.5, 3.2)), nu, 0.4)
    f = maps[case]
    zs = GridSpec().disk_points()
    ref_values, ref_omega, ref_singular = _two_call_values(f, zs)
    calls = []
    kernel_sums = transforms._kernel_sums

    def counting(*args):
        calls.append(args[-1])
        return kernel_sums(*args)

    monkeypatch.setattr(transforms, "_kernel_sums", counting)
    values = f.values(zs)
    omega, singular = f.dilatation_values(zs)
    assert values.tobytes() == ref_values.tobytes()
    assert omega.tobytes() == ref_omega.tobytes()
    assert singular.tolist() == ref_singular.tolist()
    sums = {"convolution part": 4}.get(case, 1 if case in _SHARED else 2)
    assert calls == [1] * sums + [2] * sums


@pytest.mark.parametrize("case", [*_SHARED, "distinct measures", "probe fails", "convolution part"])
def test_scalar_map_methods_evaluate_a_shared_measure_once(monkeypatch, case):
    maps = _equivalence_maps()
    maps["convolution part"] = make_convolution_map(shifted(beta_measure(1.5, 3.2)), lebesgue(), 0.4)
    f = maps[case]
    z = 0.5 + 0.3j
    calls = []
    adaptive_quad = measures.adaptive_quad

    def counting(*args, **kwargs):
        calls.append(1)
        return adaptive_quad(*args, **kwargs)

    def results():
        return f.eval(z), f.dilatation(z), f.jacobian(z), certify_qc_grid(f, 0.9, grid=SMALL).to_dict()

    monkeypatch.setattr(measures, "adaptive_quad", counting)
    got = results()
    counts = []
    for method in (f.dilatation, f.h.deriv, f.g.deriv):
        calls.clear()
        method(z)
        counts.append(len(calls))
    shared = case in _SHARED
    assert counts[0] == (counts[1] if shared else counts[1] + counts[2])
    # the reference evaluates g on its own; repr round-trips every float bit for bit
    monkeypatch.setattr(HarmonicMap, "_shares_measure", lambda self: False)
    assert repr(got) == repr(results())


def test_c_bound_enforced():
    with pytest.raises(ValueError):
        HarmonicMap(F1, F1, 1.0)
    with pytest.raises(ValueError):
        HarmonicMap(F1, F1, 0.8 + 0.7j)
    with pytest.raises(ValueError):
        HarmonicMap(F1, F1, 0.5j)  # every certificate reads c as a real in [0, 1)


# -- dilatation and Jacobian -----------------------------------------------------


def test_dilatation_constant_for_equal_parts():
    f = HarmonicMap(F1, F1, 0.5)
    for z in [0.3, -0.6 + 0.2j]:
        assert f.dilatation(z) == pytest.approx(0.5, abs=1e-12)


def test_dilatation_closed_form():
    # omega = c (1-z)^2 for the point-mass pair
    f = HarmonicMap(F1, IDENT, 0.2)
    assert f.dilatation(-0.9) == pytest.approx(0.2 * 1.9**2, abs=1e-12)
    assert f.dilatation(0.0) == pytest.approx(0.2, abs=1e-12)
    zs = random_disk_points(np.random.default_rng(1), 5)
    omega, singular = f.dilatation_values(zs)
    assert not singular.any()
    assert np.allclose(omega, 0.2 * (1.0 - zs) ** 2, atol=1e-12)


def test_dilatation_singular_guard():
    # h' = 1/2 + 1/(2 (1 - z)^2) vanishes at z = 1 + i, off the disk
    h = shifted(mix(dirac(0.0), dirac(1.0), 0.5))
    assert h.derivs(np.array([1.0 + 1.0j]))[0] == 0.0
    f = HarmonicMap(h, IDENT, 0.3)
    with pytest.raises(SingularDerivativeError):
        f.dilatation(1.0 + 1.0j)
    _, singular = f.dilatation_values(np.array([1.0 + 1.0j, 0.1 + 0j]))
    assert singular.tolist() == [True, False]


def test_jacobian_factorization_and_sign():
    f = HarmonicMap(F1, F1, 0.5)
    z = 0.2 + 0.1j
    assert f.jacobian(z) == pytest.approx(0.75 * abs(F1.deriv(z)) ** 2, abs=1e-12)
    # c = 0: Jacobian positive everywhere sampled
    f0 = HarmonicMap(F1, IDENT, 0.0)
    assert all(f0.jacobian(z) > 0 for z in random_disk_points(np.random.default_rng(2), 5))


def test_jacobian_sign_change_beyond_quarter():
    # |omega| = c|1-z|^2 crosses 1 on (-1, 0) exactly when c > 1/4
    f = HarmonicMap(F1, IDENT, 0.3)
    xs = np.linspace(-0.95, 0.0, 40)
    jac = np.array([f.jacobian(x) for x in xs])
    assert jac.min() < 0 < jac.max()
    for x in xs:
        assert (f.jacobian(x) > 0) == (abs(f.dilatation(x)) < 1.0)


# -- grid certificates ------------------------------------------------------------


def test_certify_grid_marginal_pass():
    cert = certify_qc_grid(HarmonicMap(F1, IDENT, 0.2), 0.8)
    assert cert.holds and cert.status == "certified"
    assert 0.78 <= cert.sup_estimate <= 0.8
    assert cert.details["argsup_re"] == pytest.approx(-0.98, abs=1e-12)


def test_certify_grid_equal_parts():
    cert = certify_qc_grid(HarmonicMap(F1, F1, 0.5), 0.5)
    assert cert.holds
    assert cert.sup_estimate == pytest.approx(0.5, abs=1e-12)


def test_certify_grid_violation():
    cert = certify_qc_grid(HarmonicMap(F1, IDENT, 0.3), 0.8)
    assert cert.status == "violated"
    assert cert.sup_estimate > 1.0


def test_certify_grid_validates_k():
    with pytest.raises(ValueError):
        certify_qc_grid(HarmonicMap(F1, F1, 0.2), 1.0)


def test_certificate_serialization():
    cert = certify_qc_grid(HarmonicMap(F1, IDENT, 0.2), 0.8, grid=SMALL)
    d = cert.to_dict()
    assert d["method"] == "grid" and "sup_estimate" in d and d["grid"]["nr"] == 6


# -- pointwise modulus bound -------------------------------------------------------


def test_radial_limit_closed_form():
    f = HarmonicMap(F1, F1, 0.5)
    assert radial_limit(f) == pytest.approx(-0.75, abs=1e-10)


def test_modulus_bound_equality_on_negative_axis():
    f = HarmonicMap(F1, F1, 0.5)
    rep = check_modulus_bound(f, a=0.75, samples=np.linspace(-0.9, -0.1, 9).astype(complex))
    assert rep.passed
    assert rep.min_margin_pointwise == pytest.approx(0.0, abs=1e-12)


def test_modulus_bound_with_default_shift():
    rep = check_modulus_bound(HarmonicMap(F1, F1, 0.5), samples=SMALL.disk_points())
    assert rep.passed and rep.a == pytest.approx(0.75, abs=1e-10)
    rep0 = check_modulus_bound(HarmonicMap(F1, IDENT, 0.0), a=0.5, samples=SMALL.disk_points())
    assert rep0.passed and rep0.limit == pytest.approx(-0.5, abs=1e-10)


def _modulus_bound_reference(f, a, samples, slack=1e-9):
    """The pre-change formula: one radial value per sample, not per radius."""
    limit = radial_limit(f)
    zs = np.asarray(samples, dtype=complex)
    radial = f.values(-np.abs(zs)).real
    margin1 = np.abs(a + f.values(zs)) - (a + radial)
    margin2 = radial - limit
    return {
        "passed": bool(np.min(margin1) >= -slack and np.min(margin2) >= -slack),
        "n_samples": int(zs.size),
        "min_margin_pointwise": float(np.min(margin1)),
        "min_margin_limit": float(np.min(margin2)),
    }


def test_modulus_bound_matches_per_sample_radial_values():
    rng = np.random.default_rng(37)
    ring = 0.4 * np.exp(1j * np.linspace(0.0, 6.0, 7))
    repeated = np.concatenate([ring, ring[::-1], 0.9 * ring, [-0.4, 0.4, 0.4j]])
    square = random_disk_points(rng, 60).reshape(6, 10)
    maps = [
        HarmonicMap(shifted(random_measure(rng)), shifted(random_measure(rng)), 0.6),
        HarmonicMap(F1, F1, 0.5),
    ]
    for f in maps:
        a = max(0.0, -radial_limit(f))
        for samples in (None, repeated, square):
            got = check_modulus_bound(f, samples=samples).to_dict()
            ref = _modulus_bound_reference(f, a, GridSpec().disk_points() if samples is None else samples)
            assert (got["passed"], got["n_samples"]) == (ref["passed"], ref["n_samples"])
            for key in ("min_margin_pointwise", "min_margin_limit"):
                assert math.isclose(got[key], ref[key], rel_tol=1e-15), key


def test_modulus_bound_requires_real_c():
    with pytest.raises(ValueError):
        check_modulus_bound(HarmonicMap(F1, F1, 0.5j))


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_modulus_bound_refuses_a_shift_that_is_not_finite(a):
    # a NaN shift used to give a "nan" margin and a violation verdict
    f = HarmonicMap(shifted(beta_measure(1.0, 3.0)), shifted(lebesgue()), 0.5)
    with pytest.raises(ValueError, match="the shift a must be finite"):
        check_modulus_bound(f, a=a)
    with pytest.raises(ValueError, match="the shift a must be nonnegative"):
        check_modulus_bound(f, a=-1.0)


# -- partial-sign checks -------------------------------------------------------------


def test_partial_signs_equal_measures():
    rng = np.random.default_rng(9)
    mu = random_measure(rng)
    f = HarmonicMap(shifted(mu), shifted(mu), 0.5)
    rep = check_partial_signs(f, grid=SMALL)
    assert rep.passed and rep.im_checked
    assert rep.violations_re == 0 and rep.violations_im == 0


def test_partial_signs_probe_failure_skips_im():
    f = HarmonicMap(F1, IDENT, 0.5)
    rep = check_partial_signs(f, grid=SMALL)
    assert not rep.im_checked and rep.im_skip_reason
    assert rep.violations_re == 0 and rep.passed


def test_partial_signs_degenerate_point_mass_at_zero():
    f = HarmonicMap(IDENT, IDENT, 0.5)
    rep = check_partial_signs(f, grid=SMALL)
    assert rep.degenerate_nodes == rep.checked_nodes
    assert rep.violations_re == 0 and rep.violations_im == 0


def test_partial_signs_mixture_probe():
    # mu = c nu + (1-c) lambda built explicitly, so the probe must pass
    c = 0.4
    nu = beta_measure(2.0, 3.0)
    lam = dirac(0.5)
    mu = mix(nu, lam, c)
    f = HarmonicMap(shifted(mu), shifted(nu), c)
    rep = check_partial_signs(f, grid=SMALL)
    assert rep.im_checked and rep.passed


def _partial_signs_reference(f, grid, slack=1e-9, degenerate_tol=1e-12):
    """The sweep as first written: grid plus mirror, rules concatenated, three sums."""
    c = f.c
    mu, nu = f.h.mu, f.g.mu
    upper = grid.rect_points()
    nodes = np.concatenate([upper, np.conj(upper)])
    xs, ys = nodes.real[:, None], nodes.imag[:, None]
    t_mu, w_mu = mu._rule
    t_nu, w_nu = nu._rule
    t = np.concatenate([t_mu, t_nu])[None, :]
    w_plus = np.concatenate([w_mu, c * w_nu])
    w_minus = np.concatenate([w_mu, -c * w_nu])
    denom = 1.0 - 2.0 * xs * t + t * t * (xs * xs + ys * ys)
    kern = 2.0 * ys * t * (1.0 - xs * t) / (denom * denom)
    live = ~(np.abs(kern) @ np.abs(w_plus) <= degenerate_tol)
    q_re = -(ys[:, 0] * (kern @ w_plus))[live]
    q_im = (ys[:, 0] * (kern @ w_minus))[live]
    probe_ok, _ = _signed_nonneg_probe(mu, nu, c)
    return {
        "checked_nodes": len(nodes),
        "violations_re": int(np.sum(q_re > slack)),
        "violations_im": int(np.sum(q_im < -slack)) if probe_ok else 0,
        "degenerate_nodes": int(np.sum(~live)),
        "im_checked": probe_ok,
        "worst_re": float(np.max(q_re)) if q_re.size else -math.inf,
        "worst_im": (-float(np.min(q_im)) if q_im.size else -math.inf) if probe_ok else None,
    }


_SPEC = {
    "atoms": [{"t": 0.3, "w": 0.2}],
    "densities": [
        {"family": "beta", "a": 1.5, "c": 3.2, "w": 0.5},
        {"family": "loggamma", "alpha": 2.0, "w": 0.3},
    ],
}


def _equivalence_maps():
    mu = random_measure(np.random.default_rng(9))
    parsed = map_from_dict({"h": _SPEC, "g": _SPEC, "c": 0.6})
    assert parsed.h.mu == parsed.g.mu and parsed.h.mu is not parsed.g.mu
    nu = measure_from_dict(_SPEC)
    distinct = HarmonicMap(shifted(mix(nu, beta_measure(2.0, 3.0), 0.4)), shifted(nu), 0.4)
    return {
        "one measure object": HarmonicMap(shifted(mu), shifted(mu), 0.5),
        "equal measures parsed apart": parsed,
        "distinct measures": distinct,
        "probe fails": HarmonicMap(F1, IDENT, 0.5),
        "point mass at 0": HarmonicMap(IDENT, IDENT, 0.5),
    }


# the negative slack turns the nodes nearest the sign boundary into violations,
# so the violation counts are compared away from zero too
@pytest.mark.parametrize("slack", [1e-9, -5e-6])
@pytest.mark.parametrize("case", sorted(_equivalence_maps()))
def test_partial_signs_match_grid_plus_mirror_reference(monkeypatch, case, slack):
    f = _equivalence_maps()[case]
    ref = _partial_signs_reference(f, SMALL, slack=slack)
    monkeypatch.setattr(harmonic, "CHECK_SLACK", slack)
    got = check_partial_signs(f, grid=SMALL).to_dict()
    for key in ("checked_nodes", "violations_re", "violations_im", "degenerate_nodes", "im_checked"):
        assert got[key] == ref[key], key
    for key in ("worst_re", "worst_im"):
        if ref[key] is None or not math.isfinite(ref[key]):
            assert got[key] == ref[key], key
        else:
            assert math.isclose(got[key], ref[key], rel_tol=1e-12), key


def test_partial_signs_factored_kernel_block_edges(monkeypatch):
    # the factored kernel blocks the y axis: rectangles one y short of a
    # block, exactly one, one over, and only two x columns
    shared = _equivalence_maps()["equal measures parsed apart"]
    distinct = _equivalence_maps()["distinct measures"]
    rules = {
        "shared": len(shared.h.mu._rule[0]),
        "distinct": len(distinct.h.mu._rule[0]) + len(distinct.g.mu._rule[0]),
    }
    for name, f in (("shared", shared), ("distinct", distinct)):
        rows = _block_rows(rules[name])
        assert 1 < rows < 100
        for ny in (rows - 1, rows, rows + 1):
            grid = GridSpec(nx=2, ny=ny)
            for slack in (1e-9, -5e-6):
                ref = _partial_signs_reference(f, grid, slack=slack)
                monkeypatch.setattr(harmonic, "CHECK_SLACK", slack)
                got = check_partial_signs(f, grid=grid).to_dict()
                for key in ("checked_nodes", "violations_re", "violations_im", "degenerate_nodes"):
                    assert got[key] == ref[key], (name, ny, slack, key)
                for key in ("worst_re", "worst_im"):
                    assert math.isclose(got[key], ref[key], rel_tol=1e-12), (name, ny, slack, key)


def test_partial_signs_route_the_default_rectangle_by_columns(monkeypatch):
    # 97 columns clear the rung's ellipse and take the 32-node rungs, the 3
    # from x = 0.909 take the 128-node rules: two kernel calls per map
    calls = []
    sums = harmonic._rect_kernel_sums

    def counting(x, y, t, weights, power):
        calls.append((len(x), len(t)))
        return sums(x, y, t, weights, power)

    monkeypatch.setattr(harmonic, "_rect_kernel_sums", counting)
    mu = measure_from_dict(_SPEC)
    nu = beta_measure(2.0, 3.0)
    for f, rung, gauss in (
        (HarmonicMap(shifted(mu), shifted(mu), 0.5), 33, 129),
        (HarmonicMap(shifted(mu), shifted(nu), 0.5), 33 + 32, 129 + 128),
    ):
        calls.clear()
        rep = check_partial_signs(f)
        assert calls == [(97, rung), (3, gauss)]
        assert rep.checked_nodes == 2 * 100 * 100 and rep.passed


def test_sign_kernel_sums_match_plain_formula_at_block_edges():
    t, w = measure_from_dict(_SPEC)._rule
    weights = np.stack([w, -w, t * w], axis=1)
    rows = _block_rows(len(t))
    for ny in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        x, y = np.array([-3.0, 0.99]), np.linspace(0.01, 3.0, ny)
        got = 2.0 * _rect_kernel_sums(x, y, t, weights, 2).reshape(-1, 3)
        nodes = (x[:, None] + 1j * y[None, :]).ravel()
        xs, ys = nodes.real[:, None], nodes.imag[:, None]
        kern = 2.0 * ys * t * (1.0 - xs * t) / (1.0 - 2.0 * xs * t + t * t * (xs * xs + ys * ys)) ** 2
        scale = np.abs(kern) @ np.abs(weights)
        assert got.shape == (2 * ny, 3)
        assert np.all(np.abs(got - kern @ weights) <= 1e-12 * scale), ny


# -- algebra ---------------------------------------------------------------------


def test_convolve_with_all_ones_is_identity():
    # dirac(1) has all moments 1, so its parts are units of the Hadamard product
    rng = np.random.default_rng(6)
    f = HarmonicMap(shifted(random_measure(rng)), shifted(random_measure(rng)), 0.4)
    unit = HarmonicMap(F1, F1, 0.5)
    prod = convolve(f, unit)
    zs = random_disk_points(rng, 16)
    for got, part in ((prod.h, f.h), (prod.g, f.g)):
        for fn in ("values", "derivs", "deriv2s"):
            assert np.allclose(getattr(got, fn)(zs), getattr(part, fn)(zs), rtol=1e-14, atol=0.0)
    assert complex(prod.c) == complex(0.2)


def test_convolve_is_exact_near_the_slit():
    # z/(1-z) is its own Hadamard square, and z times it gives z
    prod = convolve(HarmonicMap(F1, F1, 0.5), HarmonicMap(F1, IDENT, 0.5))
    assert prod.h.value(0.95) == pytest.approx(19.0, rel=1e-14)
    assert prod.h.value(-0.95) == pytest.approx(-0.95 / 1.95, rel=1e-14)
    # the default sweep reaches rmax = 0.98: dilatation 0.25 (1 - z)^2, largest at z = -0.98
    cert = certify_qc_grid(prod, 0.5)
    assert cert.status == "violated" and cert.sup_estimate == pytest.approx(0.25 * 1.98**2, rel=1e-12)


def test_convolve_annihilator_co_part():
    # dirac(0) has moments 1, 0, 0, ...: its Hadamard product keeps z alone
    f = HarmonicMap(shifted(lebesgue()), shifted(lebesgue()), 0.4)
    killer = HarmonicMap(F1, IDENT, 0.5)
    prod = convolve(f, killer)
    for z in (0.4 + 0.1j, -0.9, 0.97j):
        assert prod.g.value(z) == pytest.approx(z, abs=1e-15)
        assert prod.g.deriv(z) == pytest.approx(1.0, abs=1e-15)
        assert prod.h.value(z) == pytest.approx(f.h.value(z), rel=1e-13)


def test_convolve_log_measures_add_orders():
    # moments (n + 1)^-2 times (n + 1)^-1.5 are loggamma(3.5)'s
    f1 = HarmonicMap(shifted(loggamma_measure(2.0)), IDENT, 0.3)
    f2 = HarmonicMap(shifted(loggamma_measure(1.5)), IDENT, 0.3)
    prod = convolve(f1, f2)
    ref = shifted(loggamma_measure(3.5))
    zs = np.array([0.5, 0.95, -0.95, 0.999, -3.0 + 0.5j])
    for fn in ("values", "derivs", "deriv2s"):
        got, want = getattr(prod.h, fn)(zs), getattr(ref, fn)(zs)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), fn


def test_convolve_result_is_cm_prefix():
    # atomic factors: the product law of s t has the atoms s_i t_j, and its
    # moments, the Hadamard product of the factors' moments, form a CM prefix
    from cmharmonic.moments import MomentSequence, is_completely_monotone

    rng = np.random.default_rng(13)
    f = HarmonicMap(shifted(random_measure(rng, with_densities=False)), IDENT, 0.2)
    g = HarmonicMap(shifted(random_measure(rng, with_densities=False)), IDENT, 0.2)
    prod = convolve(f, g)
    law = Measure(tuple((a.t * b.t, a.w * b.w) for a in f.h.mu.atoms for b in g.h.mu.atoms))
    zs = random_disk_points(rng, 16)
    assert np.allclose(prod.h.values(zs), shifted(law).values(zs), rtol=1e-14, atol=0.0)
    assert np.allclose(law.moments(12), f.h.mu.moments(12) * g.h.mu.moments(12), rtol=1e-14, atol=0.0)
    assert is_completely_monotone(MomentSequence(law.moments(12)), tol=1e-12).holds


def test_convolve_needs_measure_backed_parts():
    conv = make_convolution_map(F1, lebesgue(), 0.3)
    with pytest.raises(TypeError, match="measure-backed parts, got ConvolutionPart"):
        convolve(conv, HarmonicMap(F1, F1, 0.3))
    with pytest.raises(TypeError, match="measure-backed parts, got ConvolutionPart"):
        convolve(HarmonicMap(F1, F1, 0.3), conv)


@pytest.mark.parametrize(
    "z", [complex(math.nan, 0.0), complex(-math.inf, 0.0), complex(math.nan, 0.3)], ids=repr
)
def test_non_finite_points_are_rejected_by_every_part(z):
    # a convolution part scales z by its rule points, t = 0 included, so
    # -inf would turn into a NaN copy (with a warning) before any check
    conv = make_convolution_map(shifted(lebesgue()), beta_measure(1.0, 3.0), 0.3).g
    for part in (shifted(lebesgue()), conv):
        for fn in ("value", "deriv", "deriv2"):
            with pytest.raises(ValueError, match=re.escape(f"point {z!r} is not finite")):
                getattr(part, fn)(z)
        for fn in ("values", "derivs", "deriv2s"):
            with pytest.raises(ValueError, match=re.escape(f"point {z!r} is not finite")):
                getattr(part, fn)(np.array([0.1, z]))


def test_convex_combination():
    fa = HarmonicMap(IDENT, IDENT, 0.3)
    fb = HarmonicMap(F1, F1, 0.3)
    mixed = convex_combination(fa, fb, 0.5)
    # oracle: z/2 + z/(2(1-z)) at z = 1/2
    assert mixed.h.value(0.5) == pytest.approx(0.75, abs=1e-12)
    assert mixed.h.mu.mass == pytest.approx(1.0, abs=1e-14)
    assert convex_combination(fa, fb, 1.0).h.mu == fa.h.mu
    with pytest.raises(ValueError):
        convex_combination(fa, HarmonicMap(F1, F1, 0.4), 0.5)


def test_convolution_map_point_mass_factors():
    f = make_convolution_map(F1, dirac(1.0), 0.3)
    for z in [0.2, -0.5 + 0.3j]:
        assert f.dilatation(z) == pytest.approx(0.3, abs=1e-12)
    f0 = make_convolution_map(F1, dirac(0.0), 0.3)
    z = 0.4 + 0.1j
    assert f0.g.value(z) == pytest.approx(z, abs=1e-13)
    assert f0.eval(z) == pytest.approx(F1.value(z) + 0.3 * np.conj(z), abs=1e-12)


def test_convolution_map_is_4c_quasiconformal():
    f = make_convolution_map(F1, lebesgue(), 0.2)
    cert = certify_qc_grid(f, 0.8)
    assert cert.holds and cert.sup_estimate <= 0.8


def test_convolution_dilatation_matches_series_quotient():
    f = make_convolution_map(F1, lebesgue(), 0.2)
    # the coefficients are dirac(1)'s moments, all 1, times Lebesgue's for g
    hco = np.ones(300)
    gco = lebesgue().moments(300)
    dh = [(n + 1) * c for n, c in enumerate(hco)]
    dg = [(n + 1) * c for n, c in enumerate(gco)]
    for z in [0.3 + 0.4j, -0.85 + 0.0j, 0.5 - 0.7j, 0.88 + 0.0j]:
        series = f.c * npoly.polyval(z, dg) / npoly.polyval(z, dh)
        assert f.dilatation(z) == pytest.approx(series, abs=1e-8)


def test_convolution_part_second_derivative_matches_series():
    f = make_convolution_map(F1, lebesgue(), 0.2)
    co = lebesgue().moments(300)
    d2 = [(n + 1) * n * c for n, c in enumerate(co)][1:]
    for z in [0.3 + 0.4j, -0.8 + 0.0j]:
        assert f.g.deriv2(z) == pytest.approx(npoly.polyval(z, d2), abs=1e-8)


def test_convolution_part_validates():
    with pytest.raises(TypeError, match="got _FakePart"):
        ConvolutionPart(_FakePart(), lebesgue())
    with pytest.raises(TypeError, match="got ConvolutionPart"):
        ConvolutionPart(ConvolutionPart(F1, lebesgue()), lebesgue())
    with pytest.raises(ValueError):
        make_convolution_map(F1, lebesgue(), 1.2)


# -- the part protocol: vectorized methods, scalars derived on one point ----------


def _convolution_reference(part, zs, order):
    """The three 256-point block loops of ``ConvolutionPart`` before they shared a helper, over nu's routed rule."""
    zs = np.asarray(zs, dtype=complex)
    t, w = part.nu._rule_for(zs)
    flat = zs.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i in range(0, len(flat), 256):
        block = flat[i : i + 256]
        if order == 0:
            out[i : i + 256] = block * (part.h.base.values(np.outer(block, t)) @ w)
        elif order == 1:
            out[i : i + 256] = part.h.derivs(np.outer(block, t)) @ w
        else:
            out[i : i + 256] = part.h.deriv2s(np.outer(block, t)) @ (t * w)
    return out.reshape(zs.shape)


def _shifted_reference(part, zs, order):
    """The vector formulas of ``ShiftedCauchyTransform`` through the blocked kernel, over the routed rule."""
    zs = np.asarray(zs, dtype=complex)
    t, w = part.mu._rule_for(zs)
    if order == 0:
        return zs * _kernel_sums(zs, t, w, 1)
    if order == 1:
        return _kernel_sums(zs, t, w, 2)
    return _kernel_sums(zs, t, 2.0 * t * w, 3)


def _protocol_parts():
    mu = measure_from_dict(_SPEC)
    return {
        # each scaled copy costs a full kernel sum, so one of the two rules is atomic
        "convolution over atoms": (
            ConvolutionPart(shifted(mu), Measure(((0.0, 0.2), (0.5, 0.5), (1.0, 0.3)))),
            _convolution_reference,
        ),
        "convolution over a density": (
            ConvolutionPart(shifted(mix(dirac(0.3), dirac(0.8), 0.4)), beta_measure(1.0, 3.3)),
            _convolution_reference,
        ),
        "shifted": (shifted(mu), _shifted_reference),
    }


_VECTOR_METHODS = ("values", "derivs", "deriv2s")
_DERIVED_SCALAR_PARTS = ["convolution over a density", "convolution over atoms"]


@pytest.mark.parametrize("case", _DERIVED_SCALAR_PARTS + ["shifted"])
def test_part_vector_methods_match_pre_protocol_formulas(case):
    part, reference = _protocol_parts()[case]
    rng = np.random.default_rng(37)
    # 256-point blocks of ConvolutionPart: one, block - 1, block, block + 1, two blocks + 1
    for n in (1, 255, 256, 257, 513):
        zs = 0.94 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        for order, fn in enumerate(_VECTOR_METHODS):
            got = getattr(part, fn)(zs)
            assert got.shape == zs.shape
            assert got.tobytes() == reference(part, zs, order).tobytes(), (n, fn)
    grid = zs[:12].reshape(3, 4)
    for order, fn in enumerate(_VECTOR_METHODS):
        assert getattr(part, fn)(grid).tobytes() == reference(part, grid, order).tobytes()


def test_convolution_of_two_densities_matches_its_fixed_rules():
    # nu's rule is routed on the points as h's is: both Gauss rules here,
    # against the product of the two 840-point fixed rules, summed on the
    # nodes with theta in [0, pi] and conjugated onto their mirror images
    mu, nu = beta_measure(0.6, 1.3), loggamma_measure(1.2)
    part = ConvolutionPart(shifted(mu), nu)
    grid = GridSpec()
    zs = grid.disk_points()
    assert nu._rule_for(zs) is nu._gauss_rule and mu._rule_for(zs) is mu._gauss_rule
    (t_mu, w_mu), (t_nu, w_nu) = mu._rule, nu._rule
    half = grid.ntheta // 2
    upper = zs.reshape(grid.nr, grid.ntheta)[:, : half + 1]
    ref = _kernel_sums(upper, np.outer(t_nu, t_mu).ravel(), np.outer(w_nu, w_mu).ravel(), 2)
    ref = np.concatenate([ref, np.conj(ref[:, half - 1 : 0 : -1])], axis=1).ravel()
    assert np.all(np.abs(part.derivs(zs) - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("case", _DERIVED_SCALAR_PARTS)
def test_part_scalars_are_one_point_vector_values(case):
    part, _ = _protocol_parts()[case]
    for z in (0.0, 0.3, -0.9 + 0.0j, 0.2 - 0.7j, 0.94j):
        one = np.array([z], dtype=complex)
        for scalar, fn in (("value", "values"), ("deriv", "derivs"), ("deriv2", "deriv2s")):
            got = getattr(part, scalar)(z, tol=1e-12)
            assert type(got) is complex
            assert np.array([got]).tobytes() == getattr(part, fn)(one).tobytes(), (z, scalar)
        assert np.array([part(z)]).tobytes() == part.values(one).tobytes()


# -- ratio sup and the log-derivative bound ------------------------------------------


def test_ratio_sup_identity():
    assert derivative_ratio_sup(IDENT) == pytest.approx(1.0, abs=1e-12)


def test_ratio_sup_point_mass_approaches_four():
    sup = derivative_ratio_sup(F1)
    assert sup == pytest.approx((1.0 + 0.98) ** 2, abs=1e-9)
    assert 3.8 <= sup < 4.0


def test_ratio_sup_certificate_on_the_point_mass_map():
    # criterion 14's map c02: h = shifted dirac(1), g = shifted dirac(0), c = 0.2
    f = HarmonicMap(F1, IDENT, 0.2)
    ratio_sup = derivative_ratio_sup(F1)
    cert = certify_qc_ratio_sup(f, 0.8)
    assert (cert.method, cert.status, cert.grid) == ("thm1.6", "certified", GridSpec())
    assert cert.sup_estimate == 0.2 * ratio_sup
    assert cert.details == {"ratio_sup": ratio_sup, "c": 0.2}
    assert certify_qc_ratio_sup(f, 0.1).status == "violated"
    for k in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 1\)"):
            certify_qc_ratio_sup(f, k)


def test_harnack_bound_point_mass():
    rep = harnack_ratio_bound(F1, 1.0)
    assert rep.hypothesis_holds
    assert rep.min_re_observed > -1.0
    assert rep.bound == pytest.approx(math.e**2, abs=1e-12)
    assert rep.ratio_sup <= rep.bound and rep.ratio_within_bound


def test_harnack_bound_identity_any_m():
    rep = harnack_ratio_bound(IDENT, 0.25)
    assert rep.hypothesis_holds and rep.ratio_sup == pytest.approx(1.0, abs=1e-12)


def test_harnack_bound_shifted_hypergeometric():
    rep = harnack_ratio_bound(shifted(beta_measure(1.0, 3.0)), 1.0, grid=SMALL)
    assert rep.hypothesis_holds
    assert rep.ratio_sup < math.e**2


def test_ratio_sup_needs_both_ends_of_t():
    for nt in (-1, 0, 1):
        with pytest.raises(ValueError, match="nt must be at least 2"):
            derivative_ratio_sup(F1, grid=SMALL, nt=nt)
    # two samples are t = 0 and t = 1 alone: the sup is |h'(0)| / min |h'(z)|
    assert derivative_ratio_sup(F1, grid=SMALL, nt=2) == pytest.approx(1.98**2, abs=1e-9)


def test_harnack_hypothesis_failure_no_bound():
    # z h''/h' = 2z/(1 - z) for h = z/(1 - z): its floor on |z| = 0.97 is
    # -1.94/1.97 = -0.985, at z = -0.97
    rep = harnack_ratio_bound(F1, 0.1, grid=GridSpec(rmax=0.97, nr=8, ntheta=32))
    assert not rep.hypothesis_holds
    assert rep.min_re_observed == pytest.approx(-1.94 / 1.97, rel=1e-14)
    assert rep.bound is None and rep.ratio_sup is None


# -- half-disk sweeps ------------------------------------------------------------------


def _disk_maps():
    """Maps with each part class and from each constructor that builds one."""
    nu = measure_from_dict(_SPEC)
    measure_map = HarmonicMap(shifted(mix(nu, beta_measure(2.0, 3.0), 0.4)), shifted(nu), 0.4)
    # atomic factors keep the convolution sweeps cheap
    atomic = HarmonicMap(shifted(mix(dirac(0.3), dirac(0.9), 0.5)), shifted(dirac(0.6)), 0.5)
    return {
        "measure parts": measure_map,
        "convolve": convolve(measure_map, atomic),
        "convolution part": make_convolution_map(
            shifted(mix(dirac(0.3), dirac(0.8), 0.5)), beta_measure(2.0, 3.0), 0.3
        ),
    }


def _certify_reference(f, grid):
    """``certify_qc_grid`` as first written: |dilatation| at every node (-1 where singular)."""
    omega, singular = f.dilatation_values(grid.disk_points())
    return int(singular.sum()), np.where(singular, -1.0, np.abs(omega))


def _ratio_reference(h, grid, nt=11):
    """``derivative_ratio_sup`` and the Harnack floor as first written, over the full grid.

    One t per call, so that each slice routes as the sweep's slices do:
    those with |t z| <= 0.895 to the 32-node rung.
    """
    zs = grid.disk_points()
    hp = h.derivs(zs)
    sup = 0.0
    for t in grid.t_samples(nt):
        sup = max(sup, float(np.max(np.abs(h.derivs(t * zs)) / np.abs(hp))))
    return sup, float(np.min((zs * h.deriv2s(zs) / hp).real))


@pytest.mark.parametrize("ntheta", [31, 32])
@pytest.mark.parametrize("case", sorted(_disk_maps()))
def test_disk_sweeps_match_full_grid_reference(case, ntheta):
    f = _disk_maps()[case]
    grid = replace(SMALL, ntheta=ntheta)
    singular_nodes, mags = _certify_reference(f, grid)
    cert = certify_qc_grid(f, 0.5, grid=grid)
    assert singular_nodes == 0 and set(cert.details) == {"argsup_re", "argsup_im"}
    assert math.isclose(cert.sup_estimate, float(np.max(mags)), rel_tol=1e-15)
    at = complex(cert.details["argsup_re"], cert.details["argsup_im"])
    (idx,) = np.flatnonzero(grid.disk_points() == at)
    assert at.imag >= 0.0 and mags[idx] == cert.sup_estimate

    for part in (f.h, f.g):
        ratio_sup, min_re = _ratio_reference(part, grid)
        assert math.isclose(derivative_ratio_sup(part, grid=grid), ratio_sup, rel_tol=1e-15)
        rep = harnack_ratio_bound(part, 10.0, grid=grid)
        assert rep.hypothesis_holds
        assert math.isclose(rep.min_re_observed, min_re, rel_tol=1e-15)
        assert math.isclose(rep.ratio_sup, ratio_sup, rel_tol=1e-15)


def _zero_free_margin(part, zs):
    """Re(e^{i alpha} h'(z)) over its lower bound cos(alpha) / (1 + |z|)^2, alpha = arg(1 - z)."""
    alpha = np.angle(1.0 - zs)
    return (np.exp(1j * alpha) * part.derivs(zs)).real / (np.cos(alpha) / (1.0 + np.abs(zs)) ** 2)


def test_derivative_of_every_part_class_is_zero_free_on_the_disk():
    # the bound behind the ring sweeps: each arg(1 - t z), t in [0, 1], lies
    # between 0 and alpha, so Re(e^{i alpha} (1 - t z)^-2) >= cos(alpha) |1 - t z|^-2
    zs = GridSpec().disk_points()
    rng = np.random.default_rng(41)
    parts = [shifted(random_measure(rng)) for _ in range(40)]
    # one factor atomic, so each sweep costs a few kernel sums
    for i in range(20):
        atomic = random_measure(rng, with_densities=False)
        h, nu = (random_measure(rng), atomic) if i % 2 else (atomic, random_measure(rng))
        parts.append(ConvolutionPart(shifted(h), nu))
    for part in parts:
        assert np.min(_zero_free_margin(part, zs)) >= 1.0 - 1e-12, part
    # dirac(1) attains the bound on the negative axis, where alpha = 0
    assert np.min(_zero_free_margin(F1, zs)) == pytest.approx(1.0, rel=1e-14)


def test_disk_sweeps_refuse_a_part_of_neither_class():
    for call in (
        lambda: HarmonicMap(_FakePart(), IDENT, 0.3),
        lambda: HarmonicMap(IDENT, _FakePart(), 0.3),
        lambda: derivative_ratio_sup(_FakePart(), grid=SMALL),
        lambda: harnack_ratio_bound(_FakePart(), 1.0, grid=SMALL),
    ):
        with pytest.raises(TypeError, match="transform-class parts, got _FakePart"):
            call()


def test_ring_sweeps_match_full_grid_on_random_maps():
    # the sup of |dilatation| and the floor of Re[z h''/h'] sit on the outer
    # ring (maximum modulus and minimum principles); the ring nodes are the
    # outer row of the full grid bit for bit, so both come out bitwise equal
    grid = GridSpec()
    rng = np.random.default_rng(29)
    for _ in range(40):
        f = HarmonicMap(shifted(random_measure(rng)), shifted(random_measure(rng)), float(rng.uniform(0.05, 0.9)))
        singular_nodes, mags = _certify_reference(f, grid)
        cert = certify_qc_grid(f, 0.5, grid=grid)
        assert singular_nodes == 0
        assert cert.sup_estimate == float(np.max(mags))
        assert complex(cert.details["argsup_re"], cert.details["argsup_im"]) == grid.disk_points()[np.argmax(mags)]
        ratio_sup, min_re = _ratio_reference(f.h, grid)
        assert math.isclose(derivative_ratio_sup(f.h, grid=grid), ratio_sup, rel_tol=1e-15)
        rep = harnack_ratio_bound(f.h, 10.0, grid=grid)
        assert rep.min_re_observed == min_re
        assert math.isclose(rep.ratio_sup, ratio_sup, rel_tol=1e-15)


def _bits(a):
    """Bit patterns of a complex array, reading -0.0 as +0.0."""
    return np.ascontiguousarray(a + 0.0).view(np.uint64)


@pytest.mark.parametrize("ntheta", [2, 3, 4, 31, 32, 64])
def test_disk_points_are_conjugate_closed(ntheta):
    grid = GridSpec(nr=3, ntheta=ntheta)
    zs = grid.disk_points().reshape(grid.nr, ntheta)
    j = np.arange(ntheta)
    on_axis = (j == 0) | (2 * j == ntheta)
    mirror = zs[:, -j % ntheta]
    assert np.array_equal(_bits(mirror[:, ~on_axis]), _bits(np.conj(zs[:, ~on_axis])))
    assert np.all(zs[:, on_axis].imag == 0.0)
    r = np.linspace(grid.rmin, grid.rmax, grid.nr)
    if ntheta % 2 == 0:
        assert np.array_equal(zs[:, ntheta // 2], -r)
    # the angles below pi are the plain formula, bit for bit
    upper = j < ntheta / 2
    plain = r[:, None] * np.exp(1j * (2.0 * np.pi * j[upper] / ntheta))[None, :]
    assert np.array_equal(_bits(zs[:, upper]), _bits(plain))


@pytest.mark.parametrize("ntheta", [2, 3, 4, 31, 32, 64])
@pytest.mark.parametrize("rmin, rmax, nr", [(0.1, 0.98, 12), (0.1, 0.95, 6), (0.2, 1 / 3, 7), (0.5, 0.5, 2)])
def test_upper_ring_is_the_outer_row_of_the_disk_grid(ntheta, rmin, rmax, nr):
    grid = GridSpec(rmin=rmin, rmax=rmax, nr=nr, ntheta=ntheta)
    ring = grid._upper_ring()
    outer = grid.disk_points().reshape(nr, ntheta)[-1]
    assert ring.size == ntheta // 2 + 1
    assert np.array_equal(_bits(ring), _bits(outer[: ring.size]))
    assert np.all(ring.real ** 2 + ring.imag ** 2 <= (rmax * (1 + 4e-16)) ** 2)
    assert np.all(ring.imag >= 0.0)


def test_part_kernels_are_conjugate_equivariant():
    grid = replace(SMALL, rmax=0.95)
    zs = grid.disk_points()
    off_axis = zs.imag != 0.0
    parts = [(f.h, f.g) for f in _disk_maps().values()]
    for part in [p for pair in parts for p in pair] + [parts[0][0].base]:
        for fn in ("values", "derivs", "deriv2s"):
            if not hasattr(part, fn):
                continue
            a = getattr(part, fn)(zs)[off_axis]
            b = getattr(part, fn)(np.conj(zs))[off_axis]
            assert np.array_equal(_bits(b), _bits(np.conj(a))), (part, fn)


# -- density comparison and boundary-limit certificates ---------------------------------


def test_density_ratio_condition_cases():
    assert density_ratio_condition(lebesgue(), lebesgue()).holds
    assert density_ratio_condition(beta_measure(1.0, 3.0), beta_measure(2.0, 3.0)).holds
    assert density_ratio_condition(loggamma_measure(2.0), loggamma_measure(1.0)).holds
    bad = density_ratio_condition(beta_measure(2.0, 3.0), beta_measure(1.0, 3.0))
    assert not bad.holds and bad.max_violation > 0
    assert bad.worst_s is not None and bad.worst_s < bad.worst_t


def test_density_ratio_rejects_atoms():
    with pytest.raises(ValueError):
        density_ratio_condition(dirac(0.5), lebesgue())


def test_density_ratio_spot_check_membership():
    phi, psi = beta_measure(1.0, 3.0), beta_measure(2.0, 3.0)
    assert density_ratio_condition(phi, psi).holds
    h, g = shifted(phi), shifted(psi)
    grid = GridSpec(nx=30, ny=30)
    assert check_membership(quotient(h, g), grid=grid).consistent
    assert check_membership(derivative_quotient(h, g), grid=grid).consistent


def test_probe_reads_the_density_pair_sample_to_both_ends():
    # mu - c nu = 1 - 0.45 (1 - t)**-0.1 is negative for t > 0.99966, past the last midpoint
    ok, reason = _signed_nonneg_probe(lebesgue(), beta_measure(1.0, 1.9), 0.5)
    assert not ok and reason == "density domination fails near t=0.9999999999990905"
    # mu - c nu = 1 - 0.475 t**-0.05 is negative for t < 3.5e-7, before the first one
    ok, reason = _signed_nonneg_probe(lebesgue(), beta_measure(0.95, 1.95), 0.5)
    assert not ok and reason == f"density domination fails near t={2.0**-40!r}"


def test_probe_compares_the_total_atom_weight_at_each_location():
    # at c = 0.9 each atom's 0.45 fits under mu's 0.6, their total 0.9 does not
    h = measure_from_dict({"atoms": [{"t": 0.5, "w": 0.6}], "densities": [{"family": "lebesgue", "w": 0.4}]})
    split = measure_from_dict({"atoms": [{"t": 0.5, "w": 0.5}, {"t": 0.5, "w": 0.5}]})
    joined = measure_from_dict({"atoms": [{"t": 0.5, "w": 1.0}]})
    grid = GridSpec(nx=10, ny=10)
    reports = [check_partial_signs(HarmonicMap(shifted(h), shifted(g), 0.9), grid) for g in (split, joined)]
    assert reports[0] == reports[1]
    assert not reports[0].im_checked
    assert reports[0].im_skip_reason == "nu atoms at t=0.5 (weight 1.0) not dominated in mu"
    assert _signed_nonneg_probe(h, split, 0.6)[0] and _signed_nonneg_probe(h, joined, 0.6)[0]
    # mu's masses add up the same way, and the verdict and the reason do not change
    h_split = measure_from_dict(
        {"atoms": [{"t": 0.5, "w": 0.3}, {"t": 0.5, "w": 0.3}], "densities": [{"family": "lebesgue", "w": 0.4}]}
    )
    for c in (0.6, 0.9):
        verdict = _signed_nonneg_probe(h, joined, c)
        assert _signed_nonneg_probe(h, split, c) == _signed_nonneg_probe(h_split, split, c) == verdict


# Signed exponent gaps: zero, or between 1e-9 and 2 in size.
_GAP = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-9.0, 0.3)),
)


@st.composite
def _same_family_pair(draw):
    """(phi, psi, rule): a named same-family pair and whether its parameters make psi/phi nondecreasing."""
    kind = draw(st.sampled_from(["beta/beta", "lebesgue/beta", "beta/lebesgue", "loggamma/loggamma"]))
    p, q = draw(_GAP), draw(_GAP)
    if kind == "loggamma/loggamma":
        alpha = draw(st.floats(0.3, 4.0))
        assume(alpha + p >= 0.2)
        return loggamma_measure(alpha), loggamma_measure(alpha + p), p <= 0.0
    # exponents (a, c - a) at t = 0 and t = 1; Lebesgue is beta(1, 2)
    if kind == "beta/beta":
        h = (draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0)))
        g = (h[0] + p, h[1] + q)
    elif kind == "lebesgue/beta":
        h, g = (1.0, 1.0), (1.0 + p, 1.0 + q)
    else:
        h, g = (1.0 - p, 1.0 - q), (1.0, 1.0)
    assume(min(h + g) >= 0.2)
    return beta_measure(h[0], sum(h)), beta_measure(g[0], sum(g)), p >= 0.0 and q <= 0.0


@settings(max_examples=200, deadline=None)
@given(_same_family_pair())
def test_density_ratio_scan_follows_the_parameter_rules(pair):
    # beta: psi/phi ~ t**p (1 - t)**q; log-power: psi/phi ~ (-log t)**p
    phi, psi, rule = pair
    assert density_ratio_condition(phi, psi).holds is rule


def _cross_inequality_all_pairs(phi, psi, ts):
    """The cross inequality on every pair s < t of ts, from the n x n product matrix.

    Reference for the one-pass scan: the product-matrix code on the scan's
    points, with its relative rounding rule
    phi(s) psi(t) >= (1 - CROSS_SLACK) phi(t) psi(s).
    """
    p = phi.pdf(ts)
    q = psi.pdf(ts)
    a = p[:, None] * q[None, :]
    diff = a - (1.0 - CROSS_SLACK) * a.T
    iu = np.triu_indices(len(ts), k=1)
    return bool(np.min(diff[iu]) >= 0.0)


def _density_pairs(rng, count):
    """Random atom-free pairs: mixtures of the named families, tables, and equal pairs."""
    pairs = []
    while len(pairs) < count:
        mu, nu = random_measure(rng, max_atoms=0), random_measure(rng, max_atoms=0)
        if not (mu.atoms or nu.atoms):
            pairs += [(mu, nu), (mu, mu)]
        grid = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 16) / 16, 3, replace=False)), [1.0]])
        pairs.append((lebesgue(), table_measure(grid, rng.integers(1, 5, size=5))))
    return pairs + [(phi, psi) for phi, psi, _, _ in SAMPLE_MISSED_PAIRS] + [
        (beta_measure(1.0, 3.0), beta_measure(2.0, 3.0)),
        (loggamma_measure(2.0), loggamma_measure(1.0)),
        VETO_PAIR,
    ]


def test_density_ratio_scan_matches_the_all_pairs_cross_inequality():
    verdicts = []
    for phi, psi in _density_pairs(np.random.default_rng(16), 30):
        verdict = density_ratio_condition(phi, psi, n=100)
        assert verdict.holds is _cross_inequality_all_pairs(phi, psi, _pair_points(phi, psi, 100))
        verdicts.append(verdict.holds)
    assert 0 < sum(verdicts) < len(verdicts)


def _linear_pieces(grid, values):
    """(lo, hi, intercept, slope) of each piece, exactly."""
    g = [Fraction(x) for x in grid]
    v = [Fraction(x) for x in values]
    out = []
    for lo, hi, v0, v1 in zip(g, g[1:], v, v[1:]):
        slope = (v1 - v0) / (hi - lo)
        out.append((lo, hi, v0 - slope * lo, slope))
    return out


def _line(pieces, t):
    """Intercept and slope of a piece holding t (at a breakpoint both give the same value)."""
    return next((p, q) for lo, hi, p, q in pieces if lo <= t <= hi)


def _table_of(mu):
    d = mu.densities[0]
    return ((0.0, 1.0), (1.0, 1.0)) if d == Beta(1.0, 2.0) else (d.grid, d.values)


# Inner breakpoints: sixteenths, and two points closer to an end than any midpoint (i + 1/2)/1000.
_TABLE_POINTS = [i / 16 for i in range(1, 16)] + [1e-4, 1.0 - 1e-4]


@st.composite
def _table_pair(draw):
    """(phi, psi): phi uniform or a positive table, psi a table that may start with a zero piece and end falling."""
    def grid():
        inner = draw(st.lists(st.sampled_from(_TABLE_POINTS), max_size=4, unique=True))
        return [0.0] + sorted(inner) + [1.0]

    phi_grid, psi_grid = grid(), grid()
    phi_values = draw(st.none() | st.lists(st.integers(1, 4), min_size=len(phi_grid), max_size=len(phi_grid)))
    values = [draw(st.integers(0, 4)) for _ in psi_grid]
    if draw(st.booleans()) and len(psi_grid) > 2:
        values[0] = values[1] = 0
    if draw(st.booleans()):
        values[-1] = draw(st.integers(0, max(0, values[-2] - 1)))
    assume(any(values[1:-1]) or values[0] + values[-1] > 0)
    phi = lebesgue() if phi_values is None else table_measure(phi_grid, phi_values)
    return phi, table_measure(psi_grid, values)


# psi peaks at the breakpoint 0.3, between two midpoints, dips by less than it
# rose since the midpoint before, and c psi exceeds 1 at the peak only: only
# the breakpoint itself shows either failure.
_PEAK = table_measure([0.0, 0.3, 0.3002, 1.0], [1.0, 2.0, 1.999, 1.9995])
_PEAK_C = 1.0 / (0.9999 * _PEAK.densities[0].values[1])


@settings(max_examples=150, deadline=None)
@given(_table_pair(), st.floats(0.05, 0.95))
@example((lebesgue(), _PEAK), _PEAK_C)
def test_density_pair_sample_decides_tables_piece_by_piece(pair, c):
    phi, psi = pair
    phi_pieces, psi_pieces = _linear_pieces(*_table_of(phi)), _linear_pieces(*_table_of(psi))
    points = sorted({lo for lo, *_ in phi_pieces + psi_pieces} | {Fraction(1)})
    # phi = p + q t and psi = r + s t on each merged piece: psi/phi has the slope sign of p s - q r
    lines = [(_line(phi_pieces, (a + b) / 2), _line(psi_pieces, (a + b) / 2)) for a, b in zip(points, points[1:])]
    rule = all(p * s - q * r >= 0 for (p, q), (r, s) in lines)
    assert density_ratio_condition(phi, psi).holds is rule
    # phi - c psi is linear on each merged piece, so its values at the breakpoints decide
    phi_at = [p + q * t for t in points for p, q in [_line(phi_pieces, t)]]
    psi_at = [r + s * t for t in points for r, s in [_line(psi_pieces, t)]]
    nonneg = all(f - Fraction(c) * g >= -Fraction(CROSS_SLACK) * f for f, g in zip(phi_at, psi_at))
    assert _signed_nonneg_probe(phi, psi, c)[0] is nonneg


def test_boundary_limit_equal_parts():
    h = shifted(lebesgue())
    cert = certify_qc_boundary_limit(h, h, 0.3, 0.5)
    assert cert.holds
    assert cert.details["f_limit"] == pytest.approx(1.0, abs=1e-12)
    cert2 = certify_qc_boundary_limit(h, h, 0.6, 0.5)
    assert cert2.status == "violated"


def test_boundary_limit_direct_path_zeta_quotient():
    # g' and h' converge separately; the limit is the zeta(2)/zeta(3) quotient
    cert = certify_qc_boundary_limit(
        shifted(loggamma_measure(4.0)), shifted(loggamma_measure(3.0)), 0.5, 0.7
    )
    assert cert.holds and cert.details["path"] == "direct"
    assert cert.details["f_limit"] == pytest.approx(1.3684327776202058757, abs=1e-12)  # mpmath
    assert cert.details["g_deriv_limit"] == pytest.approx(1.6449340668482264365, abs=1e-12)
    assert cert.details["h_deriv_limit"] == pytest.approx(1.2020569031595942854, abs=1e-12)


def test_boundary_limit_second_derivative_path():
    # both first derivatives blow up; both densities have endpoint exponent 1,
    # and the limit is the quotient of their coefficients 2 / 1
    cert = certify_qc_boundary_limit(shifted(lebesgue()), shifted(beta_measure(2.0, 3.0)), 0.3, 0.7)
    assert cert.holds
    assert cert.details["path"] == "endpoint exponents"
    assert cert.details["f_limit"] == pytest.approx(2.0, abs=1e-12)
    assert cert.details["h_deriv_limit"] == cert.details["g_deriv_limit"] == math.inf
    assert (cert.details["h_exponent"], cert.details["g_exponent"]) == (1.0, 1.0)


def test_boundary_limit_infinite_is_inconclusive():
    # g'(1-) = zeta(1) = +inf while h'(1-) = zeta(2): the quotient is +inf,
    # so no k < 1 bounds the dilatation
    cert = certify_qc_boundary_limit(
        shifted(loggamma_measure(3.0)), shifted(loggamma_measure(2.0)), 0.2, 0.9
    )
    assert cert.status == "violated"
    assert cert.details["path"] == "divergent"
    assert cert.details["f_limit"] == cert.sup_estimate == math.inf
    assert cert.details["h_deriv_limit"] == pytest.approx(1.6449340668482264365, rel=1e-13)


def test_boundary_limit_pair_against_hyp_ratio_constant():
    # h = beta(1, 3.3), g = beta(1.2, 3.4): g'/h' tends to the gamma-free
    # constant 1.8261, so c = 0.5 gives sup 0.913 > 0.85
    cert = certify_qc_boundary_limit(
        shifted(beta_measure(1.0, 3.3)), shifted(beta_measure(1.2, 3.4)), 0.5, 0.85
    )
    assert cert.status == "violated" and cert.details["path"] == "direct"
    assert cert.details["f_limit"] == pytest.approx(hyp_ratio_constant(1.0, 3.3, 1.2, 3.4), rel=1e-13)
    assert cert.details["f_limit"] == pytest.approx(42.0 / 23.0, rel=1e-13)
    assert cert.sup_estimate == pytest.approx(21.0 / 23.0, rel=1e-13)


def test_boundary_limit_endpoint_exponents_of_mixtures_and_tables():
    h = shifted(lebesgue())
    # equal exponents 1: kappa_g = 0.5 * 1 + 0.5 * 2 for the mixture, and the
    # table's value 1.5 at t = 1
    for g in (
        shifted(mix(lebesgue(), beta_measure(2.0, 3.0), 0.5)),
        shifted(table_measure([0.0, 1.0], [0.5, 1.5])),
    ):
        cert = certify_qc_boundary_limit(h, g, 0.5, 0.8)
        assert cert.holds and cert.details["path"] == "endpoint exponents"
        assert cert.details["f_limit"] == pytest.approx(1.5, rel=1e-14)
    # unequal exponents: g = lebesgue (beta 1) outweighs h = beta(1, 2.5)
    # (beta 1.5) near t = 1, so g'/h' grows without bound
    cert = certify_qc_boundary_limit(shifted(beta_measure(1.0, 2.5)), h, 0.1, 0.9)
    assert cert.status == "violated"
    assert (cert.details["h_exponent"], cert.details["g_exponent"]) == (1.5, 1.0)
    assert cert.details["f_limit"] == math.inf
    # c = 0 bounds the dilatation by 0 whatever the limit
    assert certify_qc_boundary_limit(shifted(beta_measure(1.0, 2.5)), h, 0.0, 0.1).holds


def test_boundary_limit_exponents_equal_up_to_rounding():
    # h = beta(0.9, 1.9) has exponent c - a = 1, computed as 0.9999999999999999,
    # and kappa Gamma(1.9)/(Gamma(0.9) Gamma(1)) = 0.9; g = lebesgue has (1, 1).
    # g'/h' -> 1/0.9 = Gamma(0.9)/Gamma(1.9), so c = 0.9 reaches sup 1
    h, g = beta_measure(0.9, 1.9), lebesgue()
    cert = certify_qc_boundary_limit(shifted(h), shifted(g), 0.9, 0.5)
    assert cert.status == "violated" and cert.details["path"] == "endpoint exponents"
    assert cert.details["f_limit"] == pytest.approx(1.1111111111111111111, rel=1e-12)
    assert cert.sup_estimate == pytest.approx(1.0, rel=1e-12)
    # a mixture of the two adds both coefficients: 0.5 * 1 + 0.5 * 0.9
    beta, kappa = mix(g, h, 0.5).endpoint_exponent()
    assert beta == pytest.approx(1.0, rel=1e-15)
    assert kappa == pytest.approx(0.95, rel=1e-12)


def test_derivative_quotient_limit_routes():
    # the routes the cross inequality never reaches: a lighter g near t = 1
    f_limit, path, details = _derivative_quotient_limit(lebesgue(), beta_measure(1.0, 2.5))
    assert (f_limit, path) == (0.0, "endpoint exponents")
    assert (details["h_exponent"], details["g_exponent"]) == (1.0, 1.5)
    f_limit, path, details = _derivative_quotient_limit(lebesgue(), beta_measure(1.0, 4.0))
    assert (f_limit, path) == (0.0, "vanishing")
    assert details["g_deriv_limit"] == pytest.approx(3.0, rel=1e-14)  # (c-1)(c-2)/((c-a-1)(c-a-2))
    # an atom at t = 1 acts as exponent 0 with its weight as coefficient
    f_limit, path, _ = _derivative_quotient_limit(lebesgue(), mix(dirac(1.0), lebesgue(), 0.25))
    assert (f_limit, path) == (math.inf, "endpoint exponents")
    f_limit, _, _ = _derivative_quotient_limit(dirac(1.0), mix(dirac(1.0), lebesgue(), 0.25))
    assert f_limit == 0.25


# Two maps whose psi/phi turns down after t = 0.999, past the last midpoint
# (i + 1/2)/n: the dyadic points 1 - 2**-j of the density-pair sample see the
# turn, and F(1-) < 1 refutes the cross inequality as well.
# Their grid sups are 0.631 and 1.058, so neither is k-QC at the k below.
SAMPLE_MISSED_PAIRS = [
    # psi/phi falls from 2 to 0.1 on the last 0.001
    (lebesgue(), table_measure([0.0, 0.999, 1.0], [1.0, 2.0, 0.1]), 0.4, "endpoint exponents"),
    # psi/phi ~ t (1 - t)^0.001 peaks at t = 1/1.001
    (beta_measure(1.0, 3.0), beta_measure(2.0, 4.001), 0.1, "vanishing"),
]


@pytest.mark.parametrize("phi, psi, k, path", SAMPLE_MISSED_PAIRS)
def test_boundary_limit_below_one_is_inconclusive(phi, psi, k, path):
    verdict = density_ratio_condition(phi, psi)
    assert not verdict.holds and verdict.worst_s < verdict.worst_t and verdict.worst_t > 0.999
    cert = certify_qc_boundary_limit(shifted(phi), shifted(psi), 0.5, k)
    assert cert.status == "inconclusive" and cert.sup_estimate is None
    assert cert.details == {"reason": "density cross inequality failed", "max_violation": verdict.max_violation}
    f_limit, route, _ = _derivative_quotient_limit(phi, psi)
    assert route == path and f_limit < 1.0


# psi/phi = psi falls from 1 to 0 on the last 1e-14 of [0, 1], inside the
# sample's last gap of 2**-40, so the scan passes; g'/h' -> 0 gives it away.
VETO_PAIR = (lebesgue(), table_measure([0.0, 1.0 - 1e-14, 1.0], [1.0, 1.0, 0.0]))


def test_boundary_limit_below_one_vetoes_a_turn_the_sample_misses():
    phi, psi = VETO_PAIR
    assert density_ratio_condition(phi, psi).holds
    cert = certify_qc_boundary_limit(shifted(phi), shifted(psi), 0.5, 0.7)
    assert cert.status == "inconclusive" and cert.sup_estimate is None
    assert cert.details["reason"] == "boundary limit below 1 contradicts the cross inequality"
    assert cert.details["path"] == "endpoint exponents" and cert.details["f_limit"] < 1.0
    assert set(cert.details) >= {"g_deriv_limit", "h_deriv_limit"}


def test_boundary_limit_requires_cross_inequality():
    cert = certify_qc_boundary_limit(
        shifted(beta_measure(2.0, 3.0)), shifted(beta_measure(1.0, 3.0)), 0.2, 0.9
    )
    assert cert.status == "inconclusive"
    assert "cross inequality" in cert.details["reason"]


# -- structural inequalities behind the sign proofs -----------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-5.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_double_integral_kernel_positivity(s, t, x, y_extra):
    # with r^2 = x^2 + y^2 >= x^2 the bracket dominates the product of gaps
    r2 = x * x + y_extra
    bracket = 1.0 - (s + t) * x + s * t * r2
    assert bracket >= (1.0 - s * x) * (1.0 - t * x) - 1e-12
    assert (1.0 - s * x) * (1.0 - t * x) >= (1.0 - s) * (1.0 - t) - 1e-12


def test_radial_trace_non_increasing():
    rng = np.random.default_rng(21)
    rs = np.linspace(0.0, 0.99, 25)
    for _ in range(5):
        f = HarmonicMap(
            shifted(random_measure(rng)), shifted(random_measure(rng)), float(rng.uniform(0, 0.9))
        )
        vals = f.values(-rs).real
        assert np.all(np.diff(vals) <= 1e-10)
        assert vals[-1] >= radial_limit(f) - 1e-9


# -- JSON wire format ---------------------------------------------------------------


def test_map_json_round_trip():
    spec = {
        "h": {"atoms": [{"t": 1.0, "w": 1.0}]},
        "g": {"densities": [{"family": "beta", "a": 1.0, "c": 3.0, "w": 1.0}]},
        "c": 0.2,
    }
    f = map_from_dict(spec)
    assert f.c == 0.2
    back = map_to_dict(f)
    assert map_from_dict(back).h.mu == f.h.mu
    with pytest.raises(ValueError):
        map_from_dict({"h": {}})


# -- the shared preconditions, one definition each ----------------------------------


def _non_measure_part_calls():
    """Each measure operation on a convolution part, and on a part of neither class where it takes parts."""
    conv = ConvolutionPart(IDENT, lebesgue())
    good = HarmonicMap(shifted(lebesgue()), shifted(lebesgue()), 0.3)
    with_h = HarmonicMap(conv, IDENT, 0.3)
    with_g = HarmonicMap(IDENT, conv, 0.3)
    return {
        "radial_limit": (lambda: radial_limit(with_h), "ConvolutionPart"),
        "check_modulus_bound": (lambda: check_modulus_bound(with_g), "ConvolutionPart"),
        "check_partial_signs": (lambda: check_partial_signs(with_h, grid=SMALL), "ConvolutionPart"),
        "convex_combination h": (lambda: convex_combination(good, with_h, 0.5), "ConvolutionPart"),
        "convex_combination g": (lambda: convex_combination(with_g, good, 0.5), "ConvolutionPart"),
        "map_to_dict h": (lambda: map_to_dict(with_h), "ConvolutionPart"),
        "map_to_dict g": (lambda: map_to_dict(with_g), "ConvolutionPart"),
        "certify_qc_boundary_limit": (lambda: certify_qc_boundary_limit(IDENT, _FakePart(), 0.3, 0.5), "_FakePart"),
        "ConvolutionPart": (lambda: ConvolutionPart(_FakePart(), lebesgue()), "_FakePart"),
    }


@pytest.mark.parametrize("name", list(_non_measure_part_calls()))
def test_measure_ops_refuse_a_non_measure_part_by_name(name):
    call, part = _non_measure_part_calls()[name]
    with pytest.raises(TypeError, match=f"measure-backed parts, got {part}"):
        call()


@pytest.mark.parametrize("c", [0.2j, -0.1, 1.0, math.nan])
def test_every_real_c_operation_refuses_c_outside_zero_one(c):
    msg = r"c must be real in \[0, 1\)"
    h = shifted(lebesgue())
    with pytest.raises(ValueError, match=msg):
        make_convolution_map(h, lebesgue(), c)
    with pytest.raises(ValueError, match=msg):
        certify_qc_boundary_limit(h, h, c, 0.5)
    with pytest.raises(ValueError, match=msg):
        HarmonicMap(h, h, c)


@pytest.mark.parametrize("c", [0, 0.3, np.float64(0.7)])
def test_map_holds_c_as_a_float(c):
    f = HarmonicMap(F1, F1, c)
    assert type(f.c) is float and f.c == c
    assert map_to_dict(HarmonicMap(shifted(lebesgue()), shifted(lebesgue()), c))["c"] == c


@pytest.mark.parametrize("excess, accepted", [(5e-11, True), (-5e-11, True), (2e-10, False), (-2e-10, False)])
def test_mass_tolerance_is_the_same_for_transforms_and_convolution_factors(excess, accepted):
    mu = Measure((Atom(0.3, 1.0 + excess),))
    assert mu.is_normalized is accepted
    for build in (lambda: CauchyTransform(mu), lambda: ConvolutionPart(shifted(lebesgue()), mu)):
        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="probability measure"):
                build()
