import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmharmonic.measures import (
    Atom,
    Beta,
    LogGamma,
    Measure,
    beta_measure,
    dirac,
    lebesgue,
    loggamma_measure,
    mix,
    table_measure,
)
from cmharmonic.transforms import (
    CauchyTransform,
    ExtendedReal,
    GridSpec,
    ShiftedCauchyTransform,
    SlitDomainError,
    _block_rows,
    _kernel_base,
    _rect_kernel_sums,
    check_membership,
    slit_distance,
)
from cmharmonic.quadrature import adaptive_quad
from cmharmonic.special import polylog_ratio
from conftest import random_disk_points, random_measure

F1 = CauchyTransform(dirac(1.0))
FLEB = CauchyTransform(lebesgue())


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_shifted_value_checks_the_tolerance_at_zero(tol):
    # h(0) = 0 needs no quadrature, but a malformed tolerance is still refused
    with pytest.raises(ValueError, match="tolerance must be"):
        ShiftedCauchyTransform(FLEB).value(0.0, tol=tol)


def test_point_mass_is_geometric():
    assert F1.eval(0.5) == pytest.approx(2.0, abs=1e-14)
    assert F1.eval(-1.0 + 0.0j) == pytest.approx(0.5, abs=1e-14)


def test_value_at_zero_is_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert CauchyTransform(random_measure(rng)).eval(0.0) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_closed_form():
    # oracle: -log(1-z)/z
    assert FLEB.eval(0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
    z = -1.5 + 0.25j
    assert FLEB.eval(z) == pytest.approx(-np.log(1.0 - z) / z, abs=1e-10)


def test_shifted_values():
    h1 = ShiftedCauchyTransform(F1)
    assert h1.value(0.5) == pytest.approx(1.0, abs=1e-14)
    assert h1.value(0.0) == 0.0
    li1 = ShiftedCauchyTransform.from_measure(loggamma_measure(1.0))
    assert li1.value(0.5) == pytest.approx(math.log(2.0), abs=1e-10)


def test_shifted_derivatives_against_closed_form():
    h1 = ShiftedCauchyTransform(F1)
    for z in [0.3, -0.7 + 0.4j, 0.1 - 0.8j]:
        assert h1.deriv(z) == pytest.approx(1.0 / (1.0 - z) ** 2, abs=1e-12)
        assert h1.deriv2(z) == pytest.approx(2.0 / (1.0 - z) ** 3, abs=1e-12)


def test_derivative_quadrature_matches_series_differentiation():
    # independent oracle: differentiate the truncated moment series
    mu = loggamma_measure(2.0)
    h = ShiftedCauchyTransform.from_measure(mu)
    coef = mu.moments(300)
    z = 0.4 - 0.3j
    series_deriv = sum((n + 1) * c * z**n for n, c in enumerate(coef))
    assert h.deriv(z) == pytest.approx(series_deriv, abs=1e-9)


def test_slit_guard():
    for z in [1.0, 1.5, 2.0 + 1e-13j]:
        with pytest.raises(SlitDomainError):
            F1.eval(z)
        with pytest.raises(SlitDomainError):
            ShiftedCauchyTransform(F1).deriv(z)
    assert slit_distance(2.0 + 0.5j) == 0.5
    assert slit_distance(0.0) == 1.0
    # vectorized paths guard too
    with pytest.raises(SlitDomainError):
        FLEB.values(np.array([0.5, 1.25 + 0j]))


_NON_FINITE = [
    complex(math.nan, 0.0),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(math.nan, 1.0),
    complex(0.0, math.inf),
    complex(0.5, -math.inf),
    complex(math.inf, math.nan),
]


@pytest.mark.parametrize("z", _NON_FINITE, ids=repr)
def test_non_finite_points_are_rejected(z):
    # NaN fails every distance comparison and -inf lies infinitely far from
    # the slit, so a distance test alone lets both through to a NaN result
    h = ShiftedCauchyTransform(FLEB)
    for scalar in (FLEB.eval, h.value, h.deriv, h.deriv2):
        with pytest.raises(SlitDomainError, match="is not finite"):
            scalar(z)
    for vector in (FLEB.values, h.values, h.derivs, h.deriv2s):
        with pytest.raises(SlitDomainError, match="is not finite"):
            vector(np.array([0.5, z, 0.25j]))


def test_slit_message_names_the_first_bad_point():
    with pytest.raises(SlitDomainError, match=r"point \(1\.25\+0j\) within 1e-12 of the slit"):
        FLEB.values(np.array([0.5, 1.25 + 0j, complex(math.nan, 0.0)]))
    with pytest.raises(SlitDomainError, match=r"point \(nan\+0j\) is not finite"):
        FLEB.values(np.array([[0.5, complex(math.nan, 0.0)], [1.25 + 0j, 0.0]]))


def test_requires_probability_measure():
    with pytest.raises(ValueError):
        CauchyTransform(dirac(0.5).scaled(2.0))


def test_limit_at_one_atoms():
    assert not F1.limit_at_one().is_finite
    lim = CauchyTransform(dirac(0.5)).limit_at_one()
    assert lim.is_finite and float(lim) == pytest.approx(2.0, abs=1e-12)


def test_limit_at_one_loggamma3():
    # the coefficient sum 1/(n+1)^3 is zeta(3) (mpmath)
    lim = CauchyTransform(loggamma_measure(3.0)).limit_at_one()
    assert lim.is_finite
    assert float(lim) == pytest.approx(1.2020569031595942854, abs=1e-12)


def test_limit_at_one_divergent_density():
    lim = FLEB.limit_at_one()
    assert not lim.is_finite


# F(1-) = sum of the moments: zeta(alpha) for loggamma(alpha) (mpmath
# constants) and (c-1)/(c-a-1) for beta(a, c).  Near-critical exponents
# first: their limits are finite but converge slowly.
LIMITS_AT_ONE = [
    (loggamma_measure(1.2), 5.5915824411777507765),
    (beta_measure(1.0, 2.2), 6.0),
    (loggamma_measure(1.05), 20.58084430203700259),
    (beta_measure(1.0, 2.05), 21.0),
    (loggamma_measure(1.0000005), 2000000.5769361453755),
    # 0.3 zeta(1.2) + 0.7 * 6
    (mix(loggamma_measure(1.2), beta_measure(1.0, 2.2), 0.3), 5.8774747323533252366),
    # piecewise-linear density of mass 1.3 before normalization, by mpmath quad
    (table_measure([0.1, 0.4, 0.8], [1.0, 3.0, 0.5]), 1.9340742617354373646),
    # the table vanishes at t = 1, so its sum of moments converges
    (table_measure([0.0, 0.5, 1.0], [1.0, 2.0, 0.0]), 2.4635532333438687426),
    # atoms: w / (1 - t)
    (Measure((Atom(0.5, 0.25), Atom(0.9, 0.75))), 8.0),
]


@pytest.mark.parametrize("mu, ref", LIMITS_AT_ONE)
def test_limit_at_one_closed_forms(mu, ref):
    lim = CauchyTransform(mu).limit_at_one()
    assert lim.is_finite and not lim.inconclusive
    assert float(lim) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "mu",
    [
        loggamma_measure(1.0),
        beta_measure(1.0, 2.0),
        table_measure([0.0, 1.0], [1.0, 1.0]),
        mix(beta_measure(1.0, 3.0), dirac(1.0), 0.99),
    ],
)
def test_limit_at_one_infinite(mu):
    lim = CauchyTransform(mu).limit_at_one()
    assert not lim.is_finite and not lim.inconclusive


def test_extended_real_repr():
    assert "inf" in repr(ExtendedReal(math.inf))
    assert repr(ExtendedReal(2.0)) == "ExtendedReal(2.0)"


def test_real_part_floor():
    assert F1.real_part_floor() == pytest.approx(0.5, abs=1e-12)
    assert CauchyTransform(dirac(0.0)).real_part_floor() == 1.0
    assert FLEB.real_part_floor() == pytest.approx(math.log(2.0), abs=1e-10)


def test_real_part_floor_is_the_fixed_rule_value_at_minus_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = CauchyTransform(random_measure(rng))
        assert F.real_part_floor() == F.values(np.array([-1.0 + 0.0j]))[0].real


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_modulus_bound_and_floor(seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng)
    F = CauchyTransform(mu)
    floor = F.real_part_floor()
    assert 0.5 - 1e-9 <= floor <= 1.0 + 1e-9
    for z in random_disk_points(rng, 6):
        val = F.eval(z)
        assert abs(val) <= abs(F.eval(abs(z))) + 1e-9
        assert val.real >= floor - 1e-9


def test_monotone_on_real_axis():
    rng = np.random.default_rng(11)
    for _ in range(5):
        F = CauchyTransform(random_measure(rng))
        xs = np.linspace(-3.0, 0.99, 40)
        vals = F.values(xs.astype(complex)).real
        assert np.all(np.diff(vals) >= -1e-10)


def test_series_quadrature_agreement():
    rng = np.random.default_rng(5)
    for _ in range(4):
        F = CauchyTransform(random_measure(rng))
        for z in random_disk_points(rng, 4, rmax=0.9):
            assert abs(F.series_eval(z, 320) - F.eval(z)) < 1e-8


def test_series_eval_refuses_points_where_the_series_diverges():
    # past |z| = 1 the partial sums diverge: -8.9e49 for lebesgue at z = -1.5, where F = 0.611
    for z in (-1.5, 1.5, 2j, 1.0, -1.0, complex(math.nan, 0.0), math.inf):
        with pytest.raises(ValueError, match="moment series needs"):
            FLEB.series_eval(z)
    assert FLEB.series_eval(-0.5) == pytest.approx(2.0 * math.log(1.5), abs=1e-12)


def test_limit_dominates_disk_values():
    rng = np.random.default_rng(8)
    for _ in range(5):
        F = CauchyTransform(random_measure(rng))
        lim = F.limit_at_one()
        if lim.is_finite:
            for z in random_disk_points(rng, 4):
                assert abs(F.eval(z)) <= float(lim) + 1e-9
            assert float(lim) >= 1.0 - 1e-9


def test_membership_of_actual_transforms():
    rng = np.random.default_rng(2)
    small = GridSpec(nx=40, ny=40)
    for _ in range(3):
        rep = check_membership(CauchyTransform(random_measure(rng)), grid=small)
        assert rep.consistent, rep


def test_membership_rejects_1_minus_z():
    rep = check_membership(lambda z: 1.0 - z)
    assert not rep.consistent
    assert rep.min_im_upper < -1.0  # Im(1-z) = -y


def test_membership_polylog_quotient():
    rep = check_membership(polylog_ratio(1.0, 2.0), grid=GridSpec(nx=40, ny=40))
    assert rep.consistent


def test_membership_counts_failures():
    def flaky(z):
        if isinstance(z, np.ndarray):
            raise TypeError("scalar calls only")
        z = complex(z)
        if z.real < -2.0:
            raise RuntimeError("node failure")
        return 1.0 + 0.0 * z

    rep = check_membership(flaky, grid=GridSpec(nx=20, ny=20))
    assert rep.skipped > 0


def _raises_off_the_axis(z):
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag > 0):
        raise ValueError("real points only")
    return 1.0 / (1.0 - z)


def _raises_on_the_ray(z):
    z = np.asarray(z, dtype=complex)
    if np.any((z.imag == 0) & (z != 0)):
        raise ValueError("upper half-plane only")
    return 1.0 / (1.0 - z)


@pytest.mark.parametrize("fn", [_raises_off_the_axis, _raises_on_the_ray])
def test_membership_with_an_empty_probe_is_not_consistent(fn):
    # every other probe of 1/(1 - z) passes; the unevaluated one must not
    rep = check_membership(fn, grid=GridSpec(nx=5, ny=5))
    assert rep.f0_gap == 0.0
    assert not rep.consistent, rep
    if fn is _raises_off_the_axis:
        assert rep.skipped == 25 and rep.min_im_upper == math.inf
    else:
        assert rep.skipped == 5 and rep.min_re_ray == math.inf


_MEMBERSHIP_EXACT = ("consistent", "skipped", "f0_gap", "min_re_ray", "max_abs_im_ray")


def _assert_membership_routes_agree(F, grid):
    # the per-node values route is the reference for the real Im-kernel route
    got = check_membership(F, grid=grid).to_dict()
    ref = check_membership(F.values, grid=grid).to_dict()
    for key in _MEMBERSHIP_EXACT:
        assert got[key] == ref[key], key  # -0.0 == 0.0 where Im F vanishes
    assert math.isclose(got["min_im_upper"], ref["min_im_upper"], rel_tol=1e-14)
    return got


def test_membership_kernel_route_matches_values_route():
    rng = np.random.default_rng(29)
    transforms = [CauchyTransform(random_measure(rng)) for _ in range(4)]
    transforms += [CauchyTransform(dirac(0.0)), F1, FLEB]
    for grid in (GridSpec(), GridSpec(nx=13, ny=7)):
        for F in transforms:
            assert _assert_membership_routes_agree(F, grid)["skipped"] == 0
    assert check_membership(CauchyTransform(dirac(0.0))).min_im_upper == 0.0


def test_membership_kernel_route_skips_nodes_at_the_slit():
    # the rectangle's corner (xmax, ymin) lies 7.1e-13 from z = 1, and so
    # does the ray's last node xmax: one skip on each probe
    grid = GridSpec(xmax=1.0 - 5e-13, ymin=5e-13, nx=20, ny=20)
    rng = np.random.default_rng(31)
    for F in (CauchyTransform(random_measure(rng)), F1, FLEB):
        assert _assert_membership_routes_agree(F, grid)["skipped"] == 2


def test_rect_kernel_matches_plain_imaginary_part_at_block_edges():
    mu = Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3)))
    t, w = mu._rule
    rows = _block_rows(len(t))
    assert 1 < rows < 100
    x = np.array([-3.0, 0.99])
    for ny in (rows - 1, rows, rows + 1):
        y = np.linspace(0.01, 3.0, ny)
        got = _rect_kernel_sums(x, y, t, w, 1).ravel()
        nodes = (x[:, None] + 1j * y[None, :]).ravel()
        ref = np.array([(1.0 / (1.0 - t * z)).imag @ w for z in nodes])
        assert got.shape == ref.shape == (2 * ny,)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), ny


def test_rect_kernel_restores_the_ufunc_buffer_size():
    F = CauchyTransform(Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.8),)))
    t, w = F.mu._rule
    default = np.getbufsize()
    try:
        for bufsize in (default, 4096):
            np.setbufsize(bufsize)
            check_membership(F, grid=GridSpec(nx=10, ny=10))
            assert np.getbufsize() == bufsize
            _rect_kernel_sums(np.array([-1.0, 0.5]), np.array([0.1, 1.0]), t, np.stack([w, w], axis=1), 2)
            assert np.getbufsize() == bufsize
    finally:
        np.setbufsize(default)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(rmax=1.0)
    with pytest.raises(ValueError):
        GridSpec(nr=1)
    with pytest.raises(ValueError):
        GridSpec(xmax=1.0)
    # the rectangle must lie in the open upper half-plane
    for ymin, ymax in [(0.0, 3.0), (-1.0, 3.0), (0.5, -1.0), (math.nan, 3.0)]:
        with pytest.raises(ValueError, match="open upper half"):
            GridSpec(ymin=ymin, ymax=ymax)
    for name in ("rmin", "rmax", "xmin", "xmax", "ymin", "ymax"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                GridSpec(**{name: bad})
    g = GridSpec()
    assert abs(g.disk_points()).max() <= g.rmax + 1e-12
    assert g.rect_points().size == g.nx * g.ny
    # the angular grid hits the negative real axis exactly
    assert np.min(np.abs(g.disk_points() - (-g.rmax))) < 1e-14


def _kernel_sums_reference(zs, t, w, power):
    """The plain formula ``((1 - t z) ** -power) @ w``, one fresh array per block.

    It uses the kernel's own node blocks: a one-row matmul takes numpy's
    dot path, which sums in another order than a many-row one, so the
    blocks are part of a bitwise reference.
    """
    rows = _block_rows(len(t))
    out = np.empty(zs.shape, dtype=complex)
    for i in range(0, len(zs), rows):
        base = 1.0 - t[None, :] * zs[i : i + rows, None]
        if power == 1:
            out[i : i + rows] = (1.0 / base) @ w
        else:
            out[i : i + rows] = (base ** float(-power)) @ w
    return out


def test_kernel_sums_at_block_edges():
    mu = Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3)))
    t, w = mu._rule
    h = ShiftedCauchyTransform.from_measure(mu)
    rows = _block_rows(len(t))
    assert 1 < rows < 2047
    rng = np.random.default_rng(17)
    for count in sorted({0, 1, rows - 1, rows, rows + 1, 2047, 2048, 2049, 4097}):
        zs = random_disk_points(rng, count, rmax=0.98)
        values = h.base.values(zs)
        assert values.shape == (count,)
        assert np.array_equal(values, _kernel_sums_reference(zs, t, w, 1))
        for got, power, weights in [(h.derivs(zs), 2, w), (h.deriv2s(zs), 3, 2.0 * t * w)]:
            ref = _kernel_sums_reference(zs, t, weights, power)
            assert got.shape == (count,)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (count, power)


def test_kernel_sums_restore_the_ufunc_buffer_size():
    h = ShiftedCauchyTransform.from_measure(Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.8),)))
    zs = random_disk_points(np.random.default_rng(5), 100)
    default = np.getbufsize()
    try:
        for bufsize in (default, 4096):
            np.setbufsize(bufsize)
            h.base.values(zs)
            h.derivs(zs)
            h.deriv2s(zs)
            assert np.getbufsize() == bufsize
            with pytest.raises(SlitDomainError):
                h.derivs(np.array([0.5, 1.0 + 0.0j]))
            assert np.getbufsize() == bufsize
    finally:
        np.setbufsize(default)


# -- near the slit: the kernel built from the complement u = 1 - t -------------

# An atom plus beta(1, 1.9005...), whose density (c - 1)(1 - t)**(c - 2) is
# unbounded at t = 1.
_ATOM_BETA = Measure(
    (Atom(0.5512856438457278, 0.7736347952231699),),
    (Beta(1.0, 1.9005300846446114, 0.22636520477683003),),
)
_TABLE = table_measure([0.0, 0.5, 1.0], [0.5, 1.0, 1.5])  # density 1/2 + t

# (measure, method of the shifted transform, point, reference).  The
# references were computed offline with mpmath at 40 digits, at the float
# point (mpmath.mpf(1 - 1e-6), not the decimal 0.999999).  The log-power ones
# are the Lerch transcendents Phi(x, alpha, 1) and Phi(x, alpha - 1, 1).
_NEAR_SLIT = [
    (_ATOM_BETA, "value", 1 - 1e-4, 4.881343176362713),
    (_ATOM_BETA, "value", 1 - 1e-6, 7.9071719953989121),
    (_ATOM_BETA, "value", 1 - 1e-8, 12.690446557208258),
    (_ATOM_BETA, "deriv", 1 - 1e-4, 5183.5174239493858),
    (_ATOM_BETA, "deriv", 1 - 1e-6, 818881.75164891435),
    (_ATOM_BETA, "deriv", 1 - 1e-8, 129466887.4546206),
    (_ATOM_BETA, "deriv2", 1 - 1e-4, 56946362.8210318),
    (_ATOM_BETA, "deriv2", 1 - 1e-6, 900331092049.4929),
    (_ATOM_BETA, "deriv2", 1 - 1e-8, 1.42344941889229e16),
    (beta_measure(0.6042, 2.1667), "deriv", 1 - 1e-6, 623.80842950673985736),
    (beta_measure(0.6042, 2.1667), "deriv", 1 - 1e-6 + 1e-7j,
     621.85796512714067817 + 27.167792207764708138j),
    (loggamma_measure(2.1312), "F", 1 - 1e-6, 1.5370469430688413739),
    (loggamma_measure(2.1312), "deriv", 1 - 1e-6, 6.8461456566835376518),
    (_TABLE, "deriv", 1 - 1e-4, 14991.787917295255267),
    (_TABLE, "deriv", 1 - 1e-6, 1499987.1844196775061),
]


@pytest.mark.parametrize("mu, method, z, ref", _NEAR_SLIT)
def test_pointwise_route_near_the_slit_matches_mpmath(mu, method, z, ref):
    # a pole 1e-8 to 1e-4 from t = 1 amplifies the rounding of a node t
    # near 1; the kernel's complement form keeps it out, so no call raises
    # QuadratureError and each lands on the reference
    h = ShiftedCauchyTransform.from_measure(mu)
    fn = h.base.eval if method == "F" else getattr(h, method)
    got = complex(fn(z))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_pointwise_derivative_near_the_slit_evaluates_few_points(monkeypatch):
    # the rounded form 1 - t z split panels into 16,384-panel frontiers,
    # about 1e6 integrand points per call; the count is deterministic
    from cmharmonic import measures

    points = []

    def counting(f, a, b, **kwargs):
        def counted(s):
            points.append(np.size(s))
            return f(s)

        return adaptive_quad(counted, a, b, **kwargs)

    monkeypatch.setattr(measures, "adaptive_quad", counting)
    for mu, x in [
        (loggamma_measure(2.1312), 1 - 1e-6),
        (beta_measure(1.8542, 4.1667), 1 - 1e-6),
        (beta_measure(0.6042, 2.1667), 1 - 1e-4),
    ]:
        points.clear()
        ShiftedCauchyTransform.from_measure(mu).deriv(x)
        assert 0 < sum(points) < 20_000, (mu, x, sum(points))


def test_kernel_base_uses_the_complement_only_above_one_half():
    # far from the slit both forms agree; at a large |z| below t = 1/2 the
    # u form would cancel, so it is not used there
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for z in (0.5 + 0.5j, -3.0, 1e6j):
        got = _kernel_base(z, t, 1.0 - t)
        assert np.allclose(got, 1.0 - t * z, rtol=1e-15, atol=0.0)
        assert np.array_equal(got[:2], 1.0 - t[:2] * z)
