import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmharmonic import transforms
from cmharmonic.measures import (
    _GAUSS_RHO,
    _RUNG_RHO,
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
    SLIT_MARGIN,
    CauchyTransform,
    ExtendedReal,
    GridSpec,
    ShiftedCauchyTransform,
    SlitDomainError,
    _block_rows,
    _kernel_base,
    _kernel_sums,
    _outside_domain,
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


def test_slit_distance_is_the_distance_the_domain_check_reads():
    # one formula: on scalars and arrays, non-finite points included, the
    # domain mask is "not finite or nearer the slit than SLIT_MARGIN"
    zs = np.array(_NON_FINITE + [1.0, 1.5, 2.0 + 1e-13j, 2.0 + 0.5j, 0.0, 1.0 - 1e-12, -2.0 + 4.0j])
    for z in zs:
        d = slit_distance(z)
        assert isinstance(d, float)
        assert bool(_outside_domain(z)) is (not np.isfinite(z) or not d >= SLIT_MARGIN)
    dist = slit_distance(zs.reshape(2, 7))
    assert dist.shape == (2, 7)
    assert np.array_equal(_outside_domain(zs), ~np.isfinite(zs) | ~(dist.ravel() >= SLIT_MARGIN))
    assert slit_distance(-2.0 + 4.0j) == 5.0 and slit_distance(1.5 - 2.0j) == 2.0


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


def test_fixed_rule_sums_match_the_closed_form_moment_series():
    # an oracle for the fixed rule that does not reuse it: the moments come
    # in closed form and m_n <= 1, so past N = 600 terms on |z| = r = 0.9 the
    # tails of F, h' and h'' are at most 2 (N + 2)**2 r**N / (1 - r)**3 < 1e-18
    rng = np.random.default_rng(11)
    measures = [random_measure(rng) for _ in range(40)]
    measures += [beta_measure(0.3, 0.65), loggamma_measure(1.2), beta_measure(1.0, 2.2), dirac(1.0)]
    zs = GridSpec(rmax=0.9)._upper_ring()
    n = np.arange(600)
    polyval = np.polynomial.polynomial.polyval
    for mu in measures:
        h = ShiftedCauchyTransform.from_measure(mu)
        m = mu.moments(601)
        for got, coef in (
            (h.base.values(zs), m[:600]),
            (h.derivs(zs), (n + 1) * m[:600]),
            (h.deriv2s(zs), (n + 2) * (n + 1) * m[1:]),
        ):
            series = polyval(zs, coef)
            assert np.max(np.abs(got - series) / np.abs(series)) < 1e-12, mu


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


def test_rect_kernel_on_a_short_rule_matches_the_plain_formula_column_by_column():
    # a rule shorter than the block's y values is laid out y-contiguous;
    # either layout sums each column as a call on that column alone does, bit
    # for bit, at the first, the last and one past the last column of a block
    mu = Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3)))
    t, w = mu._gauss_rung
    assert len(t) == 33
    rows = _block_rows(len(t))
    for ny in (20, 33, 34, 100):
        y = np.linspace(0.01, 3.0, ny)
        cols = rows // ny
        x = np.linspace(-3.0, 0.9, cols + 1)
        base = 1.0 - t * (x[:, None, None] + 1j * y[None, :, None])
        for power, weights in ((1, w), (2, np.stack([w, t * w], axis=1))):
            got = _rect_kernel_sums(x, y, t, weights, power)
            kern = (1.0 / base).imag if power == 1 else y[:, None] * t * base.real / np.abs(base) ** 4
            ref = kern @ weights
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (ny, power)
            for i in (0, cols - 1, cols):
                alone = _rect_kernel_sums(x[i : i + 1], y, t, weights, power)[0]
                assert got[i].tobytes() == alone.tobytes(), (ny, power, i)


def _upper_imag_reference(F, grid):
    """``_upper_imag`` as first written: the power-1 kernel on every rectangle node, over the rectangle's rule."""
    x, y = grid._rect_axes()
    t, w = F.mu._rule_for(grid.rect_points())
    im = _rect_kernel_sums(x, y, t, w, 1).ravel()
    bad = _outside_domain(grid.rect_points())
    im[bad] = np.nan
    return im, int(bad.sum())


@st.composite
def _measure_and_rectangle(draw):
    """A random measure, with atoms at 0, 1 or 5e-324 mixed in, and a rectangle in Re z < 1.

    The gaps 1 - xmax and ymin run down to 1e-11, or are 5e-13, which
    puts the corner (xmax, ymin) within ``SLIT_MARGIN`` of z = 1 when both
    are; a rectangle may be as narrow as 1e-13, so whole rows, or all of
    it, can lie there.
    """
    mu = random_measure(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    ends = draw(st.lists(st.sampled_from((0.0, 1.0, 5e-324)), unique=True, max_size=3))
    if ends:
        edge = Measure(tuple(Atom(t, 1.0 / len(ends)) for t in ends))
        mu = mix(edge, mu, draw(st.floats(0.05, 0.95)))
    gap = st.one_of(st.just(5e-13), st.floats(0.0, 11.0).map(lambda e: 10.0**-e))
    xmax = 1.0 - draw(gap)
    xmin = xmax - 10.0 ** draw(st.floats(-13.0, 0.7))
    ymin = draw(gap)
    ymax = ymin + 10.0 ** draw(st.floats(-13.0, 0.7))
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    grid = GridSpec(xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax, nx=nx, ny=ny)
    return CauchyTransform(mu), grid


@settings(max_examples=150, deadline=None)
@given(_measure_and_rectangle())
@example((F1, GridSpec(xmin=1.0 - 6e-13, xmax=1.0 - 5e-13, ymin=5e-13, ymax=6e-13, nx=3, ny=3)))
def test_membership_reads_the_left_column_bit_for_bit(case):
    # for x < 1 and t in [0, 1] each kernel term t / ((1 - x t)^2 + (y t)^2)
    # rises with x, and every rounded step keeps that order, so each row's
    # minimum is its left node and the one-column report equals the full one
    F, grid = case
    x, y = grid._rect_axes()
    t, w = F.mu._rule_for(grid.rect_points())
    assert np.all(np.diff(_rect_kernel_sums(x, y, t, w, 1), axis=0) >= 0.0)
    got = check_membership(F, grid=grid).to_dict()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_upper_imag", _upper_imag_reference)
        ref = check_membership(F, grid=grid).to_dict()
    assert repr(got) == repr(ref)


def test_membership_of_a_transform_evaluates_one_column(monkeypatch):
    widths = []
    sums = transforms._rect_kernel_sums

    def counting(x, *args):
        widths.append(len(x))
        return sums(x, *args)

    monkeypatch.setattr(transforms, "_rect_kernel_sums", counting)
    rep = check_membership(CauchyTransform(random_measure(np.random.default_rng(4))))
    assert rep.consistent and widths == [1]


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
    # and its bounds must be ordered, so its first column is its leftmost
    for bounds in [
        {"xmin": 3.0, "xmax": 0.5},
        {"xmin": 0.5, "xmax": 0.5},
        {"ymin": 3.0, "ymax": 0.01},
        {"ymin": 1.0, "ymax": 1.0},
    ]:
        with pytest.raises(ValueError, match="must be ordered"):
            GridSpec(**bounds)
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
    # every point of the disk |z| <= 0.98 routes to the Gauss rule
    assert mu._rule_for(np.array([0.98])) is mu._gauss_rule
    h = ShiftedCauchyTransform.from_measure(mu)
    rows = _block_rows(len(mu._gauss_rule[0]))
    assert 1 < rows < 2047
    rng = np.random.default_rng(17)
    for count in sorted({0, 1, rows - 1, rows, rows + 1, 2047, 2048, 2049, 4097}):
        zs = random_disk_points(rng, count, rmax=0.98)
        t, w = mu._rule_for(zs)
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


# -- the Gauss rule and its route ---------------------------------------------

_GAUSS_EXTREMES = [
    loggamma_measure(90.0),
    loggamma_measure(30.0),
    beta_measure(0.05, 3.0),
    beta_measure(3.0, 3.05),
    table_measure(np.linspace(0.0, 1.0, 11), [1.0, 1.4, 2.0, 2.6, 3.0, 2.2, 1.5, 1.1, 0.8, 0.6, 0.5]),
    Measure((Atom(0.0, 0.3), Atom(1.0, 0.3)), (Beta(1.0, 2.0, 0.4),)),
]


def _route_boundary_points(theta):
    """The points z whose poles 1/z lie on the ellipse E_rho0 of [0, 1] at the angles theta."""
    chebyshev = 0.5 * (_GAUSS_RHO * np.exp(1j * theta) + np.exp(-1j * theta) / _GAUSS_RHO)
    return 2.0 / (1.0 + chebyshev)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**32 - 1).map(lambda seed: random_measure(np.random.default_rng(seed))),
        st.sampled_from(_GAUSS_EXTREMES),
    ),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=8),
)
def test_gauss_and_fixed_rules_agree_on_the_route_boundary(mu, thetas):
    # relative to the sum of the moduli of the fixed rule's terms, since the
    # sums may cancel; a measure whose Gauss rule fails its construction
    # check keeps the fixed rule, and loggamma(90) and loggamma(30) do
    zs = _route_boundary_points(np.array(thetas))
    t, w = mu._rule
    gauss_t, gauss_w = mu._gauss_rule
    for p in (1, 2, 3):
        scale = np.abs(1.0 - zs[:, None] * t) ** float(-p) @ w
        err = np.abs(_kernel_sums(zs, gauss_t, gauss_w, p) - _kernel_sums(zs, t, w, p))
        assert np.all(err <= 1e-13 * scale), p


def test_extreme_measures_keep_or_leave_the_fixed_rule():
    # loggamma(alpha) has m_1 = 2**-alpha, which 128 nodes known to an
    # absolute ulp of [0, 1] cannot reproduce to 1e-13, relative, at
    # alpha = 30 or 90; beta(3, 3.05), with nearly all its mass at t = 1,
    # misses the fixed rule by 9e-14 on the route boundary, too near the
    # bound to pin either way, and the other extremes pass
    for mu in _GAUSS_EXTREMES[:2]:
        assert mu._gauss_rule is mu._rule
    for mu in _GAUSS_EXTREMES[2:3] + _GAUSS_EXTREMES[4:]:
        assert len(mu._gauss_rule[0]) == 128 + len({a.t for a in mu.atoms})


def test_the_default_grids_route_to_the_gauss_rule():
    def rho(z):
        focal = (1.0 + abs(1.0 - z)) / abs(z)
        return focal + math.sqrt(focal**2 - 1.0)

    assert 1.195 < _GAUSS_RHO < 1.197 and 1.956 < _RUNG_RHO < 1.958
    assert 1.246 < rho(0.99 + 0.01j) < rho(0.98) < 1.33
    mu = Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3)))
    g = GridSpec()
    for zs in (g.disk_points(), g.rect_points(), g.real_ray()):
        assert mu._rule_for(zs) is mu._gauss_rule
    # the far points take the 32-node rung: the origin and the rectangle's left column
    left = g.rect_points()[: g.ny]
    assert min(rho(z) for z in left) > _RUNG_RHO
    for zs in (np.zeros(1), left):
        assert mu._rule_for(zs) is mu._gauss_rung
        assert len(mu._gauss_rung[0]) == 32 + len(mu.atoms)


def test_a_point_inside_the_route_ellipse_sends_the_call_to_the_fixed_rule():
    # one point near the slit takes the whole call to the fixed rule, bit for bit
    mu = Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3)))
    h = ShiftedCauchyTransform.from_measure(mu)
    t, w = mu._rule
    for zs in (np.array([0.5, -0.7 + 0.2j, 1.0 - 1e-6]), np.array([1.0 - 1e-8]), np.array([2.0 + 0.3j])):
        assert mu._rule_for(zs) is mu._rule
        assert h.base.values(zs).tobytes() == _kernel_sums(zs, t, w, 1).tobytes()
        assert h.derivs(zs).tobytes() == _kernel_sums(zs, t, w, 2).tobytes()
        assert h.deriv2s(zs).tobytes() == _kernel_sums(zs, t, 2.0 * t * w, 3).tobytes()
    assert mu._rule_for(np.array([np.nan])) is mu._rule
    # so does a rectangle with a corner near z = 1, in the sweeps that route on it
    assert mu._rule_for(GridSpec(xmax=1.0 - 1e-6, ymin=1e-6).rect_points()) is mu._rule


def test_the_gauss_rule_is_built_on_first_use_only():
    mu = beta_measure(0.6, 1.3)
    h = ShiftedCauchyTransform.from_measure(mu)
    assert "_rule" not in vars(mu) and "_gauss_rule" not in vars(mu)
    h.derivs(np.array([1.0 - 1e-6]))
    assert "_rule" in vars(mu) and "_gauss_rule" not in vars(mu)
    h.derivs(np.array([0.5]))
    assert "_gauss_rule" in vars(mu)


def test_an_empty_point_set_builds_no_gauss_rule():
    mu = beta_measure(1.5, 3.2)
    h = ShiftedCauchyTransform.from_measure(mu)
    for sums in (h.base.values, h.derivs, h.deriv2s):
        assert sums(np.array([])).shape == (0,)
    assert mu._rule_for(np.array([])) is mu._rule
    assert "_gauss_rule" not in vars(mu)


# -- near the slit: the kernel built from the complement u = 1 - t -------------

# An atom plus beta(1, 1.9005...), whose density (c - 1)(1 - t)**(c - 2) is
# unbounded at t = 1.
_ATOM_BETA = Measure(
    (Atom(0.5512856438457278, 0.7736347952231699),),
    (Beta(1.0, 1.9005300846446114, 0.22636520477683003),),
)
_TABLE = table_measure([0.0, 0.5, 1.0], [0.5, 1.0, 1.5])  # density 1/2 + t
_SHORT_SEGMENT_TABLE = table_measure([0.0, 0.3, 0.31, 1.0], [1.0, 2.0, 0.5, 1.5])

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
    # h' of Lebesgue is 1/(1 - x), and 1 - x is exact at these x; the short
    # segment table by mpmath at 50 digits, checked against the closed-form
    # antiderivative of (a + b t)/(1 - x t)**2 on each segment
    (lebesgue(), "deriv", 1 - 1e-6, 1 / (1 - (1 - 1e-6))),
    (lebesgue(), "deriv", 1 - 1e-8, 1 / (1 - (1 - 1e-8))),
    (_SHORT_SEGMENT_TABLE, "deriv", 1 - 1e-6, 1301502.806600024071755614),
    (_SHORT_SEGMENT_TABLE, "deriv", 1 - 1e-8, 130151821.7412706725728474),
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


@pytest.mark.parametrize("j", [5, 6, 7, 8])
def test_uniform_density_kernel_sums_hold_near_the_slit(j):
    # the uniform density is beta(1, 2), graded toward t = 1 on the chart
    # t = 1 - s**3; F = -log(1 - z)/z, h' = 1/(1 - z) and h'' = 1/(1 - z)**2,
    # with 1 - z exact at these z.  On the identity chart t = 1 - s the
    # value missed by 1.6e-4 at j = 6 and by 0.12 at j = 8
    z = 1.0 - 10.0**-j
    u = 1.0 - z
    h = ShiftedCauchyTransform.from_measure(lebesgue())
    zs = np.array([z], dtype=complex)
    for got, ref, tol in (
        (h.base.values(zs)[0], -math.log(u) / z, 1e-10),
        (h.derivs(zs)[0], 1.0 / u, 1e-8),
        (h.deriv2s(zs)[0], 1.0 / u**2, 1e-8),
    ):
        assert abs(got - ref) <= tol * abs(ref), (got, ref)


# F and h' of table([0, 0.3, 1], [1, 2, 1]) at the float points 1 - 10**-j,
# j = 4..8: the closed-form antiderivatives of (a + b t)/(1 - x t)**p on each
# segment, by mpmath at 50 digits, checked against mpmath.quad at 40
_TABLE_NEAR_SLIT = [
    (4, 6.932671897175363167352, 6674.307782191487904863),
    (5, 8.467871459758117727584, 66676.49926673619519149),
    (6, 10.00294838371408577302, 666678.6920006010022061),
    (7, 11.53800772425623728156, 6666680.888444563900973),
    (8, 13.07306476957705095248, 66666682.7428871222083),
]


@pytest.mark.parametrize("j, value, deriv", _TABLE_NEAR_SLIT)
def test_table_kernel_sums_hold_near_the_slit(j, value, deriv):
    # each segment [lo, hi] is charted t = hi - (hi - lo) s**3, graded toward
    # hi as beta(1, 2) is toward 1; on the chart t = 1 - s the value missed
    # by 3.1e-5 at j = 6 and by 9.3e-2 at j = 8
    h = ShiftedCauchyTransform.from_measure(table_measure([0.0, 0.3, 1.0], [1.0, 2.0, 1.0]))
    zs = np.array([1.0 - 10.0**-j], dtype=complex)
    assert abs(h.base.values(zs)[0] - value) <= 1e-10 * value
    assert abs(h.derivs(zs)[0] - deriv) <= 1e-9 * deriv


def test_pointwise_derivative_near_the_slit_evaluates_few_points(monkeypatch):
    # a rounded 1 - t z, or a rounded node near t = 1 on a chart t = s,
    # splits panels into 16,384-panel frontiers, about 1e6 integrand points
    # per call (QuadratureError at 1 - 1e-8); the count is deterministic
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
        (lebesgue(), 1 - 1e-6),
        (lebesgue(), 1 - 1e-8),
        (_SHORT_SEGMENT_TABLE, 1 - 1e-6),
        (_SHORT_SEGMENT_TABLE, 1 - 1e-8),
    ]:
        points.clear()
        ShiftedCauchyTransform.from_measure(mu).deriv(x)
        assert 0 < sum(points) < 10_000, (mu, x, sum(points))


# Li_alpha(z) is the shifted transform of loggamma(alpha).  Per alpha, one row
# per point of _POLYLOG_POINTS: Li_alpha(z), Li_{alpha-1}(z)/z and
# (Li_{alpha-2}(z) - Li_{alpha-1}(z))/z**2, the value and first two
# derivatives, computed offline with mpmath.polylog at 90 digits at the float
# points (Li_88 - Li_89 in the second derivative at alpha = 90 cancels 27).
_POLYLOG_POINTS = np.array([0.98, 0.98j, -0.98, 0.99 + 0.01j, -3 + 0.01j])
_POLYLOG = {
    0.2: [
        (25.675052896706067, 1066.8779929673049, 95918.14976363155),
        (
            -0.4628829775199287+0.5713063931113558j,
            0.1258722546325261+0.5345683309467452j,
            -0.3657332040751265+0.5736277982469504j,
        ),
        (-0.537801631022144, 0.30802674712410044, 0.26513339815737663),
        (
            27.48808535626257+20.67679825174938j,
            313.0396889998629+1964.198159541057j,
            -148630.09755798554+204761.85587463412j,
        ),
        (
            -0.8777683583101136+0.0009459780573324545j,
            0.09459692612823604+0.0003903540105217923j,
            0.039034581230181054+0.00026387955892610425j,
        ),
    ],
    1.0: [
        (3.912023005428145, 49.99999999999996, 2499.9999999999955),
        (
            -0.3365742670266277+0.7752974968121263j,
            0.5100999795960008+0.4998979800040808j,
            0.010303998771680091+0.5099958988003273j,
        ),
        (-0.6830968447064438, 0.5050505050505051, 0.2550760126517702),
        (4.258596595708118+0.7853981633974478j, 50+49.99999999999996j, 4.336808689942012e-12+4999.999999999995j),
        (
            -1.386297486110125+0.0024999947916861977j,
            0.24999843750976555+0.000624996093774414j,
            0.062498828137206926+0.0003124960937866208j,
        ),
    ],
    3.0: [
        (1.1699278671805688, 1.5773466449300668, 2.4637893517249894),
        (
            -0.10860886270798079+0.9506007542056508j,
            0.9185718967651209+0.20277182018148895j,
            0.14354215248726418+0.130053063325377j,
        ),
        (-0.8850673850038563, 0.8250666097803775, 0.13064185014402963),
        (
            1.1856824783871067+0.01603284658578388j,
            1.600720358470757+0.02949922508841503j,
            2.742893833306116+0.6998749276283146j,
        ),
        (
            -2.348793627253032+0.006464581835475954j,
            0.6464576034660167+0.0006145330713932595j,
            0.06145301927522581+0.00017402405890280538j,
        ),
    ],
    13.7: [
        (0.9800724464960539, 1.000148140633419, 0.00015206628109454254),
        (
            -7.21622360731423e-05+0.9799997266371934j,
            0.999999163655945+0.0001472593175771314j,
            0.00015022169343499912+1.704388760007521e-06j,
        ),
        (-0.9799281011899094, 0.9998535369556006, 0.00014863748910597753),
        (
            0.990073927901756+0.010001496613594115j,
            1.0001496612961707+1.5208524148023e-06j,
            0.00015208523554622515+1.8972234031554043e-08j,
        ),
        (
            -2.999331163469753+0.009995564650150173j,
            0.999556464967137+1.4555626783779387e-06j,
            0.00014555626519424902+1.4364066394228437e-08j,
        ),
    ],
    45.0: [
        (0.9800000000000273, 1.0000000000000557, 5.684342085112796e-14),
        (-2.7296209736959262e-14+0.98j, 1+5.570655048358881e-14j, 5.6843418860798706e-14+1.990310634688451e-21j),
        (-0.9799999999999727, 0.9999999999999443, 5.684341687050669e-14),
        (
            0.9900000000000279+0.010000000000000562j,
            1.0000000000000562+5.684342087143744e-16j,
            5.684342087143744e-14+2.0309484149909234e-23j,
        ),
        (
            -2.999999999999744+0.009999999999998295j,
            0.9999999999998295+5.684341276810758e-16j,
            5.6843412768107576e-14+2.0308710775773268e-23j,
        ),
    ],
    90.0: [
        (0.98, 1.0, 1.615587133892633e-27),
        (-7.758049416952419e-28+0.98j, 1+1.5832753912147795e-27j, 1.6155871338926322e-27+6.736966709507361e-43j),
        (-0.98, 1.0, 1.6155871338926315e-27),
        (0.99+0.01j, 1+1.6155871338926328e-29j, 1.615587133892633e-27+6.874455826182961e-45j),
        (-3+0.01j, 1+1.6155871338926302e-29j, 1.6155871338926302e-27+6.874455825558098e-45j),
    ],
}


@pytest.mark.parametrize("alpha", sorted(_POLYLOG))
def test_log_power_rule_matches_the_polylogarithm(alpha):
    # the left chart t = s**p gives one rule size for every alpha
    mu = loggamma_measure(alpha)
    assert mu._rule[0].size == 840
    h = ShiftedCauchyTransform.from_measure(mu)
    refs = np.array(_POLYLOG[alpha])
    for k, method in enumerate(("values", "derivs", "deriv2s")):
        got = getattr(h, method)(_POLYLOG_POINTS)
        assert np.all(np.abs(got - refs[:, k]) <= 1e-11 * np.abs(refs[:, k])), method


def test_kernel_base_uses_the_complement_only_above_one_half():
    # far from the slit both forms agree; at a large |z| below t = 1/2 the
    # u form would cancel, so it is not used there
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for z in (0.5 + 0.5j, -3.0, 1e6j):
        got = _kernel_base(z, t, 1.0 - t)
        assert np.allclose(got, 1.0 - t * z, rtol=1e-15, atol=0.0)
        assert np.array_equal(got[:2], 1.0 - t[:2] * z)
