import math
import warnings
from fractions import Fraction
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmharmonic import measures
from cmharmonic.measures import (
    _GAUSS_NODES,
    _GAUSS_TOL,
    _RUNG_NODES,
    _RUNG_RHO,
    _gauss_agrees,
    _route_levels,
    Atom,
    Beta,
    LogGamma,
    Measure,
    Table,
    beta_measure,
    dirac,
    lebesgue,
    loggamma_measure,
    make_named,
    measure_from_dict,
    measure_to_dict,
    mix,
    table_measure,
)
from cmharmonic.quadrature import QuadratureError
from cmharmonic.special import pochhammer
from cmharmonic.transforms import GridSpec, ShiftedCauchyTransform
from conftest import random_measure
from test_transforms import _GAUSS_EXTREMES


def test_dirac_moments():
    assert dirac(1.0).moment(7) == 1.0
    assert dirac(0.5).moment(3) == 0.125


def test_lebesgue_moment():
    # oracle: exact integral of t^3 over [0, 1]
    assert lebesgue().moment(3) == pytest.approx(0.25, abs=1e-12)


def test_beta_1_2_is_uniform():
    mu = beta_measure(1.0, 2.0)
    assert mu.moment(1) == pytest.approx(0.5, abs=1e-12)
    ts = np.linspace(0.05, 0.95, 7)
    assert np.allclose(mu.pdf(ts), 1.0, atol=1e-12)


def test_beta_refuses_parameters_whose_normalizer_overflows():
    # Gamma(6000) / Gamma(3000)**2 is about 2**6000
    with pytest.raises(ValueError, match=r"a=3000\.0, c=6000\.0: .* overflows"):
        beta_measure(3000, 6000)
    assert Beta(300.0, 600.0).endpoint_exponent()[1] > 1e178


def test_loggamma_1_is_uniform():
    mu = loggamma_measure(1.0)
    assert mu.moment(4) == pytest.approx(0.2, abs=1e-11)


def test_integrate_atoms_exact():
    assert dirac(0.5).integrate(lambda t, u: t**2) == 0.25
    assert dirac(1.0).integrate(lambda t, u: 1.0 / (1.0 + t)) == 0.5


def test_integrate_closed_form():
    # oracle: -log(1-z)/z at z = 1/2 equals 2 log 2
    val = lebesgue().integrate(lambda t, u: 1.0 / (1.0 - t / 2.0))
    assert val == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_make_named():
    f0 = make_named("dirac", t=0.0)
    assert f0.moment(0) == 1.0 and f0.moment(5) == 0.0
    assert make_named("lebesgue") == Measure(densities=(Beta(1.0, 2.0),))
    assert isinstance(make_named("beta", a=1.0, c=2.0).densities[0], Beta)
    assert isinstance(make_named("loggamma", alpha=2.0).densities[0], LogGamma)
    assert make_named("beta", a=1, c=3) == beta_measure(1.0, 3.0)
    assert make_named("table", grid=[0.0, 1.0], values=[1.0, 2.0]) == table_measure([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        make_named("cauchy")


@pytest.mark.parametrize(
    "mu",
    [
        lebesgue(),
        beta_measure(1.0, 3.0),
        beta_measure(0.6, 1.2),  # singular at both endpoints
        loggamma_measure(3.0),
        loggamma_measure(0.8),  # singular at the right endpoint
        table_measure([0.0, 0.3, 1.0], [0.5, 2.0, 0.1]),
    ],
)
def test_named_families_have_unit_mass(mu):
    # independent quadrature of the constant 1
    assert mu.integrate(lambda t, u: np.ones_like(t)) == pytest.approx(1.0, abs=1e-10)
    assert mu.is_normalized


def test_beta_moments_match_pochhammer_ratio():
    # duality oracle: moment n of the Euler measure is (a)_n / (c)_n
    for a, c in [(1.0, 3.0), (2.5, 4.0), (0.7, 1.5)]:
        mu = beta_measure(a, c)
        for n in range(21):
            expected = pochhammer(a, n) / pochhammer(c, n)
            assert mu.moment(n) == pytest.approx(expected, abs=1e-10)


def test_loggamma_moments_are_power_reciprocals():
    for alpha in [1.0, 1.5, 2.0, 3.0]:
        mu = loggamma_measure(alpha)
        for n in range(21):
            assert mu.moment(n) == pytest.approx((n + 1.0) ** -alpha, abs=1e-10)


def _exact_beta_moment(a, c, n):
    """(a)_n / (c)_n in exact rational arithmetic on the float parameters."""
    out = Fraction(1)
    for i in range(n):
        out *= (Fraction(a) + i) / (Fraction(c) + i)
    return out


def test_moments_match_closed_forms_to_rounding():
    # loggamma(3) at n = 22 is the case adaptive quadrature once missed by
    # 1.4e-9 at the default tol; references are exact rationals where the
    # closed form is rational, and correctly rounded roots otherwise
    cases = [
        (lebesgue(), lambda n: Fraction(1, n + 1)),
        (beta_measure(1.0, 3.0), lambda n: _exact_beta_moment(1.0, 3.0, n)),
        (beta_measure(0.7, 1.5), lambda n: _exact_beta_moment(0.7, 1.5, n)),
        (beta_measure(2.5, 6.3), lambda n: _exact_beta_moment(2.5, 6.3, n)),
        (loggamma_measure(3.0), lambda n: Fraction(1, (n + 1) ** 3)),
        (loggamma_measure(1.0), lambda n: Fraction(1, n + 1)),
        (loggamma_measure(2.5), lambda n: 1.0 / ((n + 1) ** 2 * math.sqrt(n + 1))),
        (loggamma_measure(0.5), lambda n: 1.0 / math.sqrt(n + 1)),
    ]
    atoms = [Atom(0.25, 0.125), Atom(0.75, 0.25), Atom(1.0, 0.0625)]
    densities = [Beta(0.7, 1.5, 0.25), LogGamma(3.0, 0.1875), Beta(1.0, 2.0, 0.125)]
    mixture = Measure(atoms, densities)
    cases.append(
        (
            mixture,
            lambda n: sum(Fraction(a.w) * Fraction(a.t) ** n for a in atoms)
            + Fraction(0.25) * _exact_beta_moment(0.7, 1.5, n)
            + Fraction(0.1875) / (n + 1) ** 3
            + Fraction(0.125) / (n + 1),
        )
    )
    for mu, exact in cases:
        for n in range(61):
            ref = float(exact(n))
            assert math.isclose(mu.moment(n), ref, rel_tol=1e-13), (mu, n)


def _exact_table_moment(table, n):
    """The linear interpolant on each segment of the table, integrated against t**n exactly."""
    grid = [Fraction(x) for x in table.grid]
    values = [Fraction(v) for v in table.values]
    total = Fraction(0)
    for t0, t1, v0, v1 in zip(grid, grid[1:], values, values[1:]):
        slope = (v1 - v0) / (t1 - t0)
        total += slope * (t1 ** (n + 2) - t0 ** (n + 2)) / (n + 2)
        total += (v0 - slope * t0) * (t1 ** (n + 1) - t0 ** (n + 1)) / (n + 1)
    return float(total)


def test_table_moments_match_the_exact_segment_integrals():
    mu = table_measure((0.0, 0.3, 0.31, 1.0), [1.0, 2.0, 0.5, 1.5])
    tb = mu.densities[0]
    for n in range(61):
        assert mu.moment(n) == pytest.approx(_exact_table_moment(tb, n), abs=1e-12)
    expected = 0.5 * _exact_table_moment(tb, 7) + 0.5**8
    assert mix(mu, dirac(0.5), 0.5).moment(7) == pytest.approx(expected, abs=1e-12)


def test_table_moments_match_mpmath_at_high_orders():
    # the running product t**n = t**(n-1) * t over the rule stays within a few
    # ulps; references: the normalized interpolant integrated by mpmath, 40 digits
    mu = table_measure((0.0, 0.3, 0.31, 1.0), [1.0, 2.0, 0.5, 1.5])
    reference = {
        10: 0.10879354789337406526,
        100: 0.012764256936203966219,
        500: 0.0025928412109165056844,
        1000: 0.0012989644779540421689,
    }
    ms = mu.moments(1001)
    for n, ref in reference.items():
        assert math.isclose(ms[n], ref, rel_tol=1e-15), n
        assert mu.moment(n) == ms[n]


def test_table_moments_resolve_the_peak_at_one_for_large_orders():
    # t**n peaks at t = 1, inside the last panel of each segment; the 7- and
    # 15-point sums of one panel can agree while both miss that peak
    for grid, values in [
        ([0.0, 1.0], [1.0, 1.0]),
        ([0.0, 0.3, 0.999, 1.0], [0.0, 3.0, 2.0, 1.0]),
        ([0.2, 0.5, 0.9, 1.0], [1.0, 0.0, 2.0, 0.5]),
    ]:
        mu = table_measure(grid, values)
        ms = mu.moments(5001)
        for n in (3999, 4000, 5000):
            exact = _exact_table_moment(mu.densities[0], n)
            assert math.isclose(ms[n], exact, rel_tol=1e-12), (grid, n)


@st.composite
def _dyadic_tables(draw):
    """A table of 2 to 7 breakpoints on multiples of 2**-40, from 0, to 1, both or neither.

    Segments are 2**-40 to 2**-3 long, but for the last one of a table
    spanning [0, 1], which reaches 1.  Values are multiples of 1/8.
    """
    k = draw(st.integers(2, 7))
    gaps = [draw(st.integers(1, 2 ** draw(st.integers(0, 37)))) for _ in range(k - 1)]
    ends = draw(st.sampled_from(["zero", "one", "both", "inside"]))
    room = 2**40 - sum(gaps)
    if ends == "both":
        gaps[-1] += room
    if ends == "inside":
        start = draw(st.integers(0, room))
    else:
        start = room if ends == "one" else 0
    steps = [start]
    for gap in gaps:
        steps.append(steps[-1] + gap)
    values = draw(st.lists(st.integers(0, 16), min_size=k, max_size=k).filter(any))
    return Table([s / 2**40 for s in steps], [v / 8 for v in values])


@settings(max_examples=25, deadline=None)
@given(_dyadic_tables(), st.lists(st.integers(0, 400), min_size=4, max_size=4))
def test_table_moments_match_the_exact_integrals_on_dyadic_tables(table, orders):
    # every term of the per-segment form is nonnegative, so segments 2**-40
    # long do not cancel; moments below 1e-290 lose digits to the underflow
    # of b**n, so they are held to an absolute floor instead
    ms = table.moments(401)
    for n in [0, 1, 400, *orders]:
        exact = _exact_table_moment(table, n)
        assert math.isclose(ms[n], exact, rel_tol=1e-13, abs_tol=1e-290), (table, n)


def test_table_moments_with_rule_nodes_at_t_zero():
    # a segment 1e-17 wide at t = 0 keeps its rule nodes inside it (the rule
    # holds both segments' nodes in grid order, equally many each), and the
    # closed-form moments do not read them
    mu = table_measure([0.0, 1e-17, 1.0], [1.0, 1.0, 1.0])
    first = mu._rule[0][: len(mu._rule[0]) // 2]
    assert np.all((0.0 <= first) & (first <= 1e-17))
    ms = mu.moments(65)
    assert np.allclose(ms, 1.0 / np.arange(1, 66), rtol=1e-13, atol=0.0)


@st.composite
def _narrow_tables(draw):
    """Grid and values of a table of 2 to 6 breakpoints, its segments 2**-40 to 1/4 wide.

    The grid walks from 0 up, from 1 down, or from a point inside either
    way; a step that would leave [0, 1] stops at the end it passes, and one
    that would leave a segment narrower than 2**-40 ends the walk.  Widths
    are powers of two or arbitrary floats, so segment ends need not be
    dyadic.
    """
    k = draw(st.integers(2, 6))
    widths = draw(st.lists(st.integers(3, 40).map(lambda j: 2.0**-j) | st.floats(2.0**-40, 0.25),
                           min_size=k - 1, max_size=k - 1))
    start = draw(st.sampled_from([0.0, 1.0]) | st.floats(2.0**-40, 1.0 - 2.0**-40))
    sign = -1.0 if start == 1.0 or (start > 0.0 and draw(st.booleans())) else 1.0
    grid = [start]
    for w in widths:
        step = min(1.0, max(0.0, grid[-1] + sign * w))
        if abs(step - grid[-1]) < 2.0**-40:
            break
        grid.append(step)
    values = draw(st.lists(st.just(0.0) | st.floats(1e-3, 10.0), min_size=len(grid), max_size=len(grid)).filter(any))
    return sorted(grid), values


def _assert_table_rule_in_segments(mu, tol):
    # the unit rule of the table sums to 1 within ``tol``, and each
    # segment's chart keeps its nodes (equally many per segment, in grid
    # order) inside the segment
    (d,) = mu.densities
    t, w = measures._density_rule(d)
    assert abs(float(np.sum(w)) - 1.0) <= tol, float(np.sum(w))
    t = t.reshape(len(d.grid) - 1, -1)
    lo, hi = np.array(d.grid[:-1])[:, None], np.array(d.grid[1:])[:, None]
    assert np.all((lo <= t) & (t <= hi))


@settings(max_examples=200, deadline=None)
@given(_narrow_tables())
def test_narrow_and_edge_table_segments_keep_unit_mass_and_their_nodes(table):
    # each segment is charted from its upper end hi with the step lo - hi,
    # so no rounded cube root of 1 - t misplaces a narrow segment, and its
    # degree-5 pulled-back weight is integrated exactly at any width
    _assert_table_rule_in_segments(table_measure(*table), 8 * math.ulp(1.0))


@pytest.mark.parametrize("grid", [(0.5, 0.5 + 2.0**-40), (0.9, 0.9 + 1e-9)])
def test_a_single_narrow_table_segment_builds_with_unit_mass(grid):
    # both were refused while segments were charted through (1 - t)**(1/3):
    # they integrated to 1.0000777132490777 and 0.9999999775188082
    _assert_table_rule_in_segments(table_measure(grid, [1.0, 1.0]), 4e-16)


def test_uniform_table_moments_equal_lebesgue_moments():
    # one call forms all 5,001 moments; moment(n) forms n + 1 of them per call
    tab, leb = table_measure([0.0, 1.0], [1.0, 1.0]).moments(5001), lebesgue().moments(5001)
    for n in range(5001):
        assert math.isclose(tab[n], leb[n], rel_tol=1e-13), n


def test_batch_moments_equal_the_scalar_moments():
    # one route: moment(n) is entry n of moments, bit for bit, for every
    # family, atoms at both ends and a mixture holding a table
    rng = np.random.default_rng(3)
    table = table_measure((0.0, 0.3, 0.31, 1.0), [1.0, 2.0, 0.5, 1.5])
    measures = [random_measure(rng) for _ in range(4)] + [
        lebesgue(), beta_measure(0.6, 1.3), loggamma_measure(1.2), table,
        mix(mix(table, dirac(0.0), 0.5), mix(dirac(1.0), loggamma_measure(3.0), 0.25), 0.75),
    ]
    for mu in measures:
        batch = mu.moments(40)
        assert batch.dtype == np.float64 and batch.shape == (40,)
        assert [float(x).hex() for x in batch] == [mu.moment(n, tol=1e-13).hex() for n in range(40)]
        assert mu.moments(0).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=80))
def test_moments_prefix_is_the_scalar_moments_bit_for_bit(seed, count):
    mu = random_measure(np.random.default_rng(seed))
    batch = mu.moments(count)
    assert [float(x).hex() for x in batch] == [mu.moment(n).hex() for n in range(count)]


def test_lebesgue_moments_are_exact_reciprocals():
    # a power sum over the fixed rule misses 1/(n + 1) by some ulps
    assert lebesgue().moments(50).tolist() == [1.0 / (n + 1) for n in range(50)]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_moments_non_increasing(seed):
    mu = random_measure(np.random.default_rng(seed))
    ms = mu.moments(12)
    assert np.all(np.diff(ms) <= 1e-12)
    assert np.all(ms >= -1e-12) and ms[0] == pytest.approx(mu.mass, abs=1e-10)


def test_table_density_renormalizes_and_integrates_polynomials():
    grid = [0.0, 0.25, 0.5, 1.0]
    vals = [2.0, 1.0, 4.0, 0.0]
    mu = table_measure(grid, vals)
    d = mu.densities[0]

    # oracle: exact antiderivative of t^n times a piecewise-linear density
    def exact_moment(n):
        total = 0.0
        for (t0, t1, v0, v1) in zip(grid, grid[1:], d.values, d.values[1:]):
            slope = (v1 - v0) / (t1 - t0)
            intercept = v0 - slope * t0
            total += slope * (t1 ** (n + 2) - t0 ** (n + 2)) / (n + 2)
            total += intercept * (t1 ** (n + 1) - t0 ** (n + 1)) / (n + 1)
        return total

    for n in range(6):
        assert mu.moment(n) == pytest.approx(exact_moment(n), abs=1e-12)


def test_mix_masses_and_structure():
    mu = mix(dirac(0.0), dirac(1.0), 0.5)
    assert mu.mass == pytest.approx(1.0, abs=1e-15)
    assert {a.t for a in mu.atoms} == {0.0, 1.0}
    same = mix(lebesgue(), dirac(0.3), 1.0)
    assert same == lebesgue()
    with pytest.raises(ValueError):
        mix(dirac(0.0), dirac(1.0), 1.5)


def test_validation_errors():
    with pytest.raises(ValueError):
        Atom(1.5, 1.0)
    with pytest.raises(ValueError):
        Atom(0.5, 0.0)
    with pytest.raises(ValueError):
        Beta(2.0, 2.0)
    with pytest.raises(ValueError):
        LogGamma(0.0)
    with pytest.raises(ValueError):
        Table([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        Measure()
    with pytest.raises(ValueError):
        Measure(densities=(Beta(1.0, 2.0, weight=-1.0),))


@pytest.mark.parametrize("w", [math.inf, 1e309, math.nan])
def test_weights_must_be_finite(w):
    with pytest.raises(ValueError, match="finite and positive"):
        Atom(0.5, w)
    with pytest.raises(ValueError, match="finite and positive"):
        Measure(densities=(Beta(1.0, 2.0, weight=w),))
    with pytest.raises(ValueError, match="finite and positive"):
        measure_from_dict({"atoms": [{"t": 0.5, "w": w}]})
    with pytest.raises(ValueError, match="finite and positive"):
        measure_from_dict({"densities": [{"family": "beta", "a": 1, "c": 3, "w": w}]})


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_loggamma_refuses_a_non_finite_exponent(alpha):
    # alpha = inf once overflowed in the left chart's power, ceil(2 sqrt(alpha))
    with pytest.raises(ValueError, match="log-power density needs alpha > 0"):
        loggamma_measure(alpha)


@pytest.mark.parametrize("a, c", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)])
def test_beta_refuses_non_finite_parameters(a, c):
    # beta(1, inf) once passed and integrated to nan
    with pytest.raises(ValueError, match="beta density needs c > a > 0"):
        beta_measure(a, c)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([0.0, math.nan, 1.0], "be strictly increasing"),
        ([math.nan, 1.0], "be strictly increasing"),
        ([0.0, math.nan], "be strictly increasing"),
        ([0.0, math.inf], "lie inside \\[0, 1\\]"),
        ([-math.inf, 1.0], "lie inside \\[0, 1\\]"),
    ],
)
def test_table_refuses_non_finite_breakpoints(grid, message):
    # a NaN breakpoint once passed both grid checks and integrated to nan
    with pytest.raises(ValueError, match=f"table grid must {message}"):
        table_measure(grid, [1.0] * len(grid))


@pytest.mark.parametrize(
    "grid, values",
    [
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 0.5, 1.0], [1.0, math.inf, 1.0]),
        # normalizing by the subnormal mass overflows the upper value to inf
        ([0.0, 2.2250738585e-313], [0.0, 0.99999]),
    ],
)
def test_table_refuses_non_finite_values(grid, values):
    # each once ended in "table density integrates to nan", the subnormal
    # segment after an "invalid value" RuntimeWarning
    with pytest.raises(ValueError, match=r"table values must be finite once normalized, got \(.*\) -> \(.*(nan|inf)"):
        table_measure(grid, values)


def test_table_refuses_a_mass_that_overflows():
    # the trapezoid sum of these finite values is inf, which once divided
    # every value to 0.0 and ended in "table density integrates to 0.0"
    with pytest.raises(ValueError, match=r"table mass must be finite, got inf from the values \(1e\+308, 1\.7e\+308\)"):
        table_measure([0.0, 1.0], [1e308, 1.7e308])


def test_moment_rejects_bad_order():
    # moments refuses its count as moment refuses its order
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="moment order"):
            lebesgue().moment(bad)
        with pytest.raises(ValueError, match="moment count"):
            lebesgue().moments(bad)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_moment_and_integrate_check_the_tolerance_for_every_family(tol):
    # closed-form families never reach the quadrature, so its check alone
    # would let these through for beta, log-power and atoms
    words = "tolerance must be finite" if tol != -1.0 else "tolerance must be nonnegative"
    for mu in (beta_measure(1.0, 3.0), loggamma_measure(2.0), lebesgue(), dirac(0.5),
               table_measure([0.0, 1.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match=words):
            mu.moment(2, tol=tol)
        with pytest.raises(ValueError, match=words):
            mu.integrate(lambda t, u: t, tol=tol)
    assert dirac(0.5).moment(2, tol=0.0) == 0.25


def test_unreachable_tolerance_raises():
    with pytest.raises(QuadratureError):
        lebesgue().integrate(lambda t, u: np.sin(3e5 * t), tol=1e-300)


def test_json_round_trip():
    spec = {
        "atoms": [{"t": 0.5, "w": 0.3}],
        "densities": [{"family": "beta", "a": 1.0, "c": 3.0, "w": 0.7}],
    }
    mu = measure_from_dict(spec)
    assert mu.mass == pytest.approx(1.0, abs=1e-15)
    assert measure_from_dict(measure_to_dict(mu)) == mu
    for other in [
        lebesgue(),
        loggamma_measure(2.5),
        table_measure([0.0, 0.5, 1.0], [1.0, 2.0, 1.0]),
        dirac(0.25),
    ]:
        assert measure_from_dict(measure_to_dict(other)) == other
    back = measure_from_dict(measure_to_dict(_EVERY_FAMILY))
    assert back.atoms == _EVERY_FAMILY.atoms
    assert back.densities[:3] == _EVERY_FAMILY.densities[:3]
    # a table normalizes its values once: they come back exactly
    table, table_back = _EVERY_FAMILY.densities[3], back.densities[3]
    assert (table_back.grid, table_back.weight) == (table.grid, table.weight)
    assert table_back.values == table.values
    assert back == _EVERY_FAMILY
    assert measure_to_dict(_EVERY_FAMILY)["densities"] == [
        {"family": "beta", "a": 1.0, "c": 2.0, "w": 0.1},
        {"family": "beta", "a": 0.7, "c": 2.9, "w": 0.3},
        {"family": "loggamma", "alpha": 1.7, "w": 0.2},
        {"family": "table", "grid": [0.1, 0.4, 0.8], "values": list(_EVERY_FAMILY.densities[3].values), "w": 0.2},
    ]
    # "lebesgue" is the wire name of the uniform density beta(1, 2), which
    # writes itself as a beta
    uniform = measure_from_dict({"densities": [{"family": "lebesgue", "w": 1}]})
    assert uniform == lebesgue() == Measure(densities=(Beta(1.0, 2.0),))
    assert measure_to_dict(uniform) == {"densities": [{"family": "beta", "a": 1.0, "c": 2.0, "w": 1.0}]}
    # JSON integers give the same densities as floats
    ints = {"densities": [{"family": "beta", "a": 1, "c": 3}, {"family": "loggamma", "alpha": 2, "w": 1}]}
    dens = measure_from_dict(ints).densities
    assert dens == (Beta(1.0, 3.0), LogGamma(2.0))
    assert {type(v) for v in (dens[0].a, dens[0].c, dens[1].alpha, dens[1].weight)} == {float}
    with pytest.raises(ValueError):
        measure_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        measure_from_dict({"densities": [{"family": "gauss"}]})


# A measure holding atoms and every density family, the uniform one (beta(1, 2))
# among them, weights summing to 1.
_EVERY_FAMILY = Measure(
    (Atom(0.3, 0.1), Atom(1.0, 0.1)),
    (Beta(1.0, 2.0, 0.1), Beta(0.7, 2.9, 0.3), LogGamma(1.7, 0.2), Table([0.1, 0.4, 0.8], [1.0, 3.0, 0.5], 0.2)),
)


def test_integrate_is_integrate_below_at_one():
    mu = _EVERY_FAMILY
    for fn in (
        lambda t: 1.0 / (1.0 - t * (0.3 + 0.4j)),
        lambda t: (1.0 - t * (-0.5 + 0.2j)) ** -2.0,
        lambda t: 1.0 / (1.0 + t),
        lambda t: t**7,
    ):
        for tol in (1e-10, 1e-12):
            got = mu.integrate(lambda t, u: fn(t), tol=tol)
            ref = mu.integrate_below(fn, 1.0, tol)
            assert type(got) is type(ref)
            assert np.array([got]).tobytes() == np.array([ref]).tobytes()


def test_integrate_below_cut_masks_density_and_atoms():
    # integrate_below is integrate of the integrand times 1[t <= cut];
    # beta(2, 5) has density 12 t (1 - t)^2, so mass 6 x^2 - 8 x^3 + 3 x^4 below x
    got = beta_measure(2.0, 5.0).integrate_below(lambda t: np.ones_like(t), 0.3, 1e-12)
    assert got == pytest.approx(0.3483, abs=1e-12)
    assert lebesgue().integrate_below(lambda t: t, 0.5, 1e-12) == pytest.approx(0.125, abs=1e-12)
    atoms = Measure(((0.3, 0.5), (0.7, 0.5)))
    assert atoms.integrate_below(lambda t: t, 0.5, 1e-12) == pytest.approx(0.15, abs=1e-12)
    assert atoms.integrate_below(lambda t: t, 0.7, 1e-12) == pytest.approx(0.5, abs=1e-12)
    # a cut at or past 1 keeps everything
    assert _EVERY_FAMILY.integrate_below(lambda t: t**2, 1.0, 1e-12) == pytest.approx(
        _EVERY_FAMILY.moment(2), abs=1e-12
    )


def test_mix_and_scaled_reweight_every_family():
    # the reweighted density equals the family constructed directly with the
    # new weight; a table keeps its (already normalized) values
    other = Measure((Atom(0.5, 1.0),))
    lb, bt, lg, tb = _EVERY_FAMILY.densities
    for s in (0.25, 0.6):
        for reweighted in (mix(_EVERY_FAMILY, other, s), _EVERY_FAMILY.scaled(s)):
            assert reweighted.densities == (
                Beta(1.0, 2.0, lb.weight * s),
                Beta(bt.a, bt.c, bt.weight * s),
                LogGamma(lg.alpha, lg.weight * s),
                Table(tb.grid, tb.values, tb.weight * s),
            )
            assert reweighted.densities[3].values == tb.values
    assert mix(other, _EVERY_FAMILY, 0.25).densities[1] == Beta(0.7, 2.9, 0.3 * 0.75)


@pytest.mark.parametrize("alpha", [0.005, 0.01, 0.03, 0.05])
def test_small_order_log_power_rules_are_finite(alpha):
    # s**q underflows near s = 0 on the right chart, where the plain weight
    # reads 0**(alpha - 1) times 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mu = loggamma_measure(alpha)
        t, w = mu._rule
        assert np.all(np.isfinite(t)) and np.all(np.isfinite(w))
        h = ShiftedCauchyTransform.from_measure(mu)
        zs = np.array([0.5, -0.7, 0.3 + 0.4j, 0.9j, -0.2 - 0.6j])
        exact = np.array([h.deriv(z, tol=1e-12) for z in zs])
        assert np.all(np.abs(h.derivs(zs) - exact) <= 1e-14 * np.abs(exact))


def test_unit_mass_check_reads_the_rule_the_sweeps_use():
    # the rule of beta(0.001, 1) has unit mass to 1.1e-15, that of
    # beta(95.76, 589.55) misses it by 2.5e-10
    assert beta_measure(0.001, 1.0).is_normalized
    with pytest.raises(ValueError, match="beta density integrates to 0.99999999"):
        beta_measure(95.76, 589.55)


def test_gauss_rule_keeps_atoms_as_exact_nodes():
    # atoms at one location become one node of their total weight, so the
    # rule does not depend on how the atoms are split
    atoms = (Atom(0.0, 0.1), Atom(1.0, 0.2), Atom(0.3, 0.05), Atom(0.3, 0.15))
    mu = Measure(atoms, (Beta(1.0, 2.0, 0.3), Beta(0.6, 1.9, 0.2)))
    t, w = mu._gauss_rule
    assert len(t) == _GAUSS_NODES + 3
    assert t[-3:].tolist() == [0.0, 1.0, 0.3]
    assert w[-3:].tolist() == [0.1, 0.2, 0.05 + 0.15]
    assert np.all((t >= 0.0) & (t <= 1.0)) and np.all(w >= 0.0)
    assert math.isclose(float(np.sum(w[:-3])), 0.5, rel_tol=1e-15)
    t, w = Measure(atoms)._gauss_rule
    assert t.tolist() == [0.0, 1.0, 0.3] and w.tolist() == [0.1, 0.2, 0.05 + 0.15]


def test_rules_do_not_depend_on_how_atoms_are_split():
    # atoms at one location are one point mass: both rules end with one node
    # per location, in first-seen order, of the weights added in listed order
    densities = (Beta(1.0, 2.0, 0.3), LogGamma(2.0, 0.2))
    split = Measure((Atom(0.0, 0.1), Atom(0.3, 0.05), Atom(1.0, 0.2), Atom(0.3, 0.15)), densities)
    joined = Measure((Atom(0.0, 0.1), Atom(0.3, 0.05 + 0.15), Atom(1.0, 0.2)), densities)
    for name in ("_rule", "_gauss_rule"):
        (t, w), (t_ref, w_ref) = getattr(split, name), getattr(joined, name)
        assert t.tobytes() == t_ref.tobytes() and w.tobytes() == w_ref.tobytes(), name
    assert split._rule[0][-3:].tolist() == [0.0, 0.3, 1.0]
    atoms = Measure(split.atoms)
    assert atoms._gauss_rule is atoms._rule
    assert atoms._rule[0].tolist() == [0.0, 0.3, 1.0] and atoms._rule[1].tolist() == [0.1, 0.05 + 0.15, 0.2]


@pytest.mark.parametrize(
    "mu, nu, n",
    [
        (beta_measure(0.7, 2.9), lebesgue(), 100),
        (loggamma_measure(1.5), beta_measure(2.0, 3.5), 7),
        (table_measure([0.0, 0.25, 0.5, 1.0], [1.0, 2.0, 0.5, 1.0]), table_measure([0.0, 0.3, 0.95], [1.0, 1.0, 3.0]), 4),
        (table_measure([0.1, 0.375, 1.0 - 2.0**-40], [1.0, 3.0, 0.5]), loggamma_measure(2.0), 8),
    ],
)
def test_pair_points_are_numpys_unique_points_inside_the_open_interval(mu, nu, n):
    # the sort-and-diff construction stands in for np.unique, which would
    # import numpy.ma; breakpoints at 0 and 1 drop out, shared ones count once
    dyadic = 0.5 ** np.arange(1, 41)
    breaks = [x for m in (mu, nu) for d in m.densities if isinstance(d, Table) for x in d.grid]
    ref = np.unique(np.concatenate([(np.arange(n) + 0.5) / n, dyadic, 1.0 - dyadic, breaks]))
    ref = ref[(ref > 0.0) & (ref < 1.0)]
    assert measures._pair_points(mu, nu, n).tobytes() == ref.tobytes()


def test_gauss_check_reads_the_kernel_sums_beyond_the_moments():
    # the 2-node Gauss rule of the uniform density has its first four moments, but not
    # its kernel sums on the route boundary; the 128-node rule has both
    mu = lebesgue()
    x, w = np.polynomial.legendre.leggauss(2)
    two = ((x + 1.0) / 2.0, w / 2.0)
    assert np.allclose([two[1] @ two[0] ** n for n in range(4)], mu.moments(4), rtol=1e-15, atol=0.0)
    assert not _gauss_agrees(two, mu._rule, mu.moments(4))
    assert _gauss_agrees(mu._gauss_rule, mu._rule, mu.moments(4))


def _lanczos_rule(t, w, reorthogonalise):
    """(Gauss rule, Lanczos basis) of the discrete measure, with or without one reorthogonalisation pass a step.

    Without the pass it is the recurrence of ``_gauss_compress``; with it,
    the reference the plain recurrence is held to.
    """
    n = _GAUSS_NODES
    mass = float(np.sum(w))
    x = t - 0.5
    q = np.empty((n, len(t)))
    q[0] = np.sqrt(w / mass)
    alpha = np.empty(n)
    beta = np.empty(n - 1)
    for k in range(n):
        v = x * q[k]
        if k:
            v -= beta[k - 1] * q[k - 1]
        alpha[k] = q[k] @ v
        if k == n - 1:
            break
        v -= alpha[k] * q[k]
        if reorthogonalise:
            basis = q[: k + 1]
            v -= (basis @ v) @ basis
        beta[k] = math.sqrt(v @ v)
        np.divide(v, beta[k], out=q[k + 1])
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return (np.clip(nodes + 0.5, 0.0, 1.0), mass * vectors[0] ** 2), q


def _gauss_build(mu, compress):
    """(candidate rule, whether the check kept it) for a fresh copy of ``mu``."""
    fresh = Measure(mu.atoms, mu.densities)
    with (
        mock.patch.object(measures, "_gauss_compress", compress),
        mock.patch.object(measures, "_gauss_agrees", wraps=measures._gauss_agrees) as check,
    ):
        kept = fresh._gauss_rule is not fresh._rule
    return check.call_args.args[0], kept


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**32 - 1).map(lambda seed: random_measure(np.random.default_rng(seed))),
        st.sampled_from(_GAUSS_EXTREMES),
    )
)
def test_gauss_compress_matches_the_always_reorthogonalised_reference(mu):
    # where the plain basis stays semi-orthogonal, below sqrt(eps / n), its
    # Jacobi matrix is accurate to working precision (Simon, Math. Comp. 42,
    # 1984), and the rule gives the nodes to 1e-14, and each weight to 1e-14
    # of the mass plus twice eps sqrt(w_i mass) / gap_i, gap_i the distance to
    # the nearest other node: how far an eps-sized change in the Jacobi matrix
    # can move it.  That term is the weights' own conditioning, not slack:
    # moving the fixed rule's weights by one ulp moves the reference's weights
    # by up to 0.7 of it, by 9.3e-14 of the mass on beta(3, 3.05), and by
    # 4.5e-11 on a log-power plus beta measure whose fixed rule holds each point
    # twice and whose rule has two nodes 2.1e-7 apart; the plain rules stay
    # within 0.6 of it.  The verdicts agree but where both rules pass the check
    # at twice its tolerance, where a change in the last bits tips it either
    # way (beta(3, 3.05) and some log-power exponents near 2.5).  A basis that
    # lost semi-orthogonality (loggamma(30), loggamma(90)) is held to the
    # fixed rule by the construction check alone
    if not mu.densities:
        return
    t, w = mu._rule
    dense = len(t) - len(mu.atoms)
    (plain_t, plain_w), q = _lanczos_rule(t[:dense], w[:dense], reorthogonalise=False)
    own_t, own_w = measures._gauss_compress(t[:dense], w[:dense])
    assert own_t.tobytes() == plain_t.tobytes() and own_w.tobytes() == plain_w.tobytes()
    gram = q @ q.T
    np.fill_diagonal(gram, 0.0)
    if not np.max(np.abs(gram)) <= math.sqrt(np.finfo(float).eps / _GAUSS_NODES):
        return
    rule, kept = _gauss_build(mu, measures._gauss_compress)
    ref, ref_kept = _gauss_build(mu, lambda t, w: _lanczos_rule(t, w, reorthogonalise=True)[0])
    n = _GAUSS_NODES  # the density part; the atoms follow it
    nodes, weights = ref[0][:n], ref[1][:n]
    assert np.max(np.abs(rule[0][:n] - nodes)) <= 1e-14
    gaps = np.diff(nodes)
    gap = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    mass = np.sum(weights)
    tol = 1e-14 * mass + 2.0 * np.finfo(float).eps * np.sqrt(weights * mass) / gap
    assert np.all(np.abs(rule[1][:n] - weights) <= tol)
    if kept != ref_kept:
        with mock.patch.object(measures, "_GAUSS_TOL", 2.0 * measures._GAUSS_TOL):
            assert _gauss_agrees(rule, mu._rule, mu.moments(4)) and _gauss_agrees(ref, mu._rule, mu.moments(4))


_CONSTANT = ([0.0, 1.0], [1.0, 1.0])


def test_a_basis_that_lost_orthogonality_still_gives_a_kept_rule():
    # Lanczos on constant tables alone drifts far from orthogonal (4.6e-4 for
    # one table, 1.4e-4 for two, against sqrt(eps / n) = 1.3e-9), yet its rule
    # passes the construction check, as do those of measures whose basis stays
    # semi-orthogonal
    for mu in (
        table_measure(*_CONSTANT),
        Measure((), (Table(*_CONSTANT, 0.46), Table(*_CONSTANT, 0.54))),
        Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3))),
        Measure((Atom(0.2, 0.3), Atom(0.9, 0.2)), (Beta(1.0, 2.0, 0.5),)),
    ):
        assert mu._gauss_rule is not mu._rule
        assert len(mu._gauss_rule[0]) == _GAUSS_NODES + len(mu.atoms)


@st.composite
def _tables(draw):
    """A table measure: 2 to 7 breakpoints on a grid of step 1/1000 that spans [0, 1] or not, constant or random values."""
    k = draw(st.integers(2, 7))
    if draw(st.booleans()):
        inner = draw(st.lists(st.integers(1, 999), min_size=k - 2, max_size=k - 2, unique=True))
        steps = [0, *sorted(inner), 1000]
    else:
        steps = sorted(draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k, unique=True)))
    if draw(st.booleans()):
        values = [1.0] * k
    else:
        values = draw(st.lists(st.integers(0, 30), min_size=k, max_size=k).filter(any))
    return table_measure([i / 1000 for i in steps], [v / 10 for v in values])


def _kernel_scales_and_errors(zs, fine, rule):
    """For the powers p = 1, 2, 3, per point z: the sum of |w (1 - t z)**-p| over ``fine``, and how far the sums over ``fine`` and ``rule`` differ."""
    scales = np.empty((3, len(zs)))
    errors = np.empty((3, len(zs)))
    for i in range(0, len(zs), 256):
        z = zs[i : i + 256, None]
        inv, rule_inv = 1.0 / (1.0 - z * fine[0]), 1.0 / (1.0 - z * rule[0])
        modulus = np.abs(inv)
        terms, rule_terms, moduli = inv, rule_inv, modulus
        for p in range(3):
            scales[p, i : i + 256] = moduli @ fine[1]
            errors[p, i : i + 256] = np.abs(rule_terms @ rule[1] - terms @ fine[1])
            terms, rule_terms, moduli = terms * inv, rule_terms * rule_inv, moduli * modulus
    return scales, errors


@settings(max_examples=15, deadline=None)
@given(
    st.one_of(
        _tables(),
        st.sampled_from([
            table_measure(*_CONSTANT),
            Measure((), (Table(*_CONSTANT, 0.46), Table(*_CONSTANT, 0.54))),
            loggamma_measure(30.0),
            loggamma_measure(90.0),
        ]),
    )
)
def test_a_kept_gauss_rule_matches_the_fixed_rule_on_the_default_grids(mu):
    # one Lanczos recurrence loses orthogonality on constant tables and on
    # loggamma(30) and loggamma(90); the rule it gives is kept only where the
    # construction check passes, and a kept one must then reproduce the fixed
    # rule's kernel sums on every default grid, relative to the sum of the
    # moduli of the fixed rule's terms, since the sums may cancel
    fine = mu._rule
    candidate, _ = _gauss_build(mu, measures._gauss_compress)
    if not _gauss_agrees(candidate, fine, mu.moments(4)):
        assert mu._gauss_rule is fine
        return
    rule = mu._gauss_rule
    assert rule is not fine and len(rule[0]) == _GAUSS_NODES
    g = GridSpec()
    zs = np.concatenate([g.disk_points(), g.rect_points(), g.real_ray()])
    scales, errors = _kernel_scales_and_errors(zs, fine, rule)
    assert np.all(errors <= 1e-13 * scales)


def _ellipse_points(rho, theta):
    """The points z whose poles 1/z lie on the Bernstein ellipse E_rho of [0, 1] at the angles theta."""
    return 2.0 / (1.0 + 0.5 * (rho * np.exp(1j * theta) + np.exp(-1j * theta) / rho))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**32 - 1).map(lambda seed: random_measure(np.random.default_rng(seed))),
        _tables(),
    ),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=8),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=1, max_size=3),
)
def test_a_kept_rung_matches_the_fixed_rule_on_and_beyond_its_ellipse(mu, thetas, beyond):
    # the rung is checked against the 128-node rule and that rule against the
    # fixed rule, each to _GAUSS_TOL, so the rung may miss the fixed rule by
    # twice that, relative to the sum of the moduli of the fixed rule's terms;
    # poles on E_rho32 and beyond it, at rho32 (1 + s), take the rung wherever
    # the route hands it out
    zs = np.concatenate([_ellipse_points(_RUNG_RHO * (1.0 + s), np.array(thetas)) for s in beyond])
    zs = zs[_route_levels(zs) == 0]
    if mu._gauss_rung is mu._gauss_rule or not zs.size:
        return
    assert mu._rule_for(zs) is mu._gauss_rung
    assert len(mu._gauss_rung[0]) == _RUNG_NODES + len(mu._point_masses)
    scales, errors = _kernel_scales_and_errors(zs, mu._rule, mu._gauss_rung)
    assert np.all(errors <= 2.0 * _GAUSS_TOL * scales)


def test_a_rung_that_fails_its_check_falls_back_to_the_gauss_rule(monkeypatch):
    mu = Measure((Atom(0.3, 0.2),), (Beta(1.5, 3.2, 0.5), LogGamma(2.0, 0.3)))
    gauss = mu._gauss_rule
    assert gauss is not mu._rule
    monkeypatch.setattr(measures, "_GAUSS_TOL", 0.0)
    assert mu._gauss_rung is gauss
    assert mu._rule_for(np.zeros(1)) is gauss
    monkeypatch.undo()
    # no rung where the Gauss rule is the fixed rule: its check failed, or
    # the measure is atoms only; far points then take the fixed rule
    for fixed in (loggamma_measure(30.0), Measure((Atom(0.2, 0.5), Atom(0.7, 0.5)))):
        assert fixed._gauss_rule is fixed._rule
        assert fixed._gauss_rung is fixed._rule
        assert fixed._rule_for(np.zeros(1)) is fixed._rule
    # and a kept rung has 32 nodes plus the atoms
    assert len(Measure(mu.atoms, mu.densities)._gauss_rung[0]) == _RUNG_NODES + 1


def test_atomic_moments_are_exact_power_sums():
    atoms = [Atom(0.5, 0.25), Atom(0.75, 0.5), Atom(0.0, 0.125), Atom(1.0, 0.125)]
    exact = [sum(Fraction(a.w) * Fraction(a.t) ** n for a in atoms) for n in range(20)]
    assert Measure(atoms).moments(20).tolist() == [float(x) for x in exact]


def test_density_with_nan_unit_mass_is_rejected():
    # a NaN unit mass fails every comparison, so the check must be written
    # to reject it rather than to accept on "not too far from 1"; a table
    # with a value that is not finite is refused before it is integrated
    with np.errstate(all="ignore"):
        for build, message in (
            (lambda: loggamma_measure(150.0), "integrates to nan"),
            (lambda: table_measure([0.0, 0.5, 1.0], [math.nan, 1.0, 1.0]), "table values must be finite"),
            (lambda: table_measure([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]), "table values must be finite"),
            (lambda: table_measure([0.0, 0.5, 1.0], [1.0, math.inf, 1.0]), "table values must be finite"),
        ):
            with pytest.raises(ValueError, match=message):
                build()


def test_table_normalizes_once():
    # first constructions from user values, as the division by the
    # trapezoid mass has always given them
    firsts = {
        ((0.1, 0.4, 0.8), (1.0, 3.0, 0.5)): (0.769230769230769, 2.307692307692307, 0.3846153846153845),
        ((0.0, 0.5, 1.0), (1.0, 2.0, 1.0)): (0.6666666666666666, 1.3333333333333333, 0.6666666666666666),
        ((0.0, 0.25, 1.0), (0.2, 1.0, 1.2)): (0.20512820512820512, 1.0256410256410255, 1.2307692307692306),
    }
    for (grid, values), normalized in firsts.items():
        mu = table_measure(grid, values)
        assert mu.densities[0].values == normalized
        # rebuilt from its own values, by the wire format or reweighting
        assert measure_from_dict(measure_to_dict(mu)) == mu
        assert mix(mu, mu, 0.5).densities == (replace(mu.densities[0], weight=0.5),) * 2
        assert replace(mu.densities[0], weight=0.5).values == normalized
    # the exception: user values of trapezoid mass 1 + 2**-52 are kept, one
    # ulp above the 1.0 that dividing by the mass gives
    values = (1.0 + 2.0**-52, 1.0 + 2.0**-52)
    assert Table((0.0, 1.0), values).values == values
    assert tuple(x / (1.0 + 2.0**-52) for x in values) == (1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=-8, max_value=8))
def test_table_near_normalized_values_stay_within_ulps_of_the_division(seed, nudge):
    # values whose trapezoid mass is within 4 n ulps of 1 are kept as given,
    # where dividing by the mass (as first constructions always did) would
    # move them; the two differ by at most (4 n + 1) eps relative.  Nudges of
    # up to 8 n ulps reach both sides of that margin.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    grid = tuple(np.sort(rng.choice(np.linspace(0.0, 1.0, 4 * n + 1), size=n, replace=False)).tolist())
    values = table_measure(grid, rng.random(n) + 0.1).densities[0].values
    values = tuple(x * (1.0 + nudge * n * 2.0**-52) for x in values)
    mass = sum(0.5 * (values[i] + values[i + 1]) * (grid[i + 1] - grid[i]) for i in range(n - 1))
    kept = Table(grid, values).values
    assert kept == values or kept == tuple(x / mass for x in values)
    bound = (4 * n + 1) * 2.0**-52
    assert all(abs(k - x / mass) <= bound * (x / mass) for k, x in zip(kept, values))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_table_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    grid = np.sort(rng.choice(np.linspace(0.0, 1.0, 4 * n + 1), size=n, replace=False))
    values = rng.random(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    mu = table_measure(grid, values)
    assert measure_from_dict(measure_to_dict(mu)) == mu
    assert Table(mu.densities[0].grid, mu.densities[0].values) == mu.densities[0]


# -- endpoint calculus --------------------------------------------------------


def test_endpoint_moments_closed_forms():
    # h'(1-) of the shifted beta(0.5, 2.7) part: (c-1)(c-2)/((c-a-1)(c-a-2))
    assert beta_measure(0.5, 2.7).endpoint_moment(2) == pytest.approx(119.0 / 24.0, rel=1e-14)
    assert beta_measure(1.0, 2.2).endpoint_moment(1) == pytest.approx(6.0, rel=1e-14)
    assert beta_measure(1.0, 2.9).endpoint_moment(2) == math.inf
    # c - a is a rounded difference: 2.2 - 1.2 and 4.4 - 2.4 land above 1
    # and 2, where the integrals diverge all the same
    assert 2.2 - 1.2 > 1.0 and 4.4 - 2.4 > 2.0
    assert beta_measure(1.2, 2.2).endpoint_moment(1) == math.inf
    assert beta_measure(2.4, 4.4).endpoint_moment(2) == math.inf
    assert beta_measure(2.4, 4.4).endpoint_moment(1) == pytest.approx(3.4, rel=1e-14)
    # zeta(3) and zeta(2), mpmath
    assert loggamma_measure(3.0).endpoint_moment(2) == pytest.approx(1.6449340668482264365, rel=1e-13)
    assert loggamma_measure(3.0).endpoint_moment(1) == pytest.approx(1.2020569031595942854, rel=1e-12)
    assert loggamma_measure(2.0).endpoint_moment(2) == math.inf
    assert lebesgue().endpoint_moment(1) == math.inf
    # tables: exact integrals over the linear segments (mpmath quad)
    table = table_measure([0.1, 0.4, 0.8], [1.0, 3.0, 0.5])
    assert table.endpoint_moment(1) == pytest.approx(1.9340742617354373646, rel=1e-14)
    assert table.endpoint_moment(2) == pytest.approx(4.2708576710334458001, rel=1e-14)
    vanishing = table_measure([0.0, 0.5, 1.0], [1.0, 2.0, 0.0])
    assert vanishing.endpoint_moment(1) == pytest.approx(2.4635532333438687426, rel=1e-14)
    assert vanishing.endpoint_moment(2) == math.inf
    # atoms: w/(1-t)**p, +inf at t = 1
    atoms = Measure((Atom(0.5, 0.25), Atom(0.9, 0.75)))
    assert atoms.endpoint_moment(2) == pytest.approx(0.25 * 4.0 + 0.75 * 100.0, rel=1e-13)
    assert dirac(1.0).endpoint_moment(1) == math.inf
    # a mixture adds its parts
    mixed = mix(table, atoms, 0.4)
    assert mixed.endpoint_moment(2) == pytest.approx(0.4 * 4.2708576710334458001 + 0.6 * 76.0, rel=1e-14)
    with pytest.raises(ValueError):
        lebesgue().endpoint_moment(3)


def test_endpoint_exponents():
    # density ~ kappa (1 - t)**(beta - 1) at t = 1
    assert beta_measure(2.0, 3.0).endpoint_exponent() == pytest.approx((1.0, 2.0), rel=1e-14)
    beta, kappa = beta_measure(0.5, 2.7).endpoint_exponent()
    assert beta == pytest.approx(2.2, rel=1e-15)
    assert kappa == pytest.approx(0.79097267549897392695, rel=1e-13)  # Gamma(2.7)/(Gamma(0.5)Gamma(2.2)), mpmath
    assert loggamma_measure(1.5).endpoint_exponent() == pytest.approx((1.5, 1.1283791670955125739), rel=1e-14)
    assert lebesgue().endpoint_exponent() == (1.0, 1.0)
    # tables: the value at t = 1, else the slope of the last segment
    assert table_measure([0.0, 0.5, 1.0], [1.0, 2.0, 0.0]).endpoint_exponent() == (2.0, 3.2)
    assert table_measure([0.0, 1.0], [0.5, 1.5]).endpoint_exponent() == (1.0, 1.5)
    assert table_measure([0.1, 0.4, 0.8], [1.0, 3.0, 0.5]).endpoint_exponent() == (math.inf, 0.0)
    # a mixture takes the smallest beta and adds the kappa of the parts at it;
    # an atom at t = 1 acts as beta = 0
    mixed = mix(lebesgue(), beta_measure(2.0, 3.0), 0.5)
    assert mixed.endpoint_exponent() == pytest.approx((1.0, 0.5 + 0.5 * 2.0), rel=1e-14)
    assert mix(mixed, loggamma_measure(0.5), 0.5).endpoint_exponent()[0] == 0.5
    assert mix(mixed, dirac(1.0), 0.75).endpoint_exponent() == (0.0, 0.25)
    assert dirac(0.5).endpoint_exponent() == (math.inf, 0.0)
