import math
import warnings
from fractions import Fraction
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmharmonic.measures import (
    Atom,
    Beta,
    Lebesgue,
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
from cmharmonic.transforms import ShiftedCauchyTransform
from conftest import random_measure


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
    assert isinstance(make_named("lebesgue").densities[0], Lebesgue)
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
    densities = [Beta(0.7, 1.5, 0.25), LogGamma(3.0, 0.1875), Lebesgue(0.125)]
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


def test_table_moments_resolve_the_peak_at_one_for_large_orders():
    # t**n peaks at t = 1, inside the last panel of each segment; the 7- and
    # 15-point sums of one panel can agree while both miss that peak
    for grid, values in [
        ([0.0, 1.0], [1.0, 1.0]),
        ([0.0, 0.3, 0.999, 1.0], [0.0, 3.0, 2.0, 1.0]),
        ([0.2, 0.5, 0.9, 1.0], [1.0, 0.0, 2.0, 0.5]),
    ]:
        mu = table_measure(grid, values)
        for n in (3999, 4000, 5000):
            exact = _exact_table_moment(mu.densities[0], n)
            assert math.isclose(mu.moment(n), exact, rel_tol=1e-12), (grid, n)


def test_uniform_table_moments_equal_lebesgue_moments():
    tab, leb = table_measure([0.0, 1.0], [1.0, 1.0]), lebesgue()
    for n in range(5001):
        assert math.isclose(tab.moment(n), leb.moment(n), rel_tol=1e-13), n


def test_batch_moments_agree_with_adaptive():
    rng = np.random.default_rng(3)
    for _ in range(4):
        mu = random_measure(rng)
        batch = mu.moments(10)
        for n in range(10):
            assert batch[n] == pytest.approx(mu.moment(n, tol=1e-13), abs=1e-11)


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
        Measure(densities=(Lebesgue(weight=-1.0),))


@pytest.mark.parametrize("w", [math.inf, 1e309, math.nan])
def test_weights_must_be_finite(w):
    with pytest.raises(ValueError, match="finite and positive"):
        Atom(0.5, w)
    with pytest.raises(ValueError, match="finite and positive"):
        Measure(densities=(Lebesgue(weight=w),))
    with pytest.raises(ValueError, match="finite and positive"):
        measure_from_dict({"atoms": [{"t": 0.5, "w": w}]})
    with pytest.raises(ValueError, match="finite and positive"):
        measure_from_dict({"densities": [{"family": "beta", "a": 1, "c": 3, "w": w}]})


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        lebesgue().moment(-1)
    with pytest.raises(ValueError):
        lebesgue().moment(1.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_moment_and_integrate_check_the_tolerance_for_every_family(tol):
    # closed-form families never reach the quadrature, so its check alone
    # would let these through for beta, log-power, Lebesgue and atoms
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
    back = measure_from_dict(measure_to_dict(_FOUR_FAMILIES))
    assert back.atoms == _FOUR_FAMILIES.atoms
    assert back.densities[:3] == _FOUR_FAMILIES.densities[:3]
    # a table normalizes its values once: they come back exactly
    table, table_back = _FOUR_FAMILIES.densities[3], back.densities[3]
    assert (table_back.grid, table_back.weight) == (table.grid, table.weight)
    assert table_back.values == table.values
    assert back == _FOUR_FAMILIES
    assert measure_to_dict(_FOUR_FAMILIES)["densities"] == [
        {"family": "lebesgue", "w": 0.1},
        {"family": "beta", "a": 0.7, "c": 2.9, "w": 0.3},
        {"family": "loggamma", "alpha": 1.7, "w": 0.2},
        {"family": "table", "grid": [0.1, 0.4, 0.8], "values": list(_FOUR_FAMILIES.densities[3].values), "w": 0.2},
    ]
    # JSON integers give the same densities as floats
    ints = {"densities": [{"family": "beta", "a": 1, "c": 3}, {"family": "loggamma", "alpha": 2, "w": 1}]}
    dens = measure_from_dict(ints).densities
    assert dens == (Beta(1.0, 3.0), LogGamma(2.0))
    assert {type(v) for v in (dens[0].a, dens[0].c, dens[1].alpha, dens[1].weight)} == {float}
    with pytest.raises(ValueError):
        measure_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        measure_from_dict({"densities": [{"family": "gauss"}]})


# A measure holding atoms and all four density families, weights summing to 1.
_FOUR_FAMILIES = Measure(
    (Atom(0.3, 0.1), Atom(1.0, 0.1)),
    (Lebesgue(0.1), Beta(0.7, 2.9, 0.3), LogGamma(1.7, 0.2), Table([0.1, 0.4, 0.8], [1.0, 3.0, 0.5], 0.2)),
)


def test_integrate_is_integrate_below_at_one():
    mu = _FOUR_FAMILIES
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
    assert _FOUR_FAMILIES.integrate_below(lambda t: t**2, 1.0, 1e-12) == pytest.approx(
        _FOUR_FAMILIES.moment(2), abs=1e-12
    )


def test_mix_and_scaled_reweight_every_family():
    # the reweighted density equals the family constructed directly with the
    # new weight; a table keeps its (already normalized) values
    other = Measure((Atom(0.5, 1.0),))
    lb, bt, lg, tb = _FOUR_FAMILIES.densities
    for s in (0.25, 0.6):
        for reweighted in (mix(_FOUR_FAMILIES, other, s), _FOUR_FAMILIES.scaled(s)):
            assert reweighted.densities == (
                Lebesgue(lb.weight * s),
                Beta(bt.a, bt.c, bt.weight * s),
                LogGamma(lg.alpha, lg.weight * s),
                Table(tb.grid, tb.values, tb.weight * s),
            )
            assert reweighted.densities[3].values == tb.values
    assert mix(other, _FOUR_FAMILIES, 0.25).densities[1] == Beta(0.7, 2.9, 0.3 * 0.75)


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


def test_atomic_moments_are_exact_power_sums():
    atoms = [Atom(0.5, 0.25), Atom(0.75, 0.5), Atom(0.0, 0.125), Atom(1.0, 0.125)]
    exact = [sum(Fraction(a.w) * Fraction(a.t) ** n for a in atoms) for n in range(20)]
    assert Measure(atoms).moments(20).tolist() == [float(x) for x in exact]


def test_density_with_nan_unit_mass_is_rejected():
    # a NaN unit mass fails every comparison, so the check must be written
    # to reject it rather than to accept on "not too far from 1"
    with np.errstate(all="ignore"):
        for build in (
            lambda: loggamma_measure(150.0),
            lambda: table_measure([0.0, 0.5, 1.0], [math.nan, 1.0, 1.0]),
            lambda: table_measure([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
            lambda: table_measure([0.0, 0.5, 1.0], [1.0, math.inf, 1.0]),
        ):
            with pytest.raises(ValueError, match="integrates to nan"):
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
