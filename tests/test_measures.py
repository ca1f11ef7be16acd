import math

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


def test_loggamma_1_is_uniform():
    mu = loggamma_measure(1.0)
    assert mu.moment(4) == pytest.approx(0.2, abs=1e-11)


def test_integrate_atoms_exact():
    assert dirac(0.5).integrate(lambda t: t**2) == 0.25
    assert dirac(1.0).integrate(lambda t: 1.0 / (1.0 + t)) == 0.5


def test_integrate_closed_form():
    # oracle: -log(1-z)/z at z = 1/2 equals 2 log 2
    val = lebesgue().integrate(lambda t: 1.0 / (1.0 - t / 2.0))
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
    assert mu.integrate(lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-10)
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


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        lebesgue().moment(-1)
    with pytest.raises(ValueError):
        lebesgue().moment(1.5)


def test_unreachable_tolerance_raises():
    with pytest.raises(QuadratureError):
        lebesgue().integrate(lambda t: np.sin(3e5 * t), tol=1e-300)


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
    # a table renormalizes its values on construction, which is not exactly
    # idempotent in floating point: they come back within a few ulps
    table, table_back = _FOUR_FAMILIES.densities[3], back.densities[3]
    assert (table_back.grid, table_back.weight) == (table.grid, table.weight)
    assert np.allclose(table_back.values, table.values, rtol=1e-15, atol=0.0)
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
            got = mu.integrate(fn, tol=tol)
            ref = mu.integrate_below(fn, 1.0, tol)
            assert type(got) is type(ref)
            assert np.array([got]).tobytes() == np.array([ref]).tobytes()


def test_mix_and_scaled_reweight_every_family():
    # the reweighted density equals the family constructed directly with the
    # new weight; a table renormalizes its (already normalized) values again
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
    assert mix(other, _FOUR_FAMILIES, 0.25).densities[1] == Beta(0.7, 2.9, 0.3 * 0.75)


def test_density_with_nan_unit_mass_is_rejected():
    # a NaN unit mass fails every comparison, so the check must be written
    # to reject it rather than to accept on "not too far from 1"
    with np.errstate(all="ignore"):
        for build in (
            lambda: loggamma_measure(150.0),
            lambda: loggamma_measure(0.01),
            lambda: table_measure([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
            lambda: table_measure([0.0, 0.5, 1.0], [1.0, math.inf, 1.0]),
        ):
            with pytest.raises(ValueError, match="integrates to nan"):
                build()
