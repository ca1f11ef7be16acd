"""Borel probability measures on [0, 1]: atoms plus weighted named densities.

The density families are beta, log-power and tables.  The uniform density
is beta(1, 2); ``"lebesgue"`` is its wire name and :func:`lebesgue` its
measure, so it has the graded beta charts at both ends.

Each density has one fixed rule (:func:`_density_rule`): the unit-mass
check sums over it, and a measure's fixed rule (:attr:`Measure._rule`) is
the reference its Gauss rule is built from.  No family's moments read it.
The kernel sums of the sweeps take a Gauss rule of the measure
(:attr:`Measure._gauss_rule`, 32 nodes plus one per atom location, from one
Lanczos recurrence over the fixed rule) at each point whose kernel pole
lies far enough from [0, 1], and the fixed rule at the few others: this
module gives each point its level (:func:`_route_levels`) and each level
its rule (:meth:`Measure._rule_at`), and the two routers of ``transforms``
split the sums by level.  :meth:`Measure.integrate` is the
adaptive route, for pointwise values to a tolerance near the slit;
power moments have one route (:meth:`Measure.moments`), closed for every family.
Every chart is t = base + step * s**power on s in [0, hi] (see
:class:`Chart`): t = s**p toward t = 0 regularizes an integrable singularity
there (beta with a small first exponent, log-power), t = 1 - s**q toward
t = 1 gives the complement u = 1 - t as s**q, without the rounding of t,
and a table segment [lo, hi] takes t = hi - (hi - lo) s**3.  The adaptive
route hands integrands the pair (t, u), so a kernel with a pole near t = 1
can be formed from u.

Boundary values at z = 1- of the transforms built from a measure are its
endpoint moments, integrals of (1 - t)**-p; every family has them in closed
form (:meth:`Measure.endpoint_moment`), together with the exponent of its
density at t = 1 (:meth:`Measure.endpoint_exponent`).

Measures compare equal structurally (same atoms and densities); weak
equality of measures is not decidable numerically and is not attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .quadrature import _check_tol, adaptive_quad, composite_rule, graded_edges

__all__ = [
    "Atom",
    "Beta",
    "LogGamma",
    "Table",
    "Measure",
    "make_named",
    "dirac",
    "lebesgue",
    "beta_measure",
    "loggamma_measure",
    "table_measure",
    "mix",
    "measure_from_dict",
    "measure_to_dict",
    "zeta",
    "same_exponent",
]

# The one probability-mass tolerance: of each density's rule at construction,
# and of Measure.is_normalized, which transforms and convolution factors need.
MASS_TOL = 1e-10
# Endpoint exponents this close (relative, or absolute near 0) count as equal.
# Beta's exponent c - a is a computed difference, and decimal parameters miss
# the exact value: 1.9 - 0.9 is 0.9999999999999999, not 1.
EXPONENT_TOL = 1e-12

# Nodes of a measure's Gauss rule (Measure._gauss_rule), besides its atom nodes.
_GAUSS_NODES = 32
# The route's Bernstein parameter rho0: the Gauss rule serves the points z
# whose kernel pole 1/z lies outside the ellipse E_rho0 of [0, 1].  There an
# n-node Gauss rule of a positive measure errs by O(rho0**-2n), and the
# kernel's p-th power costs about n**(p - 1) more, so rho0**2n = n**2 / eps
# puts the power-3 sums at rounding level: rho0 = 1.957 for n = 32.
_GAUSS_RHO = (_GAUSS_NODES**2 / np.finfo(float).eps) ** (0.5 / _GAUSS_NODES)
# |p| + |p - 1| on the boundary of E_rho0, whose foci are 0 and 1.
_GAUSS_FOCAL = 0.5 * (_GAUSS_RHO + 1.0 / _GAUSS_RHO)
# The Gauss rule must reproduce the closed-form moments and the fixed rule's
# kernel sums on the route boundary to this, relative, or the fixed rule stays.
_GAUSS_TOL = 1e-13


def same_exponent(x, y):
    """Whether two endpoint exponents agree up to rounding (``EXPONENT_TOL``)."""
    return math.isclose(x, y, rel_tol=EXPONENT_TOL, abs_tol=EXPONENT_TOL)


def _pair_points(mu, nu, n):
    """Sorted distinct points of (0, 1) at which to compare the densities phi of mu and psi of nu.

    The n midpoints (i + 1/2)/n, the dyadic points 2**-j and 1 - 2**-j for
    j = 1 .. J, with 2**-J the first below ``EXPONENT_TOL``, and every table
    breakpoint inside (0, 1): the values of ``np.unique`` on them that lie
    in (0, 1).  Points where both densities vanish constrain nothing.  The
    sample decides the named same-family pairs:
    - beta against beta, the uniform density among them: psi/phi ~ t**p (1 - t)**q
      with p = a_g - a_h and q = (c_g - a_g) - (c_h - a_h).  It fails to be
      nondecreasing iff p < 0 or q > 0, and then falls by a factor of about
      2**-|p| (or 2**-q) between the two outermost dyadic points at that
      end: a fall above 1e-12 once the gap is above about 1.5e-12, which
      ``same_exponent`` treats as rounding anyway.
    - log-power against log-power: psi/phi ~ (-log t)**(alpha_g - alpha_h)
      is monotone, nondecreasing iff alpha_g <= alpha_h.
    - tables and the uniform beta(1, 2): both densities are linear between breakpoints,
      so phi - c psi is linear and psi/phi monotone on each piece, and its
      ends decide; a piece ending at 0 or 1 is read at 2**-J or 1 - 2**-J.
    Other pairs (mixtures, mixed families) are only sampled.
    """
    levels = int(-math.log2(EXPONENT_TOL)) + 1
    dyadic = 0.5 ** np.arange(1, levels + 1)
    breaks = [x for m in (mu, nu) for d in m.densities if isinstance(d, Table) for x in d.grid]
    ts = np.sort(np.concatenate([(np.arange(n) + 0.5) / n, dyadic, 1.0 - dyadic, breaks]))
    # np.unique imports numpy.ma (1.2 MB resident on numpy 2.4) unless asked for indices
    return ts[(np.diff(ts, prepend=0.0) > 0.0) & (ts < 1.0)]


def zeta(s, tol=1e-12):
    """Riemann zeta for finite real s > 1, the endpoint moments of the log-power family.

    Partial sum plus the integral tail N**(1-s)/(s-1) and Euler-Maclaurin
    corrections through the N**(-s-3) term; N grows until the first omitted
    term, s(s+1)...(s+4) N**(-s-5)/30240, is inside tol/2.  The bare
    integral bound alone would need N of order tol**(-1/(s-1)), which is
    hopeless near s = 1 at tight tolerances; the corrections stay accurate
    there, where the tail term carries the pole 1/(s-1).  The tolerance
    must be finite and nonnegative; below the machine epsilon it stops
    where the omitted term no longer changes the sum, which exceeds 1.  The
    power of N multiplies s before the rising factors do, so a large s
    reads zeta = 1 where s(s+1)(s+2) alone would overflow.
    """
    s = float(s)
    if not 1.0 < s < math.inf:
        raise ValueError(f"zeta needs a finite s > 1, got {s!r}")
    _check_tol(tol)
    target = max(tol, np.finfo(float).eps) / 2.0
    n = 16
    while s * n ** (-s - 5.0) * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0 > target and n < 10**7:
        n *= 2
    head = float(np.sum(np.arange(1, n, dtype=float) ** (-s)))
    return head + (
        n ** (1.0 - s) / (s - 1.0)
        + 0.5 * n ** (-s)
        + s * n ** (-s - 1.0) / 12.0
        - s * n ** (-s - 3.0) * (s + 1.0) * (s + 2.0) / 720.0
    )


@dataclass(frozen=True)
class Chart:
    """Parametrization t = base + step * s**power, s in [0, hi], with a smooth pulled-back weight.

    ``weight(s)`` is ``pdf(t(s)) * |dt/ds|``, so integrating a function g
    against the density over the covered t-range equals integrating
    ``g(to_t(s)) * weight(s)`` over ``[0, hi]``.  ``to_u(s)`` is the
    complement u = 1 - t of the same point, (1 - base) - step * s**power,
    which is step * s**power from s alone on a chart based at t = 1.
    Near t = 1 a rounded t has lost the digits of 1 - t that a pole at
    z ~ 1 amplifies: ``1 - t z`` at z = 1 - 1e-6 carries relative noise of
    about 1e-10, which adaptive refinement bisects forever.
    """

    base: float
    step: float
    power: float
    hi: float
    weight: object

    def to_t(self, s):
        return self.base + self.step * s**self.power

    def to_u(self, s):
        return (1.0 - self.base) - self.step * s**self.power


@dataclass(frozen=True)
class Atom:
    t: float
    w: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"atom location {self.t!r} outside [0, 1]")
        if not 0.0 < self.w < math.inf:
            raise ValueError(f"atom weight must be finite and positive, got {self.w!r}")


@dataclass(frozen=True)
class Beta:
    """Density proportional to ``t**(a-1) * (1-t)**(c-a-1)`` with c > a > 0."""

    a: float
    c: float
    weight: float = 1.0
    family = "beta"

    def __post_init__(self):
        if not math.inf > self.c > self.a > 0.0:
            raise ValueError(f"beta density needs c > a > 0, got a={self.a!r}, c={self.c!r}")
        try:
            self._norm
        except OverflowError:
            raise ValueError(
                f"beta density with a={self.a!r}, c={self.c!r}: its normalizing constant"
                " Gamma(c) / (Gamma(a) Gamma(c - a)) overflows"
            ) from None

    @property
    def _norm(self):
        return math.exp(
            math.lgamma(self.c) - math.lgamma(self.a) - math.lgamma(self.c - self.a)
        )

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return self._norm * t ** (self.a - 1.0) * (1.0 - t) ** (self.c - self.a - 1.0)

    def charts(self):
        """Charts t = s**p below t = 1/2 and t = 1 - s**q above, p = ceil(3/a), q = ceil(3/(c-a)).

        Raising the endpoint exponents to 3 or more (p, q at least 1) makes
        both pulled-back weights smooth enough for Gauss panels.
        """
        a = self.a
        ca = self.c - self.a
        norm = self._norm
        p = max(1.0, math.ceil(3.0 / a))
        q = max(1.0, math.ceil(3.0 / ca))
        return (
            Chart(0.0, 1.0, p, 0.5 ** (1.0 / p),
                  lambda s: norm * p * s ** (p * a - 1.0) * (1.0 - s**p) ** (ca - 1.0)),
            Chart(1.0, -1.0, q, 0.5 ** (1.0 / q),
                  lambda s: norm * q * s ** (q * ca - 1.0) * (1.0 - s**q) ** (a - 1.0)),
        )

    def moments(self, count):
        """(a)_n / (c)_n for n < count, the running product of (a + i)/(c + i) over i < n.

        Each factor lies in (0, 1), so the product neither overflows nor
        underflows early.  For c = a + 1 the product telescopes to a/(a + n),
        which is taken as it stands: the uniform density beta(1, 2) then has
        the exact reciprocals 1/(n + 1).
        """
        if self.c - self.a == 1.0:
            return self.a / (self.a + np.arange(count))
        i = np.arange(count - 1)
        return np.cumprod(np.concatenate([[1.0], (self.a + i) / (self.c + i)]))[:count]

    def endpoint_moment(self, p):
        """Gamma(c) Gamma(c-a-p) / (Gamma(c-a) Gamma(c-p)), finite iff c - a > p.

        Gamma(x + 1) = x Gamma(x) turns the quotient into the product of
        (c - i) / (c - a - i) over i = 1..p.  A computed c - a that equals p
        up to rounding counts as p, where the integral diverges.
        """
        ca = self.c - self.a
        if not ca > p or same_exponent(ca, p):
            return math.inf
        num = den = 1.0
        for i in range(1, p + 1):
            num *= self.c - i
            den *= ca - i
        return num / den

    def endpoint_exponent(self):
        return self.c - self.a, self._norm


@dataclass(frozen=True)
class LogGamma:
    """Density ``(-log t)**(alpha-1) / Gamma(alpha)`` on (0, 1), alpha > 0."""

    alpha: float
    weight: float = 1.0
    family = "loggamma"

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"log-power density needs alpha > 0, got {self.alpha!r}")

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inv_gamma = math.exp(-math.lgamma(self.alpha))
        with np.errstate(divide="ignore"):
            return inv_gamma * (-np.log(t)) ** (self.alpha - 1.0)

    def charts(self):
        """Charts t = s**p below t = 1/2 and t = 1 - s**q above, p = max(3, ceil(2 sqrt(alpha))), q = ceil(3/alpha).

        The left weight inv_gamma p s**(p-1) (-p log s)**(alpha-1) vanishes
        like s**2 at s = 0 (p >= 3).  In log s it is a bump about
        sqrt(alpha)/p wide around -(alpha-1)/(p-1); the graded panels are ln 2
        wide in log s, so p ~ 2 sqrt(alpha) keeps it about 1/2 wide (p = alpha
        would narrow it to 1/sqrt(alpha)) and inside the 14 graded levels, with
        840 points for every alpha.  q (at least 1) smooths the right endpoint.
        Where x = s**q is below the smallest normal float, -log1p(-x) ~ x and
        the right weight is its limit inv_gamma q s**(q alpha - 1); the plain
        form would read 0 * inf there.
        """
        alpha = self.alpha
        inv_gamma = math.exp(-math.lgamma(alpha))
        p = max(3.0, math.ceil(2.0 * math.sqrt(alpha)))
        q = max(1.0, math.ceil(3.0 / alpha))

        def right_weight(s):
            x = s**q
            tiny = x < np.finfo(float).tiny
            # 0.5 keeps log1p finite at the points where the plain value is discarded
            plain = inv_gamma * (-np.log1p(-np.where(tiny, 0.5, x))) ** (alpha - 1.0) * q * s ** (q - 1.0)
            return np.where(tiny, inv_gamma * q * s ** (q * alpha - 1.0), plain)

        return (
            Chart(0.0, 1.0, p, 0.5 ** (1.0 / p),
                  lambda s: inv_gamma * p * s ** (p - 1.0) * (-p * np.log(s)) ** (alpha - 1.0)),
            Chart(1.0, -1.0, q, 0.5 ** (1.0 / q), right_weight),
        )

    def moments(self, count):
        """(n + 1)**-alpha for n < count, by Python's power (numpy's rounds differently)."""
        return np.array([(n + 1.0) ** -self.alpha for n in range(count)])

    def endpoint_moment(self, p):
        """zeta(alpha) for p = 1, zeta(alpha - 1) for p = 2, and +inf where that series diverges.

        The moments are (n+1)**-alpha, and (1-t)**-1 and (1-t)**-2 have the
        power-series coefficients 1 and n + 1.  Below s = 1 the series
        diverges; the continuation of zeta there is not its value.
        """
        s = self.alpha - p + 1.0
        return zeta(s) if s > 1.0 else math.inf

    def endpoint_exponent(self):
        return self.alpha, math.exp(-math.lgamma(self.alpha))


# Values whose trapezoid mass lies this many ulps per grid point from 1 count
# as normalized already.  Dividing normalized values by their computed mass
# moves them by a few ulps, so without this a table rebuilt from its own
# values (JSON round trip, reweighting) would not equal the original.
_NORMALIZED_ULPS = 4


@dataclass(frozen=True, init=False)
class Table:
    """User-sampled density: piecewise linear on a supplied grid, normalized once.

    Zero outside the grid's span.  The trapezoid mass is exact for a
    piecewise-linear function, so normalization is not a quadrature.  Values
    that are normalized already (to rounding) are kept as given, so a table
    rebuilt from its own values equals it.  Values that are not finite,
    given or once normalized (a subnormal mass overflows them), raise
    ``ValueError``, and so do finite values whose trapezoid mass overflows
    to inf, before they are divided by it.
    """

    grid: tuple
    values: tuple
    weight: float
    family = "table"

    def __init__(self, grid, values, weight=1.0):
        g = tuple(float(x) for x in grid)
        v = given = tuple(float(x) for x in values)
        if len(g) != len(v) or len(g) < 2:
            raise ValueError("table density needs matching grids of length >= 2")
        if not all(b > a for a, b in zip(g, g[1:])):
            raise ValueError("table grid must be strictly increasing")
        if not (0.0 <= g[0] and g[-1] <= 1.0):
            raise ValueError("table grid must lie inside [0, 1]")
        if any(x < 0.0 for x in v):
            raise ValueError("table values must be nonnegative")
        mass = sum(0.5 * (v[i] + v[i + 1]) * (g[i + 1] - g[i]) for i in range(len(g) - 1))
        if mass <= 0.0:
            raise ValueError("table density has zero mass")
        if mass == math.inf and all(map(math.isfinite, v)):
            raise ValueError(f"table mass must be finite, got {mass} from the values {given}")
        if not abs(mass - 1.0) <= _NORMALIZED_ULPS * len(g) * math.ulp(1.0):
            v = tuple(x / mass for x in v)
        if not all(map(math.isfinite, v)):
            raise ValueError(f"table values must be finite once normalized, got {given} -> {v}")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weight", float(weight))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.grid, self.values)
        return np.where((t < self.grid[0]) | (t > self.grid[-1]), 0.0, out)

    def charts(self):
        """One chart t = hi - (hi - lo) s**3, s in [0, 1], per segment [lo, hi] of the grid.

        The power 3 of beta(1, 2) grades each segment toward its upper end,
        so a kernel pole just beyond t = 1 sits about its cube root away in
        s, where the graded panels resolve it.  The chart starts at hi
        exactly and keeps its nodes inside [lo, hi] at any width.  Its
        weight (v_hi + (v_lo - v_hi) s**3) 3 (hi - lo) s**2, the interpolant
        times dt/ds, is a polynomial of degree 5, which the 15-point panels
        integrate exactly.
        """
        return tuple(
            Chart(hi, lo - hi, 3.0, 1.0,
                  lambda s, lo=lo, hi=hi, vlo=vlo, vhi=vhi: (vhi + (vlo - vhi) * s**3) * 3.0 * (hi - lo) * s**2)
            for lo, hi, vlo, vhi in zip(self.grid, self.grid[1:], self.values, self.values[1:])
        )

    def moments(self, count):
        """The integrals of t**n against the density for n < count, exact per segment in Bernstein form.

        On a segment [a, b] with values v_a, v_b the interpolant integrates
        t**n to (b - a)(v_a D_n + v_b U_n) / ((n + 1)(n + 2)), where
        U_n = sum (k + 1) b**k a**(n - k) and D_n, its mirror with a and b
        swapped, run forward as U_n = a U_{n-1} + (n + 1) b**n.  Every term
        is nonnegative, so short segments do not cancel, and the recurrence
        damps an earlier rounding error by a factor a (or b) per order.
        """
        out = [0.0] * count
        for a, b, va, vb in zip(self.grid, self.grid[1:], self.values, self.values[1:]):
            up = down = 0.0
            for n in range(count):
                up = a * up + (n + 1) * b**n
                down = b * down + (n + 1) * a**n
                out[n] += (b - a) * (va * down + vb * up) / ((n + 1) * (n + 2))
        return np.array(out)

    def endpoint_moment(self, p):
        """Exact integral of (1 - t)**-p against the piecewise-linear density.

        On a segment of length L whose ends sit at u0 > u1 in u = 1 - t, the
        two hat functions integrate to 1 - u1 l/L and u0 l/L - 1 at p = 1,
        and to l/L - 1/u0 and 1/u1 - l/L at p = 2, with l = log(u0/u1).  A
        segment ending at t = 1 gives +inf unless the density vanishes where
        the integrand blows up.
        """
        total = 0.0
        for t0, t1, v0, v1 in zip(self.grid, self.grid[1:], self.values, self.values[1:]):
            u0, u1, length = 1.0 - t0, 1.0 - t1, t1 - t0
            if u1 == 0.0:
                if v1 > 0.0 or (p == 2 and v0 > 0.0):
                    return math.inf
                total += v0 if p == 1 else 0.0
                continue
            ell = math.log1p(length / u1)
            if p == 1:
                total += v0 * (1.0 - u1 * ell / length) + v1 * (u0 * ell / length - 1.0)
            else:
                total += v0 * (ell / length - 1.0 / u0) + v1 * (1.0 / u1 - ell / length)
        return total

    def endpoint_exponent(self):
        """From the last segment: the value at t = 1, else its slope there."""
        if self.grid[-1] == 1.0:
            if self.values[-1] > 0.0:
                return 1.0, self.values[-1]
            if self.values[-2] > 0.0:
                return 2.0, self.values[-2] / (1.0 - self.grid[-2])
        return math.inf, 0.0


# The density families by wire name.  A family's parameters are its dataclass
# fields other than ``weight``; they drive the JSON format and ``make_named``.
_FAMILIES = {"beta": Beta, "loggamma": LogGamma, "table": Table}


def _params(density_cls):
    return [f for f in fields(density_cls) if f.name != "weight"]


def _density(family, params, weight=1.0):
    """Density of the named family from a mapping holding its parameters.

    Parameters annotated ``float`` (a string here, as this module defers its
    annotations) are converted, so JSON integers give the same density as
    floats; ``Table`` converts its sequences itself.
    """
    if family == "lebesgue":  # the wire name of the uniform density
        return Beta(1.0, 2.0, float(weight))
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown density family {family!r}")
    args = {
        f.name: float(params[f.name]) if f.type == "float" else params[f.name]
        for f in _params(cls)
    }
    return cls(**args, weight=float(weight))


@dataclass(frozen=True, init=False)
class Measure:
    """Positive Borel measure on [0, 1], stored as atoms plus named densities.

    Construction validates atom locations and weights and checks that each
    density's rule (:func:`_density_rule`, before weighting), the one the
    sweeps use, has unit mass within ``MASS_TOL``.
    """

    atoms: tuple
    densities: tuple

    def __init__(self, atoms=(), densities=()):
        atoms = tuple(a if isinstance(a, Atom) else Atom(*a) for a in atoms)
        densities = tuple(densities)
        for d in densities:
            if not 0.0 < d.weight < math.inf:
                raise ValueError(f"density weight must be finite and positive, got {d.weight!r}")
            unit = float(np.sum(_density_rule(d)[1]))
            if not abs(unit - 1.0) <= MASS_TOL:
                raise ValueError(
                    f"{d.family} density integrates to {unit!r}, expected 1 within {MASS_TOL:g}"
                )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "densities", densities)
        if not atoms and not densities:
            raise ValueError("measure needs at least one atom or density")

    @property
    def mass(self):
        return sum(a.w for a in self.atoms) + sum(d.weight for d in self.densities)

    @property
    def is_normalized(self):
        """Whether the total mass is 1 within ``MASS_TOL``."""
        return abs(self.mass - 1.0) <= MASS_TOL

    # -- quadrature ---------------------------------------------------------

    def integrate(self, integrand, tol=1e-10):
        """Integrate a (possibly complex-valued) vectorized function against the measure.

        The integrand is called as ``integrand(t, u)`` on arrays of points t
        and their complements u = 1 - t (see :class:`Chart`); an integrand
        with a pole near t = 1 forms its small factors from u, where t has
        rounded them away.  Atoms are added exactly, with u = 1 - a.t; each
        density chart gets an adaptive pass with an equal share of the
        tolerance, which must be finite and nonnegative (atoms-only measures
        check it too).  Raises :class:`~cmharmonic.quadrature.QuadratureError`
        when refinement cannot reach the requested tolerance.
        """
        _check_tol(tol)
        pieces = [(d, ch) for d in self.densities for ch in d.charts()]
        tol_piece = tol / max(1, len(pieces))
        total = 0.0
        for d, ch in pieces:
            val, _ = adaptive_quad(
                lambda s, ch=ch: np.asarray(integrand(ch.to_t(s), ch.to_u(s))) * ch.weight(s),
                0.0,
                ch.hi,
                tol=tol_piece,
            )
            total = total + d.weight * val
        for a in self.atoms:
            total = total + a.w * complex(integrand(np.asarray(a.t), np.asarray(1.0 - a.t)))
        if isinstance(total, complex) and total.imag == 0.0:
            return total.real
        return total

    def integrate_below(self, integrand, cut, tol=1e-10):
        """:meth:`integrate` of ``integrand(t)`` times the indicator of t <= cut.

        The integrand takes t alone.  The mask drops atoms above the cut
        along with the density beyond it; the jump at the cut is left to the
        adaptive refinement.  Nothing in the package truncates: this
        delegate is kept as the entry point ``perfbench/spans.py`` wraps by
        name.
        """
        return self.integrate(lambda t, u: np.asarray(integrand(t)) * (t <= cut), tol)

    def moment(self, n, tol=1e-12):
        """Entry n of :meth:`moments`; no family reads ``tol``, which must still be finite and nonnegative."""
        if n < 0 or n != int(n):
            raise ValueError(f"moment order must be a nonnegative integer, got {n!r}")
        _check_tol(tol)
        return float(self.moments(int(n) + 1)[-1])

    @cached_property
    def _point_masses(self):
        """The atoms as one mass per location, ``{t: w}``: locations first-seen, weights added in listed order."""
        masses = {}
        for a in self.atoms:
            masses[a.t] = masses.get(a.t, 0.0) + a.w
        return masses

    @cached_property
    def _rule(self):
        """The fixed rule (t-nodes, weights): the sweeps' rule near the slit, and the Gauss rule's reference.

        Each density contributes :func:`_density_rule` at its weight, and
        the atoms end it as exact nodes, one per location of
        :attr:`_point_masses`, so that the rule does not depend on how the
        atoms are split.  Good to roughly 1e-12 for integrands smooth away
        from the endpoints; single-point evaluations with guaranteed
        tolerances go through :meth:`integrate` instead.
        """
        masses = self._point_masses
        parts = [_density_rule(d, d.weight) for d in self.densities]
        ts, ws = zip(*parts, (np.fromiter(masses, float), np.fromiter(masses.values(), float)))
        return np.concatenate(ts), np.concatenate(ws)

    @cached_property
    def _gauss_rule(self):
        """The Gauss rule (t-nodes, weights) of the measure, built from :attr:`_rule` on first use.

        The density part of the fixed rule is compressed to its
        ``_GAUSS_NODES``-node Gauss rule by one Lanczos recurrence of 32
        steps over it and one 32 x 32 ``eigh`` (:func:`_gauss_compress`),
        and the fixed rule's atom nodes, already the Gauss rule of the
        atomic part, end it unchanged; an atoms-only measure's Gauss rule is
        ``_rule`` itself.  The result must reproduce the closed-form
        ``moments(4)`` and the fixed rule's kernel sums on its route
        boundary, the ellipse of ``_GAUSS_RHO`` (:func:`_gauss_agrees`);
        when it does not, this is ``_rule`` itself.
        """
        t, w = self._rule
        dense = len(t) - len(self._point_masses)
        if not dense:
            return self._rule
        gauss = _gauss_compress(t[:dense], w[:dense])
        rule = np.concatenate([gauss[0], t[dense:]]), np.concatenate([gauss[1], w[dense:]])
        return rule if _gauss_agrees(rule, self._rule, self.moments(4)) else self._rule

    def _rule_at(self, level):
        """The rule of a route level (:func:`_route_levels`): 0 the Gauss rule, 1 the fixed rule."""
        return self._rule if level else self._gauss_rule

    def moments(self, count):
        """First ``count`` power moments, the one route: atom power sums plus each density's ``moments``.

        Every family has a closed form: beta (the uniform density among
        them) and log-power by formula, a table exactly per segment.
        """
        if count < 0 or count != int(count):
            raise ValueError(f"moment count must be nonnegative and an integer, got {count!r}")
        count = int(count)
        atoms = sum(a.w * np.array([a.t**n for n in range(count)], dtype=float) for a in self.atoms)
        return atoms + sum(d.weight * d.moments(count) for d in self.densities)

    # -- endpoint calculus at t = 1 -------------------------------------------

    def endpoint_moment(self, p):
        """``integral of (1 - t)**-p d mu`` for p = 1 or 2, possibly +inf.

        These are the boundary values at z = 1- of the transform F (p = 1,
        the sum of the moments) and of the derivative of z F(z) (p = 2, the
        sum of (n+1) times the moments), by monotone convergence.  Atoms
        give w/(1-t)**p, +inf at t = 1; every density family has a closed
        form.
        """
        if p not in (1, 2):
            raise ValueError(f"endpoint moment order must be 1 or 2, got {p!r}")
        total = sum(a.w / (1.0 - a.t) ** p if a.t < 1.0 else math.inf for a in self.atoms)
        return total + sum(d.weight * d.endpoint_moment(p) for d in self.densities)

    def endpoint_exponent(self):
        """``(beta, kappa)`` with mu ~ kappa (1 - t)**(beta - 1) dt near t = 1.

        An atom at t = 1 counts as beta = 0 with kappa its weight.  The
        smallest beta of the parts wins and the kappa of the parts attaining
        it (up to rounding, :func:`same_exponent`) add up; ``(inf, 0.0)``
        when no mass comes near t = 1.
        """
        parts = [(0.0, a.w) for a in self.atoms if a.t == 1.0]
        for d in self.densities:
            beta, kappa = d.endpoint_exponent()
            parts.append((beta, d.weight * kappa))
        beta = min((b for b, _ in parts), default=math.inf)
        return beta, sum((k for b, k in parts if same_exponent(b, beta)), 0.0)

    # -- structure ----------------------------------------------------------

    def scaled(self, factor):
        if not factor > 0.0:
            raise ValueError("scale factor must be positive")
        return Measure(
            tuple(Atom(a.t, a.w * factor) for a in self.atoms),
            tuple(replace(d, weight=d.weight * factor) for d in self.densities),
        )

    def pdf(self, t):
        """Pointwise density of the absolutely continuous part."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for d in self.densities:
            out = out + d.weight * d.pdf(t)
        return out


def _density_rule(density, weight=1.0):
    """Graded composite rule over a density's charts: t-nodes and weights times ``weight``."""
    ts, ws = [], []
    for ch in density.charts():
        s, w = composite_rule(graded_edges(0.0, ch.hi))
        ts.append(ch.to_t(s))
        ws.append(weight * w * ch.weight(s))
    return np.concatenate(ts), np.concatenate(ws)


def _route_levels(zs):
    """Per point of ``zs``, the level of the rule that serves it: 0 the Gauss rule, 1 the fixed rule.

    The Gauss rule serves z when the pole 1/z lies outside its Bernstein
    ellipse E_rho0 of [0, 1] (foci 0 and 1), that is
    |1/z| + |1/z - 1| >= focal, or, times |z|, 1 + |1 - z| >= focal |z|;
    z = 0 clears the ellipse and NaN does not.  Every point s z,
    s in [0, 1], on the way to a point z has at most z's level: the
    ellipse is convex and holds 0, so the ray beyond 1/z stays outside it.
    On the default grids only the points near z = 1 fall short: 6 of the
    768 disk nodes, 18 of the 10,000 rectangle nodes, 3 of the 100 ray
    points and 3 of the 33 upper-ring nodes.
    """
    zs = np.asarray(zs)
    return 1 - (1.0 + np.abs(1.0 - zs) >= _GAUSS_FOCAL * np.abs(zs))


def _gauss_compress(t, w):
    """The ``_GAUSS_NODES``-node Gauss rule (nodes, weights) of the discrete measure sum_j w_j delta(t_j).

    Lanczos on diag(t - 1/2) from the start vector sqrt(w / mass) gives
    the n x n Jacobi matrix of the measure; its eigenvalues plus 1/2 are
    the nodes and the squared first components of its eigenvectors, times
    the mass, the weights (Golub and Welsch, Math. Comp. 23, 1969).  The
    recurrence runs without reorthogonalisation.  Where its vectors lose
    orthogonality, the rule is still the Gauss rule of a measure near the
    given one (Greenbaum, Linear Algebra Appl. 113, 1989), and
    :func:`_gauss_agrees` checks it before it is used.  The nodes are
    clipped to [0, 1], which rounding may leave by an ulp.  The recurrence
    does not break down: every density's fixed rule has hundreds of points
    of positive weight, against n = 32.
    """
    n = _GAUSS_NODES
    mass = float(np.sum(w))
    x = t - 0.5
    alpha = np.empty(n)
    beta = np.empty(n - 1)
    prev, q = 0.0, np.sqrt(w / mass)
    for k in range(n):
        v = x * q
        if k:
            v -= beta[k - 1] * prev
        alpha[k] = q @ v
        if k == n - 1:
            break
        v -= alpha[k] * q
        beta[k] = math.sqrt(v @ v)
        prev, q = q, v / beta[k]
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return np.clip(nodes + 0.5, 0.0, 1.0), mass * vectors[0] ** 2


def _gauss_agrees(rule, fine, moments):
    """Whether ``rule`` reproduces ``moments`` and the kernel sums of ``fine`` on the route boundary to ``_GAUSS_TOL``.

    Each moment is compared relative to itself.  The sums of (1 - t z)**-p,
    p = 1, 2, 3, are compared at 16 points z whose poles 1/z run over the
    upper half of the route boundary, the ellipse E_rho0, from z ~ 1 (pole
    just right of t = 1) to the far side of t = 0, where the errors peak;
    real rules give conjugate sums at conjugate points.  They are compared
    relative to the sum of the moduli of the fine rule's terms, since the
    sums themselves may cancel; those moduli are the powers of
    |1/(1 - t z)|, whose complex modulus is taken once per term.  Off the
    ellipse the error of a sum is an analytic function of 1/z, bounded at
    infinity, so by the maximum modulus principle its modulus peaks on the
    boundary; the probes sample it there, which is evidence, not a bound.
    """
    t, w = rule
    powers = np.array([w @ t**n for n in range(len(moments))])
    if not np.all(np.abs(powers - moments) <= _GAUSS_TOL * np.abs(moments)):
        return False
    theta = np.linspace(0.0, np.pi, 16)[:, None]
    zs = 2.0 / (1.0 + 0.5 * (_GAUSS_RHO * np.exp(1j * theta) + np.exp(-1j * theta) / _GAUSS_RHO))
    fine_inv = 1.0 / (1.0 - zs * fine[0])
    fine_mod = np.abs(fine_inv)
    fine_w = fine[1].astype(complex)
    inv = 1.0 / (1.0 - zs * t)
    fine_kern, fine_scale, kern = fine_inv.copy(), fine_mod.copy(), inv
    for p in range(3):  # powers 1, 2, 3, the fine rule's in place
        if p:
            fine_kern *= fine_inv
            fine_scale *= fine_mod
            kern = kern * inv
        err = np.abs(kern @ w - fine_kern @ fine_w)
        if not np.all(err <= _GAUSS_TOL * (fine_scale @ fine[1])):
            return False
    return True


# -- constructors -----------------------------------------------------------


def dirac(t):
    """Unit point mass at t."""
    return Measure(atoms=(Atom(float(t), 1.0),))


def lebesgue():
    """The uniform probability measure, beta(1, 2)."""
    return beta_measure(1.0, 2.0)


def beta_measure(a, c):
    return Measure(densities=(Beta(float(a), float(c)),))


def loggamma_measure(alpha):
    return Measure(densities=(LogGamma(float(alpha)),))


def table_measure(grid, values):
    return Measure(densities=(Table(grid, values),))


def make_named(family, **params):
    """Normalized measure of a named family: dirac, lebesgue, beta, loggamma, table."""
    if family == "dirac":
        return dirac(params["t"])
    return Measure(densities=(_density(family, params),))


def mix(m1, m2, s):
    """Convex combination s*m1 + (1-s)*m2 of two measures."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {s!r}")
    if s == 1.0:
        return m1
    if s == 0.0:
        return m2
    atoms = tuple(Atom(a.t, a.w * s) for a in m1.atoms) + tuple(
        Atom(a.t, a.w * (1.0 - s)) for a in m2.atoms
    )
    densities = tuple(replace(d, weight=d.weight * s) for d in m1.densities) + tuple(
        replace(d, weight=d.weight * (1.0 - s)) for d in m2.densities
    )
    return Measure(atoms, densities)


# -- JSON wire format -------------------------------------------------------


def measure_to_dict(mu):
    """Wire format: {"atoms": [{"t", "w"}], "densities": [{"family", ..., "w"}]}."""
    out = {}
    if mu.atoms:
        out["atoms"] = [{"t": a.t, "w": a.w} for a in mu.atoms]
    if mu.densities:
        ds = []
        for d in mu.densities:
            entry = {"family": d.family}
            for f in _params(type(d)):
                value = getattr(d, f.name)
                entry[f.name] = list(value) if isinstance(value, tuple) else value
            entry["w"] = d.weight
            ds.append(entry)
        out["densities"] = ds
    return out


def measure_from_dict(spec):
    if not isinstance(spec, dict):
        raise ValueError("measure spec must be a JSON object")
    atoms = tuple(Atom(float(a["t"]), float(a["w"])) for a in spec.get("atoms", ()))
    densities = tuple(
        _density(d.get("family"), d, d.get("w", 1.0)) for d in spec.get("densities", ())
    )
    return Measure(atoms, densities)
