"""Borel probability measures on [0, 1]: atoms plus weighted named densities.

Each density has one fixed rule (:func:`_density_rule`): every sweep, the
unit-mass check and the table moments sum over it.  :meth:`Measure.integrate`
is the adaptive route, for pointwise values to a tolerance near the slit;
power moments of the other families are closed forms (:meth:`Measure.moment`).
Families with integrable endpoint singularities (beta with small exponents,
log-power with small order) are charted by a regularizing change of variable
chosen from the exponents, since plain panels stall near the endpoints.
Each chart also gives the complement u = 1 - t of its points (see
:class:`Chart`), and the adaptive route hands integrands the pair (t, u), so
a kernel with a pole near t = 1 can be formed without the rounding of t.

Boundary values at z = 1- of the transforms built from a measure are its
endpoint moments, integrals of (1 - t)**-p; every family has them in closed
form (:meth:`Measure.endpoint_moment`), together with the exponent of its
density at t = 1 (:meth:`Measure.endpoint_exponent`).

Measures compare equal structurally (same atoms and densities); weak
equality of measures is not decidable numerically and is not attempted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial

import numpy as np

from .quadrature import _check_tol, adaptive_quad, composite_rule, graded_edges

__all__ = [
    "Atom",
    "Lebesgue",
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
    "load_measure",
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


def same_exponent(x, y):
    """Whether two endpoint exponents agree up to rounding (``EXPONENT_TOL``)."""
    return math.isclose(x, y, rel_tol=EXPONENT_TOL, abs_tol=EXPONENT_TOL)


def _pair_points(mu, nu, n):
    """Sorted points of (0, 1) at which to compare the densities phi of mu and psi of nu.

    The n midpoints (i + 1/2)/n, the dyadic points 2**-j and 1 - 2**-j for
    j = 1 .. J, with 2**-J the first below ``EXPONENT_TOL``, and every table
    breakpoint inside (0, 1).  Points where both densities vanish
    constrain nothing.  The sample decides the named same-family pairs:
    - beta against beta, Lebesgue being beta(1, 2): psi/phi ~ t**p (1 - t)**q
      with p = a_g - a_h and q = (c_g - a_g) - (c_h - a_h).  It fails to be
      nondecreasing iff p < 0 or q > 0, and then falls by a factor of about
      2**-|p| (or 2**-q) between the two outermost dyadic points at that
      end: a fall above 1e-12 once the gap is above about 1.5e-12, which
      ``same_exponent`` treats as rounding anyway.
    - log-power against log-power: psi/phi ~ (-log t)**(alpha_g - alpha_h)
      is monotone, nondecreasing iff alpha_g <= alpha_h.
    - tables and Lebesgue: both densities are linear between breakpoints,
      so phi - c psi is linear and psi/phi monotone on each piece, and its
      ends decide; a piece ending at 0 or 1 is read at 2**-J or 1 - 2**-J.
    Other pairs (mixtures, mixed families) are only sampled.
    """
    levels = int(-math.log2(EXPONENT_TOL)) + 1
    dyadic = 0.5 ** np.arange(1, levels + 1)
    breaks = [x for m in (mu, nu) for d in m.densities if isinstance(d, Table) for x in d.grid]
    ts = np.sort(np.concatenate([(np.arange(n) + 0.5) / n, dyadic, 1.0 - dyadic, breaks]))
    # np.unique would import numpy.ma, about 1 MB of resident memory
    return ts[(np.diff(ts, prepend=0.0) > 0.0) & (ts < 1.0)]


def zeta(s, tol=1e-12):
    """Riemann zeta for real s > 1, the endpoint moments of the log-power family.

    Partial sum plus the integral tail N**(1-s)/(s-1) and Euler-Maclaurin
    corrections through the N**(-s-3) term; N grows until the first omitted
    term, s(s+1)...(s+4) N**(-s-5)/30240, is inside tol/2.  The bare
    integral bound alone would need N of order tol**(-1/(s-1)), which is
    hopeless near s = 1 at tight tolerances; the corrections stay accurate
    there, where the tail term carries the pole 1/(s-1).
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta needs s > 1, got {s!r}")
    rising = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)
    n = 16
    while rising * n ** (-s - 5.0) / 30240.0 > tol / 2.0 and n < 10**7:
        n *= 2
    head = float(np.sum(np.arange(1, n, dtype=float) ** (-s)))
    tail = (
        n ** (1.0 - s) / (s - 1.0)
        + 0.5 * n ** (-s)
        + s * n ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    )
    return head + tail


@dataclass(frozen=True)
class Chart:
    """Parametrization s -> t of part of (0, 1] with a smooth pulled-back weight.

    ``weight(s)`` is ``pdf(t(s)) * |dt/ds|``, so integrating a function g
    against the density over the covered t-range equals integrating
    ``g(to_t(s)) * weight(s)`` over ``[lo, hi]``.

    ``to_u(s)`` is the complement u = 1 - t of the same point.  Near t = 1 a
    rounded t has lost the digits of 1 - t that a pole at z ~ 1 amplifies:
    ``1 - t z`` at z = 1 - 1e-6 carries relative noise of about 1e-10, which
    adaptive refinement bisects forever.  The right charts of the beta and
    log-power families map t = 1 - s**q, so there u = s**q is exact; on the
    other charts u = 1 - t, which is exact for t >= 1/2 (Sterbenz).
    """

    lo: float
    hi: float
    to_t: object
    to_u: object
    weight: object
    max_panel: float | None = None


def _complement(s):
    """u = 1 - s, the complement of an identity chart, exact for s >= 1/2."""
    return 1.0 - s


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
class Lebesgue:
    """Uniform density on [0, 1]."""

    weight: float = 1.0
    family = "lebesgue"

    def pdf(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def charts(self):
        """One chart, the identity on [0, 1]."""
        return (Chart(0.0, 1.0, lambda s: s, _complement, lambda s: np.ones_like(s)),)

    def moment(self, n):
        """1/(n + 1), exact to rounding."""
        return 1.0 / (n + 1)

    def endpoint_moment(self, p):
        return math.inf

    def endpoint_exponent(self):
        return 1.0, 1.0


@dataclass(frozen=True)
class Beta:
    """Density proportional to ``t**(a-1) * (1-t)**(c-a-1)`` with c > a > 0."""

    a: float
    c: float
    weight: float = 1.0
    family = "beta"

    def __post_init__(self):
        if not (self.c > self.a > 0.0):
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
            Chart(0.0, 0.5 ** (1.0 / p), lambda s: s**p, lambda s: 1.0 - s**p,
                  lambda s: norm * p * s ** (p * a - 1.0) * (1.0 - s**p) ** (ca - 1.0)),
            Chart(0.0, 0.5 ** (1.0 / q), lambda s: 1.0 - s**q, lambda s: s**q,
                  lambda s: norm * q * s ** (q * ca - 1.0) * (1.0 - s**q) ** (a - 1.0)),
        )

    def moment(self, n):
        """(a)_n / (c)_n, the product of (a + i)/(c + i) over i < n.

        Each factor lies in (0, 1), so the running product neither
        overflows nor underflows early, and n factors cost n roundings.
        """
        out = 1.0
        for i in range(n):
            out *= (self.a + i) / (self.c + i)
        return out

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
    """Density ``(-log t)**(alpha-1) / Gamma(alpha)`` on (0, 1), alpha > 0.

    The left endpoint is mapped out with t = exp(-v); the tail beyond
    v = 60 + 12*alpha carries less than 1e-16 of the mass and is dropped.
    """

    alpha: float
    weight: float = 1.0
    family = "loggamma"

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"log-power density needs alpha > 0, got {self.alpha!r}")

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inv_gamma = math.exp(-math.lgamma(self.alpha))
        with np.errstate(divide="ignore"):
            return inv_gamma * (-np.log(t)) ** (self.alpha - 1.0)

    def charts(self):
        """Charts t = exp(-v) below t = 1/2 and t = 1 - s**q above, q = ceil(3/alpha).

        v runs up to 60 + 12 alpha in panels of at most 2; q (at least 1)
        smooths the right endpoint.  Where x = s**q is below the smallest
        normal float, -log1p(-x) ~ x and the right weight is its limit
        inv_gamma q s**(q alpha - 1); the plain form would read 0 * inf there.
        """
        alpha = self.alpha
        inv_gamma = math.exp(-math.lgamma(alpha))
        q = max(1.0, math.ceil(3.0 / alpha))

        def right_weight(s):
            x = s**q
            tiny = x < np.finfo(float).tiny
            # 0.5 keeps log1p finite at the points where the plain value is discarded
            plain = inv_gamma * (-np.log1p(-np.where(tiny, 0.5, x))) ** (alpha - 1.0) * q * s ** (q - 1.0)
            return np.where(tiny, inv_gamma * q * s ** (q * alpha - 1.0), plain)

        return (
            Chart(-math.log(0.5), 60.0 + 12.0 * alpha, lambda v: np.exp(-v),
                  lambda v: 1.0 - np.exp(-v),
                  lambda v: inv_gamma * np.exp(-v) * v ** (alpha - 1.0), max_panel=2.0),
            Chart(0.0, 0.5 ** (1.0 / q), lambda s: 1.0 - s**q, lambda s: s**q, right_weight),
        )

    def moment(self, n):
        """(n + 1)**-alpha, exact to rounding."""
        return (n + 1.0) ** -self.alpha

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
    rebuilt from its own values equals it.
    """

    grid: tuple
    values: tuple
    weight: float
    family = "table"

    def __init__(self, grid, values, weight=1.0):
        g = tuple(float(x) for x in grid)
        v = tuple(float(x) for x in values)
        if len(g) != len(v) or len(g) < 2:
            raise ValueError("table density needs matching grids of length >= 2")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("table grid must be strictly increasing")
        if g[0] < 0.0 or g[-1] > 1.0:
            raise ValueError("table grid must lie inside [0, 1]")
        if any(x < 0.0 for x in v):
            raise ValueError("table values must be nonnegative")
        mass = sum(0.5 * (v[i] + v[i + 1]) * (g[i + 1] - g[i]) for i in range(len(g) - 1))
        if mass <= 0.0:
            raise ValueError("table density has zero mass")
        if not abs(mass - 1.0) <= _NORMALIZED_ULPS * len(g) * math.ulp(1.0):
            v = tuple(x / mass for x in v)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weight", float(weight))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.grid, self.values)
        return np.where((t < self.grid[0]) | (t > self.grid[-1]), 0.0, out)

    def charts(self):
        """One identity chart per segment of the grid, weighted by the interpolant."""
        weight = partial(np.interp, xp=self.grid, fp=self.values)
        return tuple(
            Chart(lo, hi, lambda s: s, _complement, weight) for lo, hi in zip(self.grid, self.grid[1:])
        )

    def moment(self, n):
        """The integral of t**n against the density: a power sum over its rule.

        The exact form, a sum of differences of powers of the grid points
        over the segments, cancels badly on short segments; the rule's panels
        grade toward both ends of each segment and resolve the peak at t = 1.
        """
        t, w = _density_rule(self)
        return float((t**n) @ w)

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
_FAMILIES = {"lebesgue": Lebesgue, "beta": Beta, "loggamma": LogGamma, "table": Table}


def _params(density_cls):
    return [f for f in fields(density_cls) if f.name != "weight"]


def _density(family, params, weight=1.0):
    """Density of the named family from a mapping holding its parameters.

    Parameters annotated ``float`` (a string here, as this module defers its
    annotations) are converted, so JSON integers give the same density as
    floats; ``Table`` converts its sequences itself.
    """
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
                ch.lo,
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
        """n-th power moment: exact atom sums plus each density family's ``moment(n)``.

        Lebesgue, beta and log-power densities have closed forms; a table
        sums t**n over its rule.  No family reads ``tol``, which must still
        be finite and nonnegative.
        """
        if n < 0 or n != int(n):
            raise ValueError(f"moment order must be a nonnegative integer, got {n!r}")
        _check_tol(tol)
        n = int(n)
        total = sum(a.w * a.t**n for a in self.atoms)
        return float(total + sum(d.weight * d.moment(n) for d in self.densities))

    @cached_property
    def _rule(self):
        """The fixed rule (t-nodes, weights) every sweep integrates with.

        Each density contributes :func:`_density_rule` at its weight, and
        atoms are appended as exact nodes.  Good to roughly 1e-12 for
        integrands smooth away from the endpoints; single-point evaluations
        with guaranteed tolerances go through :meth:`integrate` instead.
        """
        parts = [_density_rule(d, d.weight) for d in self.densities]
        parts += [(np.array([a.t]), np.array([a.w])) for a in self.atoms]
        ts, ws = zip(*parts)
        return np.concatenate(ts), np.concatenate(ws)

    def moments(self, count):
        """First ``count`` moments as an array: power sums over :attr:`_rule`, exact for atoms.

        This is the fast path behind series coefficients; :meth:`moment` gives the closed forms.
        """
        ns = np.arange(count)
        t, w = self._rule
        return (t[None, :] ** ns[:, None]) @ w

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

    def to_dict(self):
        return measure_to_dict(self)


def _density_rule(density, weight=1.0):
    """Graded composite rule (t-nodes, weights) over a density's charts, weights times ``weight``."""
    ts = []
    ws = []
    for ch in density.charts():
        s, w = composite_rule(graded_edges(ch.lo, ch.hi, levels=14, max_panel=ch.max_panel))
        ts.append(ch.to_t(s))
        ws.append(weight * w * ch.weight(s))
    return np.concatenate(ts), np.concatenate(ws)


# -- constructors -----------------------------------------------------------


def dirac(t):
    """Unit point mass at t."""
    return Measure(atoms=(Atom(float(t), 1.0),))


def lebesgue():
    return Measure(densities=(Lebesgue(),))


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


def load_measure(path):
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))
