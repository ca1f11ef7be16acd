"""Harmonic mappings ``f = h + c * conj(g)`` with transform-class parts.

Each part is a shifted Cauchy-Stieltjes transform or the Hadamard product
of one with a measure's generator (:class:`ConvolutionPart`), the
co-analytic one scaled by a real constant c in [0, 1).  This module
evaluates such maps, their dilatation ``c g'/h'`` and Jacobian, and issues
numerical quasiconformality certificates.

Every such part has h' free of zeros on the open unit disk.  Take |z| < 1
and alpha = arg(1 - z), so |alpha| < pi/2.  For t in [0, 1],
1 - t z = (1 - t) + t (1 - z) is a convex combination of 1 and 1 - z, so
its argument lies between 0 and alpha, and
Re(e^{i alpha} (1 - t z)**-2) >= cos(alpha) |1 - t z|**-2.  Integrating
against a probability measure (for a convolution, the law of s t, again on
[0, 1]) gives Re(e^{i alpha} h'(z)) >= cos(alpha) / (1 + |z|)**2, at least
0.0508 on |z| <= 0.98.  Each rule the sums take, fixed or Gauss, has
nonnegative weights and nodes in [0, 1], so the bound holds for the rule
sums too, up to their mass.

A grid certificate records a sup estimate over finitely many nodes of the
circle |z| = rmax, where the maximum modulus principle puts the sup over the
closed disk once h' is known to be zero-free there.  It is evidence, never a
proof: the nodes only sample the circle, and the supremum over the unit disk
need not be attained inside it.  Boundary-limit certificates instead check a
closed-form sufficient condition, with the boundary limits taken from the
measures' endpoint calculus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .measures import Measure, _pair_points, _route_levels, measure_from_dict, measure_to_dict, mix, same_exponent
from .transforms import CHECK_SLACK, GridSpec, ShiftedCauchyTransform, _check_slit, _rect_kernel_sums

__all__ = [
    "SingularDerivativeError",
    "ConvolutionPart",
    "HarmonicMap",
    "QCCertificate",
    "shifted",
    "map_from_dict",
    "map_to_dict",
    "certify_qc_grid",
    "radial_limit",
    "check_modulus_bound",
    "ModulusBoundReport",
    "check_partial_signs",
    "PartialSignReport",
    "convolve",
    "convex_combination",
    "make_convolution_map",
    "derivative_ratio_sup",
    "certify_qc_ratio_sup",
    "harnack_ratio_bound",
    "HarnackReport",
    "density_ratio_condition",
    "DensityRatioVerdict",
    "derivative_quotient",
    "certify_qc_boundary_limit",
]

SINGULAR_TOL = 1e-13
# Kernel scale sum |kern| |w| at or below which a partial-sign node is degenerate.
DEGENERATE_TOL = 1e-12
# Midpoint count of the density-pair sample both hypothesis checks read.
PAIR_MIDPOINTS = 1000


class SingularDerivativeError(ArithmeticError):
    """|h'(z)| fell below the singularity guard; the dilatation is meaningless."""


def shifted(mu):
    """Shifted transform ``z F(z)`` of a probability measure."""
    return ShiftedCauchyTransform.from_measure(mu)


def _check_parts(parts, kinds, what):
    """``TypeError`` naming the first of ``parts`` that is not one of ``kinds``."""
    for part in parts:
        if not isinstance(part, kinds):
            raise TypeError(f"this operation needs {what} parts, got {type(part).__name__}")


def _measures(*parts):
    """The representing measures of ``parts``; ``TypeError`` unless each is a shifted transform."""
    _check_parts(parts, ShiftedCauchyTransform, "measure-backed")
    return tuple(part.mu for part in parts)


def _real_c(c):
    """``c`` as a float; ``ValueError`` unless it is real and in [0, 1) (NaN is not)."""
    z = complex(c)
    if z.imag != 0.0 or not 0.0 <= z.real < 1.0:
        raise ValueError(f"c must be real in [0, 1), got {c!r}")
    return z.real


# -- the convolution part -------------------------------------------------------


@dataclass(frozen=True)
class ConvolutionPart:
    """Hadamard product of a shifted transform with a measure's generator.

    Evaluated through the identity that sends the product to an average of
    scaled copies: value(z) = integral of h(t z)/t d nu(t) with the t = 0
    integrand read as z, derivative = integral of h'(t z) d nu(t).  Its
    power-series coefficients m_n p_n are the moments of the law of s t
    (s ~ h's measure, t ~ nu), so it is exact on the slit plane.

    ``value``, ``deriv``, ``deriv2`` and calling the part evaluate the
    vectorized method on a one-point array.  ``tol`` is accepted for the
    signature :class:`ShiftedCauchyTransform` shares and is unused: this
    part has no adaptive route.
    """

    h: ShiftedCauchyTransform
    nu: Measure

    def __post_init__(self):
        _measures(self.h)
        if not self.nu.is_normalized:
            raise ValueError("convolution factor must be a probability measure")

    def _scaled_sums(self, sums, zs, t_power):
        """``sums(z t) @ (t**t_power w)`` at each point of ``zs``, (t, w) the rule ``nu._rule_for(zs)``.

        The s-integrand sums(s z) has its singularities at s = 1/(t z) for
        t in (0, 1], on the ray beyond the pole 1/z, so nu's rule is routed
        on the points themselves.  Works through blocks of 256 points, one
        row of scaled copies each.  The points are checked first, so an
        error names the point given rather than a scaled copy of it.
        """
        zs = np.asarray(zs, dtype=complex)
        flat = zs.ravel()
        _check_slit(flat)
        t, w = self.nu._rule_for(flat)
        weights = t**t_power * w
        out = np.empty(flat.shape, dtype=complex)
        for i in range(0, len(flat), 256):
            out[i : i + 256] = sums(np.outer(flat[i : i + 256], t)) @ weights
        return out.reshape(zs.shape)

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex)
        return zs * self._scaled_sums(self.h.base.values, zs, 0)

    def derivs(self, zs):
        return self._scaled_sums(self.h.derivs, zs, 0)

    def deriv2s(self, zs):
        return self._scaled_sums(self.h.deriv2s, zs, 1)

    def value(self, z, tol=None):
        return complex(self.values(np.array([complex(z)]))[0])

    __call__ = value

    def deriv(self, z, tol=None):
        return complex(self.derivs(np.array([complex(z)]))[0])

    def deriv2(self, z, tol=None):
        return complex(self.deriv2s(np.array([complex(z)]))[0])


# The two part classes of a map.
_PARTS = (ShiftedCauchyTransform, ConvolutionPart)


# -- the mapping --------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicMap:
    """Map ``f(z) = h(z) + c * conj(g(z))`` with c real in [0, 1).

    ``c`` is checked once, here, and held as a float: anything else
    (complex, negative, at least 1, or NaN) raises ``ValueError``.  Both
    parts must be transform-class (:class:`ShiftedCauchyTransform` or
    :class:`ConvolutionPart`); any other raises ``TypeError``.
    """

    h: object
    g: object
    c: float

    def __post_init__(self):
        _check_parts((self.h, self.g), _PARTS, "transform-class")
        object.__setattr__(self, "c", _real_c(self.c))

    def eval(self, z, tol=1e-10):
        z = complex(z)
        hv = self.h.value(z, tol=tol)
        gv = hv if self._shares_measure() else self.g.value(z, tol=tol)
        return hv + self.c * complex(gv).conjugate()

    __call__ = eval

    def _shares_measure(self):
        """Whether h and g are shifted transforms over equal measures.

        Equal measures build bitwise-equal rules and charts, so g's kernel
        sums and adaptive integrals are then h's, and every method of the
        map evaluates them once.  Only measure-backed parts are compared.
        """
        return (
            isinstance(self.h, ShiftedCauchyTransform)
            and isinstance(self.g, ShiftedCauchyTransform)
            and self.h.mu == self.g.mu
        )

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex)
        hv = self.h.values(zs)
        gv = hv if self._shares_measure() else self.g.values(zs)
        return hv + self.c * np.conj(gv)

    def dilatation(self, z, tol=1e-10):
        """Second complex dilatation ``c g'(z)/h'(z)``."""
        z = complex(z)
        hp = self.h.deriv(z, tol=tol)
        if abs(hp) < SINGULAR_TOL:
            raise SingularDerivativeError(f"|h'({z!r})| = {abs(hp):g} below guard")
        gp = hp if self._shares_measure() else self.g.deriv(z, tol=tol)
        return self.c * gp / hp

    def dilatation_values(self, zs):
        """Vectorized dilatation; returns (omega, singular_mask)."""
        zs = np.asarray(zs, dtype=complex)
        hp = self.h.derivs(zs)
        gp = hp if self._shares_measure() else self.g.derivs(zs)
        singular = np.abs(hp) < SINGULAR_TOL
        omega = np.full(zs.shape, np.nan + 0j, dtype=complex)
        ok = ~singular
        omega[ok] = self.c * gp[ok] / hp[ok]
        return omega, singular

    def jacobian(self, z, tol=1e-10):
        """|h'|^2 - c^2 |g'|^2; positive exactly where |dilatation| < 1."""
        z = complex(z)
        hp = self.h.deriv(z, tol=tol)
        gp = hp if self._shares_measure() else self.g.deriv(z, tol=tol)
        return abs(hp) ** 2 - self.c**2 * abs(gp) ** 2


def map_from_dict(spec):
    """Wire format {"h": <measure spec>, "g": <measure spec>, "c": real}."""
    if not isinstance(spec, dict) or not {"h", "g", "c"} <= set(spec):
        raise ValueError('map spec must carry "h", "g" and "c"')
    return HarmonicMap(
        shifted(measure_from_dict(spec["h"])),
        shifted(measure_from_dict(spec["g"])),
        float(spec["c"]),
    )


def map_to_dict(f):
    """The wire format of :func:`map_from_dict`; ``TypeError`` unless both parts are measure-backed."""
    mu, nu = _measures(f.h, f.g)
    return {"h": measure_to_dict(mu), "g": measure_to_dict(nu), "c": f.c}


# -- certificates --------------------------------------------------------------


@dataclass(frozen=True)
class QCCertificate:
    """Outcome of a quasiconformality check.

    ``method`` is one of grid, thm1.6, thm1.7i, thm1.7ii, thm1.9, hypergeom;
    ``status`` is certified, violated, or inconclusive.  Grid methods carry
    the sup estimate and the grid used.  Every sufficient condition here
    needs k < 1, and this is the one place that checks it: a ``bound_k``
    outside [0, 1), NaN included, raises ``ValueError``.
    """

    method: str
    bound_k: float
    status: str
    sup_estimate: float | None = None
    grid: GridSpec | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.bound_k < 1.0:
            raise ValueError(f"k must lie in [0, 1), got {self.bound_k!r}")

    @property
    def holds(self):
        return self.status == "certified"

    def to_dict(self):
        out = {"method": self.method, "status": self.status, "bound_k": self.bound_k}
        if self.sup_estimate is not None:
            out["sup_estimate"] = self.sup_estimate
        if self.grid is not None:
            out["grid"] = {
                "rmin": self.grid.rmin,
                "rmax": self.grid.rmax,
                "nr": self.grid.nr,
                "ntheta": self.grid.ntheta,
            }
        for key in sorted(self.details):
            out[key] = self.details[key]
        return out


def certify_qc_grid(f, k, grid=None):
    """Sup of |dilatation| over the disk |z| <= rmax, from its outer ring, against k < 1.

    The dilatation c g'/h' is analytic wherever h' does not vanish, so by
    the maximum modulus principle its sup over the closed disk lies on the
    circle |z| = rmax, and only that ring of the polar grid is evaluated,
    by :meth:`HarmonicMap.dilatation_values`.  Parts with real coefficients,
    as all parts here are, make |dilatation| even under conjugation, so
    only the ring nodes with theta in [0, pi] are (see
    ``GridSpec._upper_ring``); they are the outer row of
    ``grid.disk_points()`` bit for bit.  The certificate records the
    arg-sup, the first maximizing node of that half-ring in grid order.

    The principle needs h' free of zeros on the closed disk, and every
    transform-class part has that: with alpha = arg(1 - z),
    Re(e^{i alpha} h'(z)) >= cos(alpha) / (1 + |z|)**2 > 0 for |z| < 1,
    since each arg(1 - t z), t in [0, 1], lies between 0 and alpha (see the
    module docstring).  The status is certified or violated; the NaN of a
    singular node would be the sup, and violate.  A pass is
    grid evidence only, and says nothing about the boundary point z = 1.
    """
    grid = grid or GridSpec()
    zs = grid._upper_ring()
    mags = np.abs(f.dilatation_values(zs)[0])
    idx = int(np.argmax(mags))
    sup = float(mags[idx])
    at = zs[idx]
    status = "certified" if sup <= k else "violated"
    return QCCertificate(
        "grid",
        k,
        status,
        sup_estimate=sup,
        grid=grid,
        details={"argsup_re": float(at.real), "argsup_im": float(at.imag)},
    )


# -- pointwise modulus bound ---------------------------------------------------


@dataclass(frozen=True)
class ModulusBoundReport:
    """Sample check of |a + f(z)| >= a + f(-|z|) >= a + lim f(-r)."""

    passed: bool
    a: float
    limit: float
    n_samples: int
    min_margin_pointwise: float
    min_margin_limit: float
    slack: float

    def to_dict(self):
        return asdict(self)


def radial_limit(f):
    """lim of f(-r) as r -> 1-, finite for every map with measure-backed parts."""
    _measures(f.h, f.g)
    return -(f.h.base.real_part_floor() + f.c * f.g.base.real_part_floor())


def check_modulus_bound(f, a=None, samples=None):
    """Verify the radial lower bound for |a + f| on the given sample points.

    ``a`` defaults to the smallest nonnegative constant that keeps the
    boundary limit nonnegative; a given ``a`` must be finite and
    nonnegative.  The map must suit :func:`radial_limit`.  Both margins may
    dip to ``-CHECK_SLACK``.
    """
    limit = radial_limit(f)
    if a is None:
        a = max(0.0, -limit)
    if not math.isfinite(a):
        raise ValueError(f"the shift a must be finite, got {a!r}")
    if a < 0:
        raise ValueError("the shift a must be nonnegative")
    zs = np.asarray(samples if samples is not None else GridSpec().disk_points(), dtype=complex)
    vals = f.values(zs)
    # one radial value per distinct |z| (37 on the default polar grid, whose
    # 12 radii |r e^{i theta}| round to a few values each); the ravel keeps
    # the inverse 1-D, whose shape numpy 2.0 changed
    radii, inverse = np.unique(np.abs(zs).ravel(), return_inverse=True)
    radial = f.values(-radii).real[inverse].reshape(zs.shape)
    margin1 = np.abs(a + vals) - (a + radial)
    margin2 = radial - limit
    passed = bool(np.min(margin1) >= -CHECK_SLACK and np.min(margin2) >= -CHECK_SLACK)
    return ModulusBoundReport(
        passed=passed,
        a=float(a),
        limit=float(limit),
        n_samples=int(zs.size),
        min_margin_pointwise=float(np.min(margin1)),
        min_margin_limit=float(np.min(margin2)),
        slack=CHECK_SLACK,
    )


# -- half-plane partial-derivative signs ----------------------------------------


@dataclass(frozen=True)
class PartialSignReport:
    """Sign pattern of y * d/dy Re f (negative) and y * d/dx Im f (positive).

    Both quantities are integrals of the closed-form kernel
    ``2 y t (1 - x t) / (1 - 2 x t + t^2 |z|^2)^2`` against mu + c nu and
    mu - c nu respectively; the second needs the structural nonnegativity
    probe of mu - c nu to pass (``im_checked``).  ``passed`` counts
    violations only, so a failed probe does not fail the report.  Nodes
    where the kernel annihilates the measure are labeled degenerate rather
    than judged.  ``worst_re`` and ``worst_im`` are oriented so that
    anything above the slack counts as a violation.

    The counts cover the half-plane rectangle and its mirror image in the
    real axis: ``checked_nodes``, both violation counts and
    ``degenerate_nodes`` are twice the upper-half counts.  Both quantities
    are exactly even in y, so the mirror nodes are judged by that symmetry,
    not evaluated.  When mu equals nu both integrals run over one rule with
    weights (1 + c) w and (1 - c) w rather than two copies of it.
    """

    checked_nodes: int
    violations_re: int
    violations_im: int
    degenerate_nodes: int
    im_checked: bool
    im_skip_reason: str | None
    worst_re: float
    worst_im: float | None
    slack: float

    @property
    def passed(self):
        return self.violations_re == 0 and self.violations_im == 0

    def to_dict(self):
        return {"passed": self.passed, **asdict(self)}


def _signed_nonneg_probe(mu, nu, c):
    """Sufficient structural check that mu - c*nu is a nonnegative measure.

    At each location of nu's atoms, in listed order, their total weight n
    and mu's total there, m (both from ``Measure._point_masses``), must
    satisfy m - c n >= -CROSS_SLACK m; on the density-pair sample
    (``measures._pair_points``), which decides the named same-family
    pairs, phi - c psi >= -CROSS_SLACK phi must hold.  Failure
    does not prove the signed measure is negative somewhere; the check errs
    on the safe side.
    """
    if c == 0.0:
        return True, None
    for t, n in nu._point_masses.items():
        m = mu._point_masses.get(t, 0.0)
        if m - c * n < -CROSS_SLACK * m:
            return False, f"nu atoms at t={t!r} (weight {n!r}) not dominated in mu"
    if nu.densities:
        ts = _pair_points(mu, nu, PAIR_MIDPOINTS)
        phi = mu.pdf(ts)
        gap = phi - c * nu.pdf(ts)
        if np.any(gap < -CROSS_SLACK * phi):
            return False, f"density domination fails near t={float(ts[np.argmin(gap)])!r}"
    return True, None


def check_partial_signs(f, grid=None):
    """Evaluate both partial-sign integrals on the half-plane grid and its mirror.

    Only ``grid.rect_points()`` are evaluated.  Each kernel term is odd in
    y and y multiplies it again, so both quantities and the degeneracy
    scale are exactly even in y: every mirror node repeats the value of its
    image and is counted with it.  When mu equals nu (structurally, so two
    equal measures parsed apart count too) the rules merge into one with
    weights (1 + c) w and (1 - c) w.  The kernel is twice the power-2 one
    of ``transforms._rect_kernel_sums``, factored over the rectangle's axes,
    which also avoids the cancellation in 1 - 2 x t + t^2 |z|^2.  The
    rectangle is routed by columns: each run of adjacent columns whose
    points share a route level (``measures._route_levels``) takes the rule
    of that level from each measure (``Measure._rule_at``), in one kernel
    call.  On the default rectangle 97 columns take the 32-node rung and
    the 3 from x = 0.909 the 128-node Gauss rule.  The kernel sums of a
    column do not depend on the other columns of its call.  Nodes
    whose kernel scale is at most ``DEGENERATE_TOL`` are degenerate, and
    each sign may miss by ``CHECK_SLACK``.
    """
    c = f.c
    mu, nu = _measures(f.h, f.g)
    shared = mu == nu
    grid = grid or GridSpec()
    x, y = grid._rect_axes()

    levels = _route_levels(grid.rect_points()).reshape(len(x), len(y)).max(axis=1)
    cuts = [0, *(np.flatnonzero(np.diff(levels)) + 1), len(x)]
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        t, w_mu = mu._rule_at(levels[lo])
        if shared:
            w_plus = (1.0 + c) * w_mu
            w_minus = (1.0 - c) * w_mu
        else:
            t_nu, w_nu = nu._rule_at(levels[lo])
            t = np.concatenate([t, t_nu])
            w_plus = np.concatenate([w_mu, c * w_nu])
            w_minus = np.concatenate([w_mu, -c * w_nu])
        weights = np.stack([w_plus, w_minus], axis=1)
        blocks.append(_rect_kernel_sums(x[lo:hi], y, t, weights, 2))

    probe_ok, reason = _signed_nonneg_probe(mu, nu, c)

    # For y > 0, x < 1 and t in [0, 1] the kernel is nonnegative, and so is
    # every weight of w+ (rule and atom weights, c >= 0), so the degeneracy
    # scale sum |kern| |w+| is the w+ column itself.
    sums = np.concatenate(blocks).reshape(-1, 2)
    sums *= 2.0
    deg = sums[:, 0] <= DEGENERATE_TOL
    live = ~deg
    y_live = np.tile(y, len(x))[live]
    q_re = -(y_live * sums[live, 0])
    q_im = y_live * sums[live, 1]

    worst_re = float(np.max(q_re)) if q_re.size else -math.inf
    worst_im = None
    viol_im = 0
    if probe_ok:
        worst_im = -float(np.min(q_im)) if q_im.size else -math.inf
        viol_im = 2 * int(np.sum(q_im < -CHECK_SLACK))
    return PartialSignReport(
        checked_nodes=2 * len(x) * len(y),
        violations_re=2 * int(np.sum(q_re > CHECK_SLACK)),
        violations_im=viol_im,
        degenerate_nodes=2 * int(deg.sum()),
        im_checked=probe_ok,
        im_skip_reason=None if probe_ok else reason,
        worst_re=worst_re,
        worst_im=worst_im,
        slack=CHECK_SLACK,
    )


# -- algebra --------------------------------------------------------------------


def convolve(f1, f2):
    """Partwise Hadamard product of two maps with measure-backed parts.

    Each part of the result is a :class:`ConvolutionPart` of ``f1``'s part
    with the measure of ``f2``'s, exact on the slit plane; the co-analytic
    constants multiply, and their product stays in [0, 1).
    """
    _, _, mu2, nu2 = _measures(f1.h, f1.g, f2.h, f2.g)
    return HarmonicMap(ConvolutionPart(f1.h, mu2), ConvolutionPart(f1.g, nu2), f1.c * f2.c)


def convex_combination(f1, f2, s):
    """Mix two maps with the same c by mixing their representing measures."""
    if f1.c != f2.c:
        raise ValueError(f"c mismatch: {f1.c!r} vs {f2.c!r}")
    mu1, nu1, mu2, nu2 = _measures(f1.h, f1.g, f2.h, f2.g)
    return HarmonicMap(shifted(mix(mu1, mu2, s)), shifted(mix(nu1, nu2, s)), f1.c)


def make_convolution_map(h, nu, c):
    """Map whose co-analytic part is the Hadamard product of h with nu's generator."""
    return HarmonicMap(h, ConvolutionPart(h, nu), c)


# -- derivative-ratio machinery ---------------------------------------------------


def _ratio_sup(h, zs, hp, ts):
    """Sup of |h'(t z)| / |h'(z)| over the nodes zs and samples ts.

    ``ts`` runs from 0 to 1.  At t = 1 the ratio is exactly 1, so only the
    other samples need kernel sums, all in one call: the points t z route
    together, and on the default ring (|t z| <= 0.882) they take the
    32-node rung.
    """
    ratios = np.abs(h.derivs(np.outer(ts[:-1], zs))) / np.abs(hp)
    return max(1.0, float(np.max(ratios)))


def derivative_ratio_sup(h, grid=None, nt=11):
    """Numerical sup of |h'(t z)/h'(z)| over the disk |z| <= rmax times t in [0, 1].

    ``nt >= 2`` samples of t include both ends.  ``h`` must be a
    transform-class part (``TypeError`` otherwise), so h' has no zero on
    the disk: Re(e^{i alpha} h'(z)) >= cos(alpha) / (1 + |z|)**2 with
    alpha = arg(1 - z) (see the module docstring).  For each t the ratio is
    then analytic in z, so its sup over the disk lies on the circle
    |z| = rmax (maximum modulus principle) and only the outer ring is
    evaluated; h has real coefficients, so the ratio is even under
    conjugation and only the ring nodes with theta in [0, pi] are.
    """
    _check_parts((h,), _PARTS, "transform-class")
    if nt < 2:
        raise ValueError(f"nt must be at least 2 so that t = 0 and t = 1 are sampled, got {nt!r}")
    grid = grid or GridSpec()
    zs = grid._upper_ring()
    return _ratio_sup(h, zs, h.derivs(zs), grid.t_samples(nt))


def certify_qc_ratio_sup(f, k, grid=None):
    """Theorem 1.6 certificate: c * sup |h'(tz)/h'(z)| against k < 1.

    ``f.g`` is read as the convolution factor of h + c conj(h * g) and
    does not enter the bound.  The sup is the grid estimate of
    :func:`derivative_ratio_sup` on ``grid``, so a pass is grid evidence
    only; the certificate records the grid, ``ratio_sup`` and ``c``.
    """
    grid = grid or GridSpec()
    c = f.c
    ratio_sup = derivative_ratio_sup(f.h, grid=grid)
    bound = c * ratio_sup
    return QCCertificate(
        "thm1.6",
        k,
        "certified" if bound <= k else "violated",
        sup_estimate=bound,
        grid=grid,
        details={"ratio_sup": ratio_sup, "c": c},
    )


@dataclass(frozen=True)
class HarnackReport:
    """Log-derivative floor check: Re[z h''/h'] > -m forces |h'(tz)/h'(z)| <= e^{2m}."""

    hypothesis_holds: bool
    m: float
    bound: float | None
    min_re_observed: float
    ratio_sup: float | None
    ratio_within_bound: bool | None
    slack: float

    def to_dict(self):
        return asdict(self)


def harnack_ratio_bound(h, m, grid=None):
    """Check the floor Re[z h''/h'] > -m on |z| <= rmax and verify the implied ratio bound.

    ``h`` must be a transform-class part (``TypeError`` otherwise), so h'
    has no zero on the disk: Re(e^{i alpha} h'(z)) >= cos(alpha) / (1 + |z|)**2
    with alpha = arg(1 - z) (see the module docstring).  Re[z h''/h'] is
    then harmonic there, so its floor over the disk lies on the circle
    |z| = rmax (minimum principle).  Both sweeps take the outer-ring nodes
    with theta in [0, pi] only (see :func:`derivative_ratio_sup`) and share
    one evaluation of h' there.  Both comparisons allow ``CHECK_SLACK``.
    """
    _check_parts((h,), _PARTS, "transform-class")
    if not m > 0.0:
        raise ValueError("m must be positive")
    grid = grid or GridSpec()
    zs = grid._upper_ring()
    hp = h.derivs(zs)
    quant = (zs * h.deriv2s(zs) / hp).real
    min_re = float(np.min(quant))
    holds = min_re > -m - CHECK_SLACK
    bound = ratio_sup = within = None
    if holds:
        bound = math.exp(2.0 * m)
        ratio_sup = _ratio_sup(h, zs, hp, grid.t_samples())
        within = bool(ratio_sup <= bound + CHECK_SLACK)
    return HarnackReport(
        hypothesis_holds=bool(holds),
        m=float(m),
        bound=bound,
        min_re_observed=min_re,
        ratio_sup=ratio_sup,
        ratio_within_bound=within,
        slack=CHECK_SLACK,
    )


# -- density comparison and the boundary-limit certificate -------------------------


# Rounding allowance, relative, for both density comparisons and for F(1-) >= 1.
CROSS_SLACK = 1e-12


@dataclass(frozen=True)
class DensityRatioVerdict:
    """Cross inequality phi(s) psi(t) >= phi(t) psi(s) on all sampled s <= t.

    ``max_violation`` is the largest relative shortfall 1 - r(t) / r(s) of
    r = psi/phi below its running max r(s), s < t (1 when r falls from
    +inf); ``worst_s``, ``worst_t`` locate it when the inequality fails
    (None when it holds).  ``n_samples`` counts the points scanned.
    """

    holds: bool
    max_violation: float
    worst_s: float | None
    worst_t: float | None
    n_samples: int

    def to_dict(self):
        return asdict(self)


def derivative_quotient(h, g):
    """Vectorized callable g'/h' for membership probing (value 1 at 0)."""

    def fn(zs):
        zs = np.asarray(zs, dtype=complex)
        return g.derivs(zs) / h.derivs(zs)

    return fn


def quotient(h, g):
    """Vectorized callable g/h, evaluated as a ratio of unshifted transforms."""

    def fn(zs):
        zs = np.asarray(zs, dtype=complex)
        return g.base.values(zs) / h.base.values(zs)

    return fn


def density_ratio_condition(phi, psi, n=PAIR_MIDPOINTS):
    """Check that psi/phi is nondecreasing on the density-pair sample with n midpoints.

    ``phi`` and ``psi`` are measures without atoms (``ValueError``
    otherwise); phi plays the h role and psi the g role.  On ``measures._pair_points``,
    less the points where both densities vanish, r = psi/phi (+inf where
    only phi vanishes) fails where it falls below the largest r before it
    by more than CROSS_SLACK, relative: the cross inequality on every pair
    of sample points, in one pass.  The sample decides the named
    same-family pairs; for other pairs a pass is evidence only.
    """
    if phi.atoms or psi.atoms:
        raise ValueError("density comparison needs purely absolutely continuous measures")
    ts = _pair_points(phi, psi, n)
    p = phi.pdf(ts)
    q = psi.pdf(ts)
    live = (p > 0.0) | (q > 0.0)
    ts, p, q = ts[live], p[live], q[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = q / p
        prior = np.maximum.accumulate(np.concatenate([[0.0], r[:-1]]))
        shortfall = np.where(r < prior, 1.0 - r / prior, 0.0)
    max_violation = float(np.max(shortfall, initial=0.0))
    holds = max_violation <= CROSS_SLACK
    worst = None if holds else int(np.argmax(shortfall))
    return DensityRatioVerdict(
        holds=holds,
        max_violation=max_violation,
        worst_s=None if holds else float(ts[np.argmax(r[:worst])]),
        worst_t=None if holds else float(ts[worst]),
        n_samples=int(ts.size),
    )


def _derivative_quotient_limit(h_mu, g_mu):
    """lim of g'/h' at 1- for the shifted transforms of h_mu and g_mu, its route, its inputs.

    h'(1-) and g'(1-) are the endpoint moments ``integral of (1 - t)**-2``.
    When both diverge, the parts' densities behave like kappa (1 - t)**(beta - 1)
    at t = 1 with beta <= 2, and both derivatives grow like kappa times the
    same function of 1 - x for equal beta (Abelian asymptotics of a Stieltjes
    transform, Widder, The Laplace Transform, 1941, ch. VIII), so the limit
    is kappa_g/kappa_h; for unequal beta the smaller one dominates.  Betas
    equal up to rounding (``same_exponent``) count as equal: beta(0.9, 1.9)
    has the computed exponent 0.9999999999999999 and the uniform beta(1, 2)
    has 1.
    """
    g_lim = g_mu.endpoint_moment(2)
    h_lim = h_mu.endpoint_moment(2)
    details = {"g_deriv_limit": g_lim, "h_deriv_limit": h_lim}
    if math.isfinite(h_lim):
        # h'(1-) >= h'(0) = 1; the quotient is +inf when g'(1-) is
        return g_lim / h_lim, ("direct" if math.isfinite(g_lim) else "divergent"), details
    if math.isfinite(g_lim):
        return 0.0, "vanishing", details
    beta_g, kappa_g = g_mu.endpoint_exponent()
    beta_h, kappa_h = h_mu.endpoint_exponent()
    details.update(g_exponent=beta_g, h_exponent=beta_h, g_coefficient=kappa_g, h_coefficient=kappa_h)
    if same_exponent(beta_g, beta_h):
        f_limit = kappa_g / kappa_h
    else:
        f_limit = 0.0 if beta_g > beta_h else math.inf
    return f_limit, "endpoint exponents", details


def certify_qc_boundary_limit(h, g, c, k):
    """Certificate from the boundary limit of F = g'/h'.

    Requires the cross inequality for the representing densities; then the
    sup of the dilatation modulus is c * F(1-), taken from the exact
    derivative limits h'(1-) and g'(1-), or from the densities' endpoint
    exponents when both are infinite (see ``_derivative_quotient_limit``).
    c * F(1-) <= k certifies, anything above it, +inf included, is a
    violation.  ``details`` names the route taken and carries both
    derivative limits, and the exponents and coefficients when used.

    ``density_ratio_condition`` decides the cross inequality for the named
    same-family pairs and samples it for the others, and the limit gives
    one free check on it: the kernel (1 - t x)**-2 is TP2, so under the
    cross inequality F rises on [0, 1) from F(0) = 1 (Karlin, Total
    Positivity, 1968).  F(1-) below 1 by more than CROSS_SLACK refutes it,
    and the certificate is then inconclusive.
    """
    c = _real_c(c)
    mu, nu = _measures(h, g)
    ratio = density_ratio_condition(mu, nu)
    if not ratio.holds:
        return QCCertificate(
            "thm1.9",
            k,
            "inconclusive",
            details={
                "reason": "density cross inequality failed",
                "max_violation": ratio.max_violation,
            },
        )

    f_limit, path, details = _derivative_quotient_limit(mu, nu)
    details = {"f_limit": float(f_limit), "path": path, **details}
    if f_limit < 1.0 - CROSS_SLACK:
        reason = "boundary limit below 1 contradicts the cross inequality"
        return QCCertificate("thm1.9", k, "inconclusive", details={"reason": reason, **details})
    sup_bound = c * f_limit if c > 0.0 else 0.0  # no 0 * inf
    status = "certified" if sup_bound <= k else "violated"
    return QCCertificate(
        "thm1.9",
        k,
        status,
        sup_estimate=float(sup_bound),
        details=details,
    )
