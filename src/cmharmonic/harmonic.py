"""Harmonic mappings ``f = h + c * conj(g)`` with transform-class parts.

The analytic and co-analytic parts are shifted Cauchy-Stieltjes transforms
(or series/convolution stand-ins carrying the same evaluation surface), the
co-analytic one scaled by a constant of modulus below one.  This module
evaluates such maps, their dilatation ``c g'/h'`` and Jacobian, and issues
numerical quasiconformality certificates.

A grid certificate records a sup estimate over finitely many nodes of the
circle |z| = rmax, where the maximum modulus principle puts the sup over the
closed disk once h' is known to be zero-free there.  It is evidence, never a
proof: the nodes only sample the circle, and the supremum over the unit disk
need not be attained inside it.  Boundary-limit certificates instead check a
closed-form sufficient condition, with the boundary limits taken from the
measures' endpoint calculus.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .measures import Measure, measure_from_dict, measure_to_dict, mix, same_exponent
from .transforms import CHECK_SLACK, GridSpec, ShiftedCauchyTransform, _check_slit, _rect_kernel_sums

__all__ = [
    "SingularDerivativeError",
    "SeriesPart",
    "ConvolutionPart",
    "HarmonicMap",
    "QCCertificate",
    "shifted",
    "map_from_dict",
    "map_to_dict",
    "load_map",
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
# Interior sample size of the density domination in the signed-measure probe.
PROBE_SAMPLES = 1000


class SingularDerivativeError(ArithmeticError):
    """|h'(z)| fell below the singularity guard; the dilatation is meaningless."""


def shifted(mu):
    """Shifted transform ``z F(z)`` of a probability measure."""
    return ShiftedCauchyTransform.from_measure(mu)


# -- alternative part representations ----------------------------------------


class _VectorPart:
    """Scalar evaluation derived from a part's vectorized methods.

    A part defines ``values``, ``derivs`` and ``deriv2s`` on arrays of
    points and ``coeffs(count)``; ``value``, ``deriv``, ``deriv2`` and
    calling the part evaluate the vectorized method on a one-point array.
    ``tol`` is accepted for the signature the adaptive parts share and is
    unused: these parts have no adaptive route.
    """

    def value(self, z, tol=None):
        return complex(self.values(np.array([complex(z)]))[0])

    __call__ = value

    def deriv(self, z, tol=None):
        return complex(self.derivs(np.array([complex(z)]))[0])

    def deriv2(self, z, tol=None):
        return complex(self.deriv2s(np.array([complex(z)]))[0])


@dataclass(frozen=True, init=False)
class SeriesPart(_VectorPart):
    """Truncated power series ``sum coefs[n] z**(n+1)``, usable for |z| <= radius.

    Convolution results carry coefficients instead of measures; nothing
    beyond the stored order is known, so requesting more coefficients than
    stored is an error rather than a silent zero-fill.
    """

    coefs: tuple
    radius: float

    def __init__(self, coefs, radius=0.95):
        coefs = tuple(float(c) for c in coefs)
        if not coefs:
            raise ValueError("series part needs at least one coefficient")
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "radius", float(radius))

    def _polyval(self, zs, coefs):
        """``sum coefs[n] z**n`` at each point of ``zs``, inside the radius only."""
        zs = np.asarray(zs, dtype=complex)
        if not np.all(np.abs(zs) <= self.radius + 1e-15):
            raise ValueError(f"series part only evaluable on |z| <= {self.radius}")
        return np.polynomial.polynomial.polyval(zs, np.asarray(coefs))

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex)
        return zs * self._polyval(zs, self.coefs)

    def derivs(self, zs):
        return self._polyval(zs, [(n + 1) * c for n, c in enumerate(self.coefs)])

    def deriv2s(self, zs):
        return self._polyval(zs, [(n + 1) * n * c for n, c in enumerate(self.coefs)][1:] or [0.0])

    def coeffs(self, count):
        if count > len(self.coefs):
            raise ValueError(
                f"only {len(self.coefs)} coefficients stored, {count} requested"
            )
        return np.asarray(self.coefs[:count])


@dataclass(frozen=True)
class ConvolutionPart(_VectorPart):
    """Hadamard product of a shifted transform with a measure's generator.

    Evaluated through the identity that sends the product to an average of
    scaled copies: value(z) = integral of h(t z)/t d nu(t) with the t = 0
    integrand read as z, derivative = integral of h'(t z) d nu(t).
    """

    h: ShiftedCauchyTransform
    nu: Measure

    def __post_init__(self):
        if not isinstance(self.h, ShiftedCauchyTransform):
            raise TypeError("convolution part needs a measure-backed analytic part")
        if abs(self.nu.mass - 1.0) > 1e-10:
            raise ValueError("convolution factor must be a probability measure")

    def _scaled_sums(self, sums, zs, weights):
        """``sums(z t) @ weights`` at each point of ``zs``, t the nodes of nu's rule.

        Works through blocks of 256 points, one row of scaled copies each.
        The points themselves are checked first, so an error names the
        point given rather than a scaled copy of it.
        """
        zs = np.asarray(zs, dtype=complex)
        t = self.nu._rule[0]
        flat = zs.ravel()
        _check_slit(flat)
        out = np.empty(flat.shape, dtype=complex)
        for i in range(0, len(flat), 256):
            out[i : i + 256] = sums(np.outer(flat[i : i + 256], t)) @ weights
        return out.reshape(zs.shape)

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex)
        return zs * self._scaled_sums(self.h.base.values, zs, self.nu._rule[1])

    def derivs(self, zs):
        return self._scaled_sums(self.h.derivs, zs, self.nu._rule[1])

    def deriv2s(self, zs):
        t, w = self.nu._rule
        return self._scaled_sums(self.h.deriv2s, zs, t * w)

    def coeffs(self, count):
        return self.h.coeffs(count) * self.nu.moments(count)


# -- the mapping --------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicMap:
    """Map ``f(z) = h(z) + c * conj(g(z))`` with |c| < 1.

    Complex ``c`` is accepted for the convolution algebra; the geometric
    checks and certificates require real ``c`` in [0, 1).
    """

    h: object
    g: object
    c: complex

    def __post_init__(self):
        if not abs(self.c) < 1.0:
            raise ValueError(f"|c| must be below 1, got {self.c!r}")

    @property
    def real_c(self):
        c = complex(self.c)
        if c.imag != 0.0 or not 0.0 <= c.real < 1.0:
            raise ValueError(f"this operation needs real c in [0, 1), got {self.c!r}")
        return c.real

    def eval(self, z, tol=1e-10):
        z = complex(z)
        return self.h.value(z, tol=tol) + self.c * complex(self.g.value(z, tol=tol)).conjugate()

    __call__ = eval

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex)
        return self.h.values(zs) + self.c * np.conj(self.g.values(zs))

    def dilatation(self, z, tol=1e-10):
        """Second complex dilatation ``c g'(z)/h'(z)``."""
        z = complex(z)
        hp = self.h.deriv(z, tol=tol)
        if abs(hp) < SINGULAR_TOL:
            raise SingularDerivativeError(f"|h'({z!r})| = {abs(hp):g} below guard")
        return self.c * self.g.deriv(z, tol=tol) / hp

    def dilatation_values(self, zs):
        """Vectorized dilatation; returns (omega, singular_mask)."""
        zs = np.asarray(zs, dtype=complex)
        hp = self.h.derivs(zs)
        gp = self.g.derivs(zs)
        singular = np.abs(hp) < SINGULAR_TOL
        omega = np.full(zs.shape, np.nan + 0j, dtype=complex)
        ok = ~singular
        omega[ok] = self.c * gp[ok] / hp[ok]
        return omega, singular

    def jacobian(self, z, tol=1e-10):
        """|h'|^2 - |c|^2 |g'|^2; positive exactly where |dilatation| < 1."""
        z = complex(z)
        hp = self.h.deriv(z, tol=tol)
        gp = self.g.deriv(z, tol=tol)
        return abs(hp) ** 2 - abs(self.c) ** 2 * abs(gp) ** 2


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
    return {
        "h": measure_to_dict(f.h.mu),
        "g": measure_to_dict(f.g.mu),
        "c": complex(f.c).real if complex(f.c).imag == 0.0 else complex(f.c),
    }


def load_map(path):
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_dict(json.load(fh))


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
    circle |z| = rmax, and only that ring of the polar grid is evaluated.
    Parts with real coefficients, as all parts here are, make |dilatation|
    even under conjugation, so only the ring nodes with theta in [0, pi]
    are (see ``GridSpec._upper_ring``); they are the outer row of
    ``grid.disk_points()`` bit for bit.  The certificate records the
    arg-sup, the first maximizing node of that half-ring in grid order.

    The principle needs h' free of zeros on the closed disk.  The status
    is inconclusive when |h'| < SINGULAR_TOL at a ring node
    (``singular_nodes`` counts the ring nodes, with conjugates) or when
    h' winds around 0 along the ring (``zeros_inside``, see
    ``_zeros_inside``).  A pass is grid evidence only, and says nothing
    about the boundary point z = 1.
    """
    grid = grid or GridSpec()
    zs, hp, spoiled = _ring_derivs(f.h, grid)
    if spoiled:
        return QCCertificate("grid", k, "inconclusive", grid=grid, details=spoiled)
    mags = np.abs(f.c * f.g.derivs(zs) / hp)
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
        details={
            "argsup_re": float(at.real),
            "argsup_im": float(at.imag),
            "singular_nodes": 0,
        },
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
    """lim of f(-r) as r -> 1-, finite for every map of this class."""
    c = f.real_c
    return -(f.h.base.real_part_floor() + c * f.g.base.real_part_floor())


def check_modulus_bound(f, a=None, samples=None):
    """Verify the radial lower bound for |a + f| on the given sample points.

    ``a`` defaults to the smallest nonnegative constant that keeps the
    boundary limit nonnegative.  Needs real c in [0, 1) and measure-backed
    parts (the limit is a closed-form integral against each measure).  Both
    margins may dip to ``-CHECK_SLACK``.
    """
    c = f.real_c
    if not isinstance(f.h, ShiftedCauchyTransform) or not isinstance(f.g, ShiftedCauchyTransform):
        raise TypeError("modulus bound needs measure-backed parts")
    limit = radial_limit(f)
    if a is None:
        a = max(0.0, -limit)
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
    probe of mu - c nu to pass.  Nodes where the kernel annihilates the
    measure are labeled degenerate rather than judged.  ``worst_re`` and
    ``worst_im`` are oriented so that anything above the slack counts as a
    violation.

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

    Every nu atom must be matched at the same location by a mu atom of
    weight at least c times as large, and the densities must dominate
    pointwise on the ``PROBE_SAMPLES`` midpoints (i + 1/2)/``PROBE_SAMPLES``.
    Failure does not prove the signed measure is negative somewhere; the
    check errs on the safe side.
    """
    if c == 0.0:
        return True, None
    for a in nu.atoms:
        match = sum(b.w for b in mu.atoms if b.t == a.t)
        if match < c * a.w - 1e-15:
            return False, f"nu atom at t={a.t:g} (weight {a.w:g}) not dominated in mu"
    if nu.densities:
        ts = (np.arange(PROBE_SAMPLES) + 0.5) / PROBE_SAMPLES
        gap = mu.pdf(ts) - c * nu.pdf(ts)
        if np.min(gap) < -1e-12:
            t_bad = float(ts[int(np.argmin(gap))])
            return False, f"density domination fails near t={t_bad:g}"
    return True, None


def _sign_kernel_sums(x, y, t, weights):
    """``kern @ weights`` on the tensor grid x + i y, in ``rect_points`` order.

    ``kern = 2 y t a / (a^2 + (y t)^2)^2`` with ``a = 1 - x t``, the
    factored form of ``2 y t (1 - x t) / (1 - 2 x t + t^2 |z|^2)^2``:
    ``2 y`` times the power-2 kernel of ``transforms._rect_kernel_sums``.
    """
    out = _rect_kernel_sums(x, y, t, weights, 2)
    out *= 2.0 * y[:, None]
    return out.reshape(len(x) * len(y), weights.shape[1])


def check_partial_signs(f, grid=None, slack=CHECK_SLACK):
    """Evaluate both partial-sign integrals on the half-plane grid and its mirror.

    Only ``grid.rect_points()`` are evaluated.  Each kernel term is odd in
    y and y multiplies it again, so both quantities and the degeneracy
    scale are exactly even in y: every mirror node repeats the value of its
    image and is counted with it.  When mu equals nu (structurally, so two
    equal measures parsed apart count too) the rules merge into one with
    weights (1 + c) w and (1 - c) w.  The kernel is taken in its factored
    form over the rectangle's x and y axes (see ``_sign_kernel_sums``),
    which also avoids the cancellation in 1 - 2 x t + t^2 |z|^2.  Nodes
    whose kernel scale is at most ``DEGENERATE_TOL`` are degenerate.
    """
    c = f.real_c
    if not isinstance(f.h, ShiftedCauchyTransform) or not isinstance(f.g, ShiftedCauchyTransform):
        raise TypeError("partial-sign check needs measure-backed parts")
    mu = f.h.mu
    nu = f.g.mu
    grid = grid or GridSpec()
    x, y = grid._rect_axes()

    t, w_mu = mu._rule
    if mu == nu:
        w_plus = (1.0 + c) * w_mu
        w_minus = (1.0 - c) * w_mu
    else:
        t_nu, w_nu = nu._rule
        t = np.concatenate([t, t_nu])
        w_plus = np.concatenate([w_mu, c * w_nu])
        w_minus = np.concatenate([w_mu, -c * w_nu])

    probe_ok, reason = _signed_nonneg_probe(mu, nu, c)

    # For y > 0, x < 1 and t in [0, 1] the kernel is nonnegative, so the
    # degeneracy scale sum |kern| |w+| is one more column of the same sums.
    sums = _sign_kernel_sums(x, y, t, np.stack([np.abs(w_plus), w_plus, w_minus], axis=1))
    deg = sums[:, 0] <= DEGENERATE_TOL
    live = ~deg
    y_live = np.tile(y, len(x))[live]
    q_re = -(y_live * sums[live, 1])
    q_im = y_live * sums[live, 2]

    worst_re = float(np.max(q_re)) if q_re.size else -math.inf
    worst_im = None
    viol_im = 0
    if probe_ok:
        worst_im = -float(np.min(q_im)) if q_im.size else -math.inf
        viol_im = 2 * int(np.sum(q_im < -slack))
    return PartialSignReport(
        checked_nodes=2 * len(x) * len(y),
        violations_re=2 * int(np.sum(q_re > slack)),
        violations_im=viol_im,
        degenerate_nodes=2 * int(deg.sum()),
        im_checked=probe_ok,
        im_skip_reason=None if probe_ok else reason,
        worst_re=worst_re,
        worst_im=worst_im,
        slack=slack,
    )


# -- algebra --------------------------------------------------------------------


def convolve(f1, f2, order=64):
    """Partwise Hadamard product; the result carries truncated coefficients.

    Coefficient prefixes are exact for atomic measures.  The returned map
    evaluates as a series on |z| <= 0.95 only; the co-analytic constant
    multiplies.
    """
    a = np.asarray(f1.h.coeffs(order)) * np.asarray(f2.h.coeffs(order))
    b = np.asarray(f1.g.coeffs(order)) * np.asarray(f2.g.coeffs(order))
    return HarmonicMap(SeriesPart(tuple(a)), SeriesPart(tuple(b)), complex(f1.c) * complex(f2.c))


def convex_combination(f1, f2, s):
    """Mix two maps with the same c by mixing their representing measures."""
    if complex(f1.c) != complex(f2.c):
        raise ValueError(f"c mismatch: {f1.c!r} vs {f2.c!r}")
    if not isinstance(f1.h, ShiftedCauchyTransform) or not isinstance(f2.h, ShiftedCauchyTransform):
        raise TypeError("convex combination needs measure-backed parts")
    return HarmonicMap(
        shifted(mix(f1.h.mu, f2.h.mu, s)),
        shifted(mix(f1.g.mu, f2.g.mu, s)),
        f1.c,
    )


def make_convolution_map(h, nu, c):
    """Map whose co-analytic part is the Hadamard product of h with nu's generator."""
    if not 0.0 <= float(c) < 1.0:
        raise ValueError(f"c must be real in [0, 1), got {c!r}")
    return HarmonicMap(h, ConvolutionPart(h, nu), float(c))


# -- derivative-ratio machinery ---------------------------------------------------


# Bisection levels for a phase step of h' along the ring: the default ring's
# steps of 2 pi / 64 shrink to about 1e-10 radians.
WINDING_DEPTH = 30


def _zeros_inside(h, grid, hp):
    """Zeros of h' in |z| < rmax by the argument principle, from h' on the upper ring.

    ``hp`` is h' at the nodes of ``grid._upper_ring()``.  h has real
    coefficients, so the phase change of h' along the lower half of the
    ring repeats the one along the upper half, and the winding number is
    the upper half's phase change from theta = 0 to pi, over pi.  That is
    the sum of the phase steps between neighbouring nodes (z = -rmax closes
    the arc when ntheta is odd).  A step wider than pi/2 is bisected at its
    midpoint on the ring, for at most ``WINDING_DEPTH`` levels; a step still
    wider there, or a midpoint where |h'| < SINGULAR_TOL, is a zero on the
    ring as far as the check can tell, and the count is then at least 1.
    Like any sampled argument principle it reads a step that turns by
    3 pi / 2 or more as its wrapped value; one zero turns a step by less
    than pi + 2 pi / ntheta, so that takes several zeros near one step.
    """
    theta = 2.0 * np.pi * np.arange(len(hp)) / grid.ntheta
    if grid.ntheta % 2:
        theta = np.append(theta, np.pi)
        hp = np.append(hp, h.derivs(np.array([-grid.rmax + 0j])))
    ta, tb, va, vb = theta[:-1], theta[1:], hp[:-1], hp[1:]
    phase = 0.0
    for _ in range(WINDING_DEPTH):
        step = np.angle(vb * np.conj(va))
        wide = np.abs(step) > np.pi / 2
        phase += float(np.sum(step[~wide]))
        if not wide.any():
            return abs(round(phase / np.pi))
        ta, tb, va, vb = ta[wide], tb[wide], va[wide], vb[wide]
        tm = 0.5 * (ta + tb)
        vm = h.derivs(grid.rmax * np.exp(1j * tm))
        if np.any(np.abs(vm) < SINGULAR_TOL):
            break
        ta, tb = np.concatenate([ta, tm]), np.concatenate([tm, tb])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
    # both ends of the arc are real, so the wrapped steps still sum to a multiple of pi
    phase += float(np.sum(np.angle(vb * np.conj(va))))
    return max(1, abs(round(phase / np.pi)))


def _ring_derivs(h, grid):
    """Nodes of ``grid._upper_ring()``, h' there, and what keeps h' from being zero-free.

    The last is empty when h' has no zero on |z| <= rmax.  Otherwise it is
    ``{"singular_nodes": n}`` when |h'| < SINGULAR_TOL at ring nodes that
    stand for n nodes, or ``{"singular_nodes": 0, "zeros_inside": n}`` when
    h' has n zeros inside (:func:`_zeros_inside`).
    """
    zs, mult = grid._upper_ring()
    hp = h.derivs(zs)
    singular = np.abs(hp) < SINGULAR_TOL
    if singular.any():
        return zs, hp, {"singular_nodes": int(mult[singular].sum())}
    zeros = _zeros_inside(h, grid, hp)
    return zs, hp, ({"singular_nodes": 0, "zeros_inside": zeros} if zeros else {})


def _zero_free_ring_derivs(h, grid):
    """``_ring_derivs`` without the last entry; raises if h' vanishes on |z| <= rmax."""
    zs, hp, spoiled = _ring_derivs(h, grid)
    if spoiled:
        raise SingularDerivativeError(f"h' vanishes on |z| <= {grid.rmax}: {spoiled}")
    return zs, hp


def _ratio_sup(h, zs, hp, ts):
    """Sup of |h'(t z)| / |h'(z)| over the nodes zs and samples ts.

    ``ts`` runs from 0 to 1.  At t = 1 the ratio is exactly 1, and at t = 0
    it is |h'(0)| / |h'(z)|, so only the interior samples need kernel sums.
    """
    abs_hp = np.abs(hp)
    sup = max(1.0, float(abs(h.derivs(np.zeros(1))[0]) / np.min(abs_hp)))
    for t in ts[1:-1]:
        sup = max(sup, float(np.max(np.abs(h.derivs(t * zs)) / abs_hp)))
    return sup


def derivative_ratio_sup(h, grid=None, nt=11):
    """Numerical sup of |h'(t z)/h'(z)| over the disk |z| <= rmax times t in [0, 1].

    ``nt >= 2`` samples of t include both ends.  For each t the ratio is
    analytic in z where h' does not vanish, so its sup over the disk lies
    on the circle |z| = rmax (maximum modulus principle) and only the outer
    ring is evaluated; h has real coefficients, so the ratio is even under
    conjugation and only the ring nodes with theta in [0, pi] are.  Raises
    :class:`SingularDerivativeError` when h' vanishes at a ring node or has
    a zero inside (see ``_zeros_inside``).
    """
    if nt < 2:
        raise ValueError(f"nt must be at least 2 so that t = 0 and t = 1 are sampled, got {nt!r}")
    grid = grid or GridSpec()
    zs, hp = _zero_free_ring_derivs(h, grid)
    return _ratio_sup(h, zs, hp, grid.t_samples(nt))


def certify_qc_ratio_sup(f, k, grid=None):
    """Theorem 1.6 certificate: c * sup |h'(tz)/h'(z)| against k < 1.

    ``f.g`` is read as the convolution factor of h + c conj(h * g) and
    does not enter the bound.  The sup is the grid estimate of
    :func:`derivative_ratio_sup` on ``grid``, so a pass is grid evidence
    only; the certificate records the grid, ``ratio_sup`` and ``c``.
    """
    grid = grid or GridSpec()
    c = f.real_c
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

    Re[z h''/h'] is harmonic where h' does not vanish, so its floor over
    the disk lies on the circle |z| = rmax (minimum principle).  Both
    sweeps take the outer-ring nodes with theta in [0, pi] only (see
    :func:`derivative_ratio_sup`), share one evaluation of h' there, and
    raise :class:`SingularDerivativeError` as it does.  Both comparisons
    allow ``CHECK_SLACK``.
    """
    if not m > 0.0:
        raise ValueError("m must be positive")
    grid = grid or GridSpec()
    zs, hp = _zero_free_ring_derivs(h, grid)
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


# Rounding allowance for the cross inequality phi(s) psi(t) - phi(t) psi(s) >= 0
# and, relative, for F(1-) >= 1.
CROSS_SLACK = 1e-12


@dataclass(frozen=True)
class DensityRatioVerdict:
    """Cross inequality phi(s) psi(t) >= phi(t) psi(s) on all sampled s <= t.

    ``max_violation`` is the largest shortfall below 0, and ``worst_s``,
    ``worst_t`` locate it when the inequality fails (None when it holds).
    """

    holds: bool
    max_violation: float
    worst_s: float | None
    worst_t: float | None
    n_samples: int

    def to_dict(self):
        return asdict(self)


def _as_density_measure(obj):
    if isinstance(obj, Measure):
        if obj.atoms:
            raise ValueError("density comparison needs purely absolutely continuous measures")
        return obj
    return Measure(densities=(obj,))


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


def density_ratio_condition(phi, psi, n=200):
    """Check the cross inequality on the n x n midpoint sample (i + 0.5) / n.

    ``phi`` and ``psi`` may be density objects or purely density measures;
    phi plays the h role and psi the g role.  Gaps down to -CROSS_SLACK
    count as rounding.  The sample stops short of both endpoints, so a
    pass is evidence for the hypothesis, not a proof of it.
    """
    mu = _as_density_measure(phi)
    nu = _as_density_measure(psi)
    ts = (np.arange(n) + 0.5) / n
    p = mu.pdf(ts)
    q = nu.pdf(ts)
    a = p[:, None] * q[None, :]
    diff = a - a.T
    iu = np.triu_indices(n, k=1)
    gaps = diff[iu]
    worst = int(np.argmin(gaps))
    max_violation = float(max(0.0, -np.min(gaps)))
    holds = bool(np.min(gaps) >= -CROSS_SLACK)
    return DensityRatioVerdict(
        holds=holds,
        max_violation=max_violation,
        worst_s=None if holds else float(ts[iu[0][worst]]),
        worst_t=None if holds else float(ts[iu[1][worst]]),
        n_samples=n,
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
    has the computed exponent 0.9999999999999999 and Lebesgue has 1.
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

    The sampled hypothesis has one free check: the kernel (1 - t x)**-2 is
    TP2, so under the cross inequality F rises on [0, 1) from F(0) = 1
    (Karlin, Total Positivity, 1968).  F(1-) below 1 by more than
    CROSS_SLACK refutes it, and the certificate is then inconclusive.
    """
    if not 0.0 <= float(c) < 1.0:
        raise ValueError(f"c must be real in [0, 1), got {c!r}")
    c = float(c)
    if not isinstance(h, ShiftedCauchyTransform) or not isinstance(g, ShiftedCauchyTransform):
        raise TypeError("boundary-limit certificate needs measure-backed parts")
    ratio = density_ratio_condition(h.mu, g.mu)
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

    f_limit, path, details = _derivative_quotient_limit(h.mu, g.mu)
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
