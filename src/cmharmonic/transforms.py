"""Cauchy-Stieltjes transforms of probability measures on [0, 1].

``F(z) = integral of 1/(1 - t z) d mu(t)`` extends analytically to the slit
plane (the complex plane minus the ray [1, oo)); the shifted variant
``z F(z)`` fixes the origin with unit derivative.  Evaluations reject points
within 1e-12 of the slit, where the kernel blows up and quadrature is
meaningless, and points that are not finite.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .measures import Measure, _route_levels
from .quadrature import _check_tol

__all__ = [
    "SLIT_MARGIN",
    "SlitDomainError",
    "slit_distance",
    "ExtendedReal",
    "GridSpec",
    "CauchyTransform",
    "ShiftedCauchyTransform",
    "MembershipReport",
    "check_membership",
]

SLIT_MARGIN = 1e-12
# Allowance below zero, and above zero for gaps, that the sample checks accept.
CHECK_SLACK = 1e-9


class SlitDomainError(ValueError):
    """Evaluation point not finite, or on or too near the ray [1, oo)."""


def slit_distance(z):
    """Distance from ``z`` (scalar or array) to the slit [1, oo): |Im z| where Re z >= 1, else |z - 1|.

    A scalar gives a float and an array an array of the same shape.  A
    point that is not finite reads what the formula gives;
    :func:`_outside_domain` tests finiteness on its own.
    """
    z = np.asarray(z, dtype=complex)
    return np.where(z.real >= 1.0, np.abs(z.imag), np.abs(z - 1.0))[()]


def _outside_domain(z):
    """Mask of the points of ``z`` outside the evaluation domain.

    A point is outside when it is not finite or lies within ``SLIT_MARGIN``
    of the slit; the distance test is written so that NaN fails it.
    """
    z = np.asarray(z, dtype=complex)
    return ~np.isfinite(z) | ~(slit_distance(z) >= SLIT_MARGIN)


def _check_slit(z):
    """Raise :class:`SlitDomainError` at the first point of ``z`` (scalar or array) outside the domain."""
    bad = np.ravel(_outside_domain(z))
    if np.any(bad):
        p = complex(np.ravel(z)[int(np.argmax(bad))])
        if not np.isfinite(p):
            raise SlitDomainError(f"point {p!r} is not finite")
        raise SlitDomainError(f"point {p!r} within {SLIT_MARGIN:g} of the slit [1, oo)")


@dataclass(frozen=True)
class ExtendedReal:
    """Finite real value or a +infinity marker.

    ``inconclusive`` is always False: boundary limits come from closed
    forms, which never leave a value undecided.  The field stays for
    callers that test it.
    """

    value: float
    inconclusive: bool = False

    @property
    def is_finite(self):
        return math.isfinite(self.value)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        if self.is_finite:
            return f"ExtendedReal({self.value!r})"
        return "ExtendedReal(+inf)"


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grids at desk scale.

    Disk sweeps use a polar grid; half-plane sweeps use a rectangle in the
    open upper quadrant of {Re z < 1} plus a sample of the real ray.  The
    sup and floor sweeps over the closed disk |z| <= rmax evaluate its
    outer ring only (:meth:`_upper_ring`), where the maximum modulus and
    minimum principles put their extremes; ``nr`` and ``rmin`` serve the
    pointwise modulus check, which takes every node of
    :meth:`disk_points`.  No disk sweep says anything about the boundary
    point z = 1: a dilatation can stay small on |z| <= 0.98 and be
    unbounded as z -> 1.

    The rectangle's bounds must be finite and ordered, xmin < xmax < 1 and
    0 < ymin < ymax, so the whole rectangle lies in the open upper quadrant
    of {Re z < 1} and its first column is its leftmost.
    """

    rmin: float = 0.1
    rmax: float = 0.98
    nr: int = 12
    ntheta: int = 64
    xmin: float = -3.0
    xmax: float = 0.99
    ymin: float = 0.01
    ymax: float = 3.0
    nx: int = 100
    ny: int = 100

    def __post_init__(self):
        if not (0.0 < self.rmin <= self.rmax < 1.0):
            raise ValueError("disk radii must satisfy 0 < rmin <= rmax < 1")
        if min(self.nr, self.ntheta, self.nx, self.ny) < 2:
            raise ValueError("grid counts must be at least 2")
        if not self.xmax < 1.0:
            raise ValueError("half-plane rectangle must stay left of Re z = 1")
        if not (self.ymin > 0.0 and self.ymax > 0.0):
            raise ValueError("half-plane rectangle must lie in the open upper half (ymin, ymax > 0)")
        bounds = (self.rmin, self.rmax, self.xmin, self.xmax, self.ymin, self.ymax)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"grid bounds must be finite, got {bounds!r}")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(
                f"half-plane rectangle bounds must be ordered (xmin < xmax, ymin < ymax), "
                f"got x in [{self.xmin!r}, {self.xmax!r}], y in [{self.ymin!r}, {self.ymax!r}]"
            )

    def _circle(self):
        """``e^{i theta_j}``, theta_j = 2 pi j / ntheta, exactly closed under conjugation."""
        n = self.ntheta
        upper = n // 2 + 1
        e = np.empty(n, dtype=complex)
        e[:upper] = np.exp(1j * (2.0 * np.pi * np.arange(upper) / n))
        if n % 2 == 0:
            e[n // 2] = -1.0
        e[upper:] = np.conj(e[n - upper : 0 : -1])
        return e

    def disk_points(self):
        """Polar grid ``r_i e^{i theta_j}``, theta_j = 2 pi j / ntheta, radius-major.

        The grid is exactly closed under conjugation: the angles past pi are
        the conjugates of those below it, and theta = pi (even ntheta) is
        exactly -1.  Parts with real coefficients take conjugate values at
        conjugate nodes, so a ring sweep needs only :meth:`_upper_ring`.
        """
        r = np.linspace(self.rmin, self.rmax, self.nr)
        return (r[:, None] * self._circle()[None, :]).ravel()

    def _upper_ring(self):
        """The outer-ring nodes with theta in [0, pi].

        They are bit for bit the first ``ntheta // 2 + 1`` entries of the
        last row of :meth:`disk_points` (``linspace`` ends exactly at rmax).
        A node on the real axis stands for itself, any other for itself and
        its conjugate.
        """
        return self.rmax * self._circle()[: self.ntheta // 2 + 1]

    def _rect_axes(self):
        """The rectangle's x and y samples; ``rect_points`` is their tensor grid."""
        return self.real_ray(), np.linspace(self.ymin, self.ymax, self.ny)

    def rect_points(self):
        x, y = self._rect_axes()
        return (x[:, None] + 1j * y[None, :]).ravel()

    def real_ray(self):
        return np.linspace(self.xmin, self.xmax, self.nx)

    def t_samples(self, nt=11):
        return np.linspace(0.0, 1.0, nt)


# Grid sweeps work through blocks of nodes holding about this many
# (node x rule point) terms: 1 MB of complex buffer here, two 512 kB real
# ones in the rectangle kernel, which stay in a core's L2 cache across the
# passes over them.  Blocks of 2048 nodes against a 2200-point fixed rule
# ran 1.5x slower (Xeon, 2 MB L2 per core).  The traffic is now mostly the
# Gauss rules: of the kernel terms of the grid-sweeps benchmark (seeds 1 to
# 40, full size), 72% are rectangle terms over Gauss rules of 33 to 68
# points, 10% rectangle terms over fixed rules, 10% complex terms over
# Gauss rules and 7% complex terms over fixed rules.  On 24 of its maps,
# with the rules built, blocks of 2**14 terms took check_partial_signs 12
# to 20% longer, 2**15 from 1% less to 9% more, and 2**17 from the same
# to 6% less, inside the spread between processes (best of 30 interleaved
# runs in each of 5 processes, Xeon with 2 MB L2 per core, numpy 2.4).
_BLOCK_TERMS = 2**16


# numpy's ufunc buffer (8,192 elements by default) makes a ufunc that
# broadcasts a row of the rule against a block copy strided rows through
# it, and the rectangle kernel's rows are strided: each starts on a 64-byte
# boundary (see _aligned_rows).  With the default buffer those padded rows
# took check_partial_signs 1.65 to 1.69x as long as at 256 elements, while
# unpadded rows ran alike at either size, so this size is what lets the
# padding pay: unpadded rows took it 10 to 13% longer when it was timed
# alone, and up to 5% when it was interleaved with the other sweeps.  The
# complex kernel gains too: at 256 elements the 768-node disk sums took 6
# to 7% less time than at the default.  Dropping both knobs cost
# check_partial_signs 3 to 12% (24 grid-sweeps maps with their rules
# built, best of 20 to 40 interleaved runs in each of 4 to 6 processes,
# Xeon with AVX-512, numpy 2.4).
_KERNEL_BUFSIZE = 256


@contextlib.contextmanager
def _kernel_bufsize():
    """Run the block loop of a kernel with the small ufunc buffer, then restore it."""
    bufsize = np.setbufsize(_KERNEL_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def _block_rows(n_terms):
    """Nodes per block for a rule of ``n_terms`` points."""
    return max(1, _BLOCK_TERMS // n_terms)


def _aligned_rows(rows, n):
    """An uninitialised ``(rows, n)`` float array whose rows start on 64-byte boundaries.

    malloc aligns a large block to 16 bytes only, and a broadcast add
    writing rows that start off a 64-byte boundary ran 2x slower per
    element (AVX-512, numpy 2.4): the rectangle kernel took 1.5 instead of
    1.2 ns per term at power 1, depending on where its buffers landed.
    """
    stride = -(-n // 8) * 8
    raw = np.empty(rows * stride + 7)
    start = (-raw.ctypes.data // 8) % 8
    return raw[start : start + rows * stride].reshape(rows, stride)[:, :n]


def _kernel_sums(zs, t, w, power):
    """``sum_j w_j (1 - t_j z)**-power`` at each point of ``zs``, power 1, 2 or 3.

    Each block fills one buffer allocated once per call, so no block
    temporary outlives its iteration; the powers are products of the
    reciprocal, not complex ``**``.  The rule points are cast to complex
    once and the loop runs under :func:`_kernel_bufsize`, so the product
    z t needs neither a cast nor a buffered copy.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    _check_slit(flat)
    rows = _block_rows(len(t))
    tc = t.astype(complex)
    out = np.empty(flat.shape, dtype=complex)
    buf = np.empty((min(rows, len(flat)), len(t)), dtype=complex)
    square = np.empty_like(buf) if power == 3 else None
    with _kernel_bufsize():
        for i in range(0, len(flat), rows):
            z = flat[i : i + rows, None]
            r = buf[: len(z)]
            np.multiply(z, tc, out=r)
            np.subtract(1.0, r, out=r)
            np.divide(1.0, r, out=r)
            if power == 2:
                r *= r
            elif power == 3:
                r2 = square[: len(z)]
                np.multiply(r, r, out=r2)
                r *= r2
            np.matmul(r, w, out=out[i : i + rows])
    return out.reshape(zs.shape)


def _rect_kernel_sums(x, y, t, weights, power):
    """``kern @ weights`` at every node x_i + i y_k of a tensor grid, power 1 or 2.

    ``kern = y t a**(power - 1) / (a^2 + (y t)^2)**power`` with
    ``a = 1 - x t``, a real form of the Cauchy kernel off the real axis:
    ``Im 1/(1 - t z)`` at power 1, and half the partial-sign kernel
    ``2 y t (1 - x t) / |1 - t z|^4`` at power 2.  The squares (y t)^2 are
    formed once per block of y values, and a, a^2 and t a once per block of
    x values, so each term costs one add and one divide (and one square at
    power 2); y multiplies the sums once, after the loop.  A block holds as
    many x columns as fit in ``_BLOCK_TERMS`` terms, and its contiguous axis
    is the longer of the rule and the block's y values: a short rule (a
    33-point Gauss rule against 100 y values) is laid out y-contiguous and
    summed through a transposed matmul, so its ufuncs run neither row by row nor
    one column per call.  Each column is summed by its own matmul,
    whose shape depends on the rule and the y axis only, so a node's sum
    runs in the same order whatever the columns of the call.  Two real
    block buffers are allocated once per call with aligned rows (see
    :func:`_aligned_rows`), and the loop runs under :func:`_kernel_bufsize`
    because the add and the divide broadcast rows of the rule.  The result
    has shape ``(len(x), len(y)) + weights.shape[1:]``.
    """
    rows = _block_rows(len(t))
    out = np.empty((len(x), len(y)) + weights.shape[1:])
    ny = min(rows, len(y))
    cols = max(1, min(rows // ny, len(x)))
    # blocks are (x, y, t) arrays whose contiguous axis is the longer of y and t
    if len(t) >= ny:
        yt2 = _aligned_rows(ny, len(t))
        den = _aligned_rows(cols * ny, len(t)).reshape(cols, ny, len(t))
    else:
        yt2 = _aligned_rows(len(t), ny).T
        den = _aligned_rows(cols * len(t), ny).reshape(cols, len(t), ny).swapaxes(1, 2)
    a = np.empty((cols, 1, len(t)))
    a2 = np.empty_like(a)
    num = np.empty_like(a) if power == 2 else np.broadcast_to(t, a.shape)
    x3 = x[:, None, None]
    with _kernel_bufsize():
        for j in range(0, len(y), rows):
            ys = y[j : j + rows, None]
            b = yt2[: len(ys)]
            np.multiply(ys, t, out=b)
            b *= b
            d = den[:, : len(ys)]
            for i in range(0, len(x), cols):
                xs = x3[i : i + cols]
                k = len(xs)
                ak, a2k, numk, dk = (a, a2, num, d) if k == cols else (a[:k], a2[:k], num[:k], d[:k])
                np.multiply(xs, t, out=ak)
                np.subtract(1.0, ak, out=ak)
                np.multiply(ak, ak, out=a2k)
                np.add(a2k, b, out=dk)
                if power == 2:
                    np.multiply(t, ak, out=numk)
                    dk *= dk
                np.divide(numk, dk, out=dk)
                np.matmul(dk, weights, out=out[i : i + k, j : j + rows])
    out *= y.reshape((-1,) + (1,) * (weights.ndim - 1))
    return out


def _routed_sums(mu, zs, sums):
    """``sums(points, t, w)`` at the points ``zs``, each point over the rule of its own route level.

    The levels are ``measures._route_levels``: the Gauss rule of ``mu``
    where a point's pole clears its ellipse, the fixed rule elsewhere
    (``Measure._rule_at``).  A call whose points share one level runs one
    ``sums`` call on the points as given; an empty set takes the fixed rule
    and builds no Gauss rule.  Otherwise the points are checked against the
    slit first, so an error names the first bad point given, then split by
    level, each group summed over its rule, and the results scattered back.
    """
    zs = np.asarray(zs, dtype=complex)
    levels = _route_levels(zs)
    if not levels.size or levels.min() == levels.max():
        return sums(zs, *mu._rule_at(levels.max() if levels.size else 1))
    _check_slit(zs)
    out = np.empty(zs.shape, dtype=complex)
    for level in (0, 1):
        group = levels == level
        out[group] = sums(zs[group], *mu._rule_at(level))
    return out


def _routed_rect_sums(x, y, sums):
    """``sums(xs, ys, level)`` on the tensor grid x_i + i y_k, each node over a rule of a level that serves it.

    The grid's counterpart of :func:`_routed_sums`, for the real kernel of
    :func:`_rect_kernel_sums`, which is factored over the axes and so
    cannot take scattered points: ``sums`` sums a sub-grid over the rules
    of ``level`` and returns an array of shape ``(len(xs), len(ys), ...)``.
    Level 0, the Gauss rules, runs on every column that holds a node whose
    pole clears the ellipse (``measures._route_levels``), so a grid whose
    nodes all fall short builds no Gauss rule.  Level 1, the fixed rules,
    then runs on the box of the columns and rows that hold nodes that fall
    short, written over level 0; the fixed rule serves every node.  A grid
    of one level takes one call on the axes as given.  On the default
    rectangle that is two calls, all 100 x 100 nodes and the 3 x 9 box from
    x = 0.909 and up to y = 0.25 that holds the 18 short nodes.  A column's
    sums do not depend on the other columns of its call, though a row's may
    differ in the last bits with the rows of its call; since the Gauss call
    takes every row, each node outside the box reads, bit for bit, what one
    call on the whole grid over the Gauss rules gives.
    """
    short = _route_levels(x[:, None] + 1j * y[None, :]) == 1
    if not short.any():
        return sums(x, y, 0)
    far, cols, rows = ~short.all(axis=1), short.any(axis=1), short.any(axis=0)
    if not far.any():
        return sums(x, y, 1)
    part = sums(x[far], y, 0)
    out = np.empty((len(x),) + part.shape[1:])
    out[far] = part
    out[np.ix_(cols, rows)] = sums(x[cols], y[rows], 1)
    return out


def _kernel_base(z, t, u):
    """``1 - t z`` at points t with complements u: ``(1 - z) + z u`` where t >= 1/2.

    Near t = 1 the rounded product t z has lost the digits of 1 - t z that
    a pole at z ~ 1 leaves; the complement u keeps them.  For t >= 1/2 and
    u <= 1/2 the two terms cancel no more than the pole itself forces.
    Below t = 1/2, 1 - t z needs no help, and the u form would cancel
    badly there for large |z|.
    """
    return np.where(t >= 0.5, (1.0 - z) + z * u, 1.0 - t * z)


@dataclass(frozen=True)
class CauchyTransform:
    """Transform ``F(z)`` of a probability measure (``mu.is_normalized``); ``F(0) = 1``."""

    mu: Measure

    def __post_init__(self):
        if not self.mu.is_normalized:
            raise ValueError(
                f"transform needs a probability measure; mass is {self.mu.mass!r}"
            )

    # -- pointwise ----------------------------------------------------------

    def eval(self, z, tol=1e-10):
        """Value at a single point of the slit plane (adaptive quadrature)."""
        z = complex(z)
        _check_slit(z)
        val = self.mu.integrate(lambda t, u: 1.0 / _kernel_base(z, t, u), tol=tol)
        return complex(val)

    __call__ = eval

    def values(self, zs):
        """Vectorized values on an array of slit-plane points, each over the rule its route level picks (``_routed_sums``)."""
        return _routed_sums(self.mu, zs, lambda z, t, w: _kernel_sums(z, t, w, 1))

    def series_eval(self, z, terms=300):
        """Truncated moment series (|z| < 1 only) over the closed-form moments: a check of :meth:`values`."""
        z = complex(z)
        if not abs(z) < 1.0:
            raise ValueError(f"moment series needs |z| < 1, got {z!r}")
        coef = self.mu.moments(terms)
        return complex(np.polynomial.polynomial.polyval(z, coef))

    # -- boundary behavior ----------------------------------------------------

    def limit_at_one(self):
        """Limit of F(x) as x -> 1-, possibly +infinity.

        By monotone convergence it is ``integral of d mu/(1 - t)``, the sum
        of the moments, which :meth:`Measure.endpoint_moment` gives in
        closed form: +infinity exactly when an atom sits at t = 1 or a
        density has endpoint exponent at most 1.
        """
        return ExtendedReal(self.mu.endpoint_moment(1))

    def real_part_floor(self):
        """The lower bound ``integral of 1/(1+t) d mu`` for Re F on the disk, F(-1) from :meth:`values`."""
        return float(self.values(np.array([-1.0 + 0.0j]))[0].real)


@dataclass(frozen=True)
class ShiftedCauchyTransform:
    """Shifted transform ``h(z) = z F(z)``; fixes 0, h'(0) = 1."""

    base: CauchyTransform

    @classmethod
    def from_measure(cls, mu):
        return cls(CauchyTransform(mu))

    @property
    def mu(self):
        return self.base.mu

    def value(self, z, tol=1e-10):
        z = complex(z)
        _check_tol(tol)
        if z == 0:
            return 0.0 + 0.0j
        return z * self.base.eval(z, tol=tol)

    __call__ = value

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex)
        return zs * self.base.values(zs)

    def deriv(self, z, tol=1e-10):
        """h'(z) by quadrature of the squared kernel (never finite differences)."""
        z = complex(z)
        _check_slit(z)
        return complex(self.mu.integrate(lambda t, u: _kernel_base(z, t, u) ** -2.0, tol=tol))

    def deriv2(self, z, tol=1e-10):
        z = complex(z)
        _check_slit(z)
        return complex(self.mu.integrate(lambda t, u: 2.0 * t * _kernel_base(z, t, u) ** -3.0, tol=tol))

    def derivs(self, zs):
        return _routed_sums(self.mu, zs, lambda z, t, w: _kernel_sums(z, t, w, 2))

    def deriv2s(self, zs):
        return _routed_sums(self.mu, zs, lambda z, t, w: _kernel_sums(z, t, 2.0 * t * w, 3))


# -- membership diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    """Numerical evidence for membership in the transform class.

    The three probes: the value at 0 should be 1; values on the real ray
    below 1 should be real and nonnegative; the imaginary part should be
    nonnegative on the upper half-plane.  Holomorphy of a black-box
    function cannot be probed and is assumed.

    For a :class:`CauchyTransform`, ``min_im_upper`` comes from the real
    kernel ``Im F(x + i y) = y sum t w / ((1 - x t)^2 + (y t)^2)``, not
    from complex values.  Every term rises with x below Re z = 1, so the
    minimum over the rectangle lies on its left column x = xmin, and only
    that column is evaluated; rectangle nodes within ``SLIT_MARGIN`` of the
    slit are left out and all of them are counted in ``skipped``.  Any
    other callable is evaluated on the nodes themselves.  ``consistent``
    needs at least one finite value on the rectangle and on the ray.
    """

    consistent: bool
    f0_gap: float
    min_re_ray: float
    max_abs_im_ray: float
    min_im_upper: float
    skipped: int
    slack: float
    note: str = "holomorphy on the slit plane assumed, not checked"

    def to_dict(self):
        return asdict(self)


def _eval_grid(fn, pts):
    """Evaluate fn on points, vector call first, per-node fallback; count failures."""
    try:
        out = np.asarray(fn(pts), dtype=complex)
        if out.shape == pts.shape:
            return out, 0
    except Exception:
        pass
    vals = np.full(pts.shape, np.nan + 0j, dtype=complex)
    skipped = 0
    for i, z in enumerate(pts):
        try:
            vals[i] = complex(fn(z))
        except Exception:
            skipped += 1
    return vals, skipped


def _upper_imag(F, grid):
    """Im F on the rectangle's left column x = xmin, and the rectangle's skip count.

    ``Im F(x + i y) = y * sum_j t_j w_j / ((1 - x t_j)^2 + (y t_j)^2)``,
    and for x < 1 and t in [0, 1] each term rises with x: with
    ``a = 1 - x t > 0``, d/dx of ``t / (a^2 + (y t)^2)`` is
    ``2 a t^2 / (a^2 + (y t)^2)^2 >= 0``.  The weights are nonnegative, so
    each row's minimum over the rectangle is its left node, and only the
    x = xmin column is evaluated, through the grid router
    (:func:`_routed_rect_sums`): each row over the rule that serves its
    left node.  Each rounded step of the kernel, the dot product with the
    weights included, keeps that order for any rule with nodes in [0, 1]
    and nonnegative weights, so each row's value is, bit for bit, the
    minimum of the whole row summed in the same router calls.  Nodes within
    ``SLIT_MARGIN`` of the slit read NaN and every skipped rectangle node
    is counted, as the per-node fallback of :func:`_eval_grid` counts them;
    since |z - 1| falls as x rises, a row whose left node is skipped is
    skipped entirely.
    """
    x, y = grid._rect_axes()
    im = _routed_rect_sums(x[:1], y, lambda xs, ys, level: _rect_kernel_sums(xs, ys, *F.mu._rule_at(level), 1))[0]
    bad = _outside_domain(grid.rect_points())
    im[bad[: len(y)]] = np.nan
    return im, int(bad.sum())


def check_membership(fn, grid=None):
    """Probe a function for transform-class consistency on the default grids.

    ``fn`` may be a :class:`CauchyTransform` or any callable on complex
    points (vectorized callables are used as such).  Failing nodes are
    skipped and counted.  For a :class:`CauchyTransform` the upper-rectangle
    probe takes Im F from the real kernel ``y t / ((1 - x t)^2 + (y t)^2)``
    instead of complex values, on the left column x = xmin only: for
    x < 1 and t in [0, 1] the kernel rises with x, so each row's minimum
    is its left node, and a row whose left node lies within
    ``SLIT_MARGIN`` of z = 1 lies there entirely (see ``_upper_imag``).
    That column goes through the grid router (``_routed_rect_sums``), so
    each row is summed over the rule that serves its left node.
    The real ray and F(0) use :meth:`CauchyTransform.values`, and
    any other callable goes through vector-then-per-node evaluation.  A
    probe with no finite value on the rectangle or on the ray is never
    consistent.  Each probe may miss by ``CHECK_SLACK``.
    """
    grid = grid or GridSpec()
    if isinstance(fn, CauchyTransform):
        im_upper, sk1 = _upper_imag(fn, grid)
        fn = fn.values
    else:
        upper, sk1 = _eval_grid(fn, grid.rect_points())
        im_upper = np.where(np.isfinite(upper), upper.imag, np.nan)
    ray, sk2 = _eval_grid(fn, grid.real_ray().astype(complex))
    f0, sk0 = _eval_grid(fn, np.zeros(1, dtype=complex))

    skipped = sk0 + sk1 + sk2
    f0_gap = float(abs(f0[0] - 1.0)) if np.isfinite(f0[0]) else math.inf
    ray_ok = ray[np.isfinite(ray)]
    upper_ok = im_upper[np.isfinite(im_upper)]
    min_re_ray = float(np.min(ray_ok.real)) if ray_ok.size else math.inf
    max_abs_im_ray = float(np.max(np.abs(ray_ok.imag))) if ray_ok.size else 0.0
    min_im_upper = float(np.min(upper_ok)) if upper_ok.size else math.inf

    consistent = (
        ray_ok.size > 0
        and upper_ok.size > 0
        and f0_gap <= CHECK_SLACK
        and min_re_ray >= -CHECK_SLACK
        and max_abs_im_ray <= CHECK_SLACK
        and min_im_upper >= -CHECK_SLACK
    )
    return MembershipReport(
        consistent=bool(consistent),
        f0_gap=f0_gap,
        min_re_ray=min_re_ray,
        max_abs_im_ray=max_abs_im_ray,
        min_im_upper=min_im_upper,
        skipped=skipped,
        slack=CHECK_SLACK,
    )
