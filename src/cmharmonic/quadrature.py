"""Gauss-Legendre quadrature, adaptive and composite, on real intervals.

Integrands must accept an ndarray of abscissae and return an array of the
same shape; values may be real or complex.  The adaptive driver bisects
panels breadth-first and compares a 15-point rule against a 7-point rule
for the local error estimate, so repeated calls on the same input perform
the identical sequence of floating operations.  Both rules are module
constants, equal bit for bit to numpy's ``leggauss`` on numpy 2, so neither
this module nor the fixed rules of the measures import ``numpy.polynomial``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "adaptive_quad", "graded_edges", "composite_rule"]

# Panels per integrand call: a level of up to 16384 panels is evaluated in
# slices, so the working set stays a few MB whatever the integrand.
_PANELS_PER_EVAL = 512
# Gauss-Legendre points per panel of the composite rule.
COMPOSITE_ORDER = 15
# Bisection depth of adaptive_quad at which every panel left is summed as it stands.
MAX_DEPTH = 48
# Dyadic levels of graded_edges toward each end: its outermost panels span
# 2**-GRADED_LEVELS of the interval.
GRADED_LEVELS = 14


def _mirrored(nodes, weights):
    """The rule (ascending nodes on [-1, 1], weights) of an odd Gauss-Legendre rule from its half x >= 0."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[:0:-1], x]), np.concatenate([w[:0:-1], w])


# The 7- and 15-point Gauss-Legendre rules as numpy.polynomial.legendre.leggauss
# gives them, whose nodes and weights it makes symmetric exactly, so the half
# x >= 0 holds each rule.  Constants keep numpy.polynomial out of the import.
_GAUSS_LEGENDRE = {
    7: _mirrored(
        (0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
        (0.4179591836734693, 0.3818300505051187, 0.27970539148927687, 0.12948496616886973),
    ),
    15: _mirrored(
        (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
         0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854),
        (0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
         0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203),
    ),
}


def _check_tol(tol):
    """Raise ``ValueError`` unless ``tol`` is finite and nonnegative; 0 means to rounding."""
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol!r}")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")


class QuadratureError(RuntimeError):
    """Requested tolerance was not met; carries the best available estimate."""

    def __init__(self, message, estimate, error_estimate):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def adaptive_quad(f, a, b, tol=1e-10):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Returns ``(value, error_estimate)``.  A panel is accepted once the
    7/15-point discrepancy fits its proportional share of ``tol``; panels
    still failing at ``MAX_DEPTH``, or once a level holds more than 16384
    panels, are summed anyway and, if the accumulated estimate misses
    ``tol``, a :class:`QuadratureError` carrying the partial result and
    naming the depth reached is raised.  ``tol`` must be finite and
    nonnegative; 0 asks for the rounding floor.
    """
    _check_tol(tol)
    a = float(a)
    b = float(b)
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError(f"empty interval [{a}, {b}]")
    x7, w7 = _GAUSS_LEGENDRE[7]
    x15, w15 = _GAUSS_LEGENDRE[15]
    width = b - a

    total = 0.0 + 0.0j
    err_total = 0.0
    exhausted = False
    complex_out = False

    lo, hi = np.array([a]), np.array([b])  # the frontier's panels, in bisection order
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        i7, i15, scale = [], [], []  # per panel; the L1 scale of the 15-point values
        for k in range(0, lo.size, _PANELS_PER_EVAL):
            c_mid, c_hw = mid[k:k + _PANELS_PER_EVAL, None], hw[k:k + _PANELS_PER_EVAL, None]
            pts7 = c_mid + c_hw * x7[None, :]
            pts15 = c_mid + c_hw * x15[None, :]
            vals = np.asarray(f(np.concatenate([pts7.ravel(), pts15.ravel()])))
            if np.iscomplexobj(vals):
                complex_out = True
            n7 = pts7.size
            v7 = vals[:n7].reshape(pts7.shape)
            v15 = vals[n7:].reshape(pts15.shape)
            i7.append(v7 @ w7)
            i15.append(v15 @ w15)
            scale.append(np.abs(v15) @ w15)
        i7 = np.concatenate(i7) * hw
        i15 = np.concatenate(i15) * hw
        err = np.abs(i15 - i7)
        budget = tol * (hi - lo) / width
        # the L1 scale sets the rounding-noise floor of the 7/15 discrepancy;
        # without it, noise-dominated panels would split forever
        scale = np.concatenate(scale) * hw
        accept = (err <= budget) | (err <= 1e-14 * scale)
        if depth >= MAX_DEPTH or lo.size > 16384:
            accept = np.ones_like(accept, dtype=bool)
            exhausted = True
        total += complex(np.sum(i15[accept]))
        err_total += float(np.sum(err[accept]))
        split = ~accept  # each splits into its halves, left then right
        lo, hi = (
            np.stack((lo[split], mid[split]), axis=1).ravel(),
            np.stack((mid[split], hi[split]), axis=1).ravel(),
        )
        depth += 1

    value = total if complex_out else total.real
    if exhausted and err_total > tol:
        raise QuadratureError(
            f"tolerance {tol:g} not met after depth {depth - 1}"  # the last level evaluated
            f" (error estimate {err_total:g})",
            value,
            err_total,
        )
    return value, err_total


def graded_edges(lo, hi):
    """Panel edges on ``[lo, hi]``, dyadically graded toward both endpoints.

    The outermost panels span 2**-GRADED_LEVELS of the interval and each
    next one doubles up to the midpoint, 2 * GRADED_LEVELS panels in all.
    """
    levels = GRADED_LEVELS
    fracs = [0.0]
    fracs += [2.0 ** (-levels + j) for j in range(levels)]  # up to 1/2
    fracs += [1.0 - 2.0 ** (-levels + j) for j in range(levels - 2, -1, -1)]
    fracs.append(1.0)
    return np.asarray([lo + (hi - lo) * u for u in fracs])


def composite_rule(edges):
    """Nodes and weights of the composite ``COMPOSITE_ORDER``-point Gauss-Legendre rule on ``edges``."""
    x, w = _GAUSS_LEGENDRE[COMPOSITE_ORDER]
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    nodes = (mid[:, None] + hw[:, None] * x[None, :]).ravel()
    weights = (hw[:, None] * w[None, :]).ravel()
    return nodes, weights
