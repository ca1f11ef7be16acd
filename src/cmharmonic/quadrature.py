"""Gauss-Legendre quadrature, adaptive and composite, on real intervals.

Integrands must accept an ndarray of abscissae and return an array of the
same shape; values may be real or complex.  The adaptive driver bisects
panels breadth-first and compares a 15-point rule against a 7-point rule
for the local error estimate, so repeated calls on the same input perform
the identical sequence of floating operations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "adaptive_quad", "graded_edges", "composite_rule"]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Panels per integrand call: a level of up to 16384 panels is evaluated in
# slices, so the working set stays a few MB whatever the integrand.
_PANELS_PER_EVAL = 512
# Gauss-Legendre points per panel of the composite rule.
COMPOSITE_ORDER = 15


def _leggauss(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


class QuadratureError(RuntimeError):
    """Requested tolerance was not met; carries the best available estimate."""

    def __init__(self, message, estimate, error_estimate):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def adaptive_quad(f, a, b, tol=1e-10, max_depth=48):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Returns ``(value, error_estimate)``.  A panel is accepted once the
    7/15-point discrepancy fits its proportional share of ``tol``; panels
    still failing at ``max_depth`` are summed anyway and, if the accumulated
    estimate misses ``tol``, a :class:`QuadratureError` carrying the partial
    result is raised.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError(f"empty interval [{a}, {b}]")
    x7, w7 = _leggauss(7)
    x15, w15 = _leggauss(15)
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
        if depth >= max_depth or lo.size > 16384:
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
            f"tolerance {tol:g} not met after depth {max_depth}"
            f" (error estimate {err_total:g})",
            value,
            err_total,
        )
    return value, err_total


def graded_edges(lo, hi, levels=12, max_panel=None):
    """Panel edges on ``[lo, hi]``, dyadically graded toward both endpoints.

    ``max_panel`` caps the width of interior panels, which matters for long
    intervals (exponential-tail charts).
    """
    fracs = [0.0]
    fracs += [2.0 ** (-levels + j) for j in range(levels)]  # up to 1/2
    fracs += [1.0 - 2.0 ** (-levels + j) for j in range(levels - 2, -1, -1)]
    fracs.append(1.0)
    edges = [lo + (hi - lo) * u for u in fracs]
    if max_panel is not None and max_panel > 0:
        refined = [edges[0]]
        for e in edges[1:]:
            prev = refined[-1]
            gap = e - prev
            if gap > max_panel:
                k = int(np.ceil(gap / max_panel))
                for i in range(1, k):
                    refined.append(prev + gap * i / k)
            refined.append(e)
        edges = refined
    return np.asarray(edges)


def composite_rule(edges):
    """Nodes and weights of the composite ``COMPOSITE_ORDER``-point Gauss-Legendre rule on ``edges``."""
    x, w = _leggauss(COMPOSITE_ORDER)
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    nodes = (mid[:, None] + hw[:, None] * x[None, :]).ravel()
    weights = (hw[:, None] * w[None, :]).ravel()
    return nodes, weights
