"""Polylogarithms, zeta, gamma, the Gauss hypergeometric series and its
shifted one-parameter family, plus the closed-form quasiconformality
certificates they support.  ``zeta`` lives in :mod:`.measures`, whose
log-power family takes its endpoint moments from it, and is exported here.

All series stop once the remaining tail provably fits the tolerance; a hard
cap of 1e6 terms turns a stalled sum near the unit circle into an explicit
error instead of a silently wrong value.  The certificates leave the check
k < 1 to :class:`QCCertificate`.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonic import HarmonicMap, QCCertificate, certify_qc_grid, quotient, shifted
from .measures import Beta, beta_measure, loggamma_measure, zeta
from .transforms import GridSpec

__all__ = [
    "ConvergenceError",
    "gamma",
    "pochhammer",
    "zeta",
    "polylog",
    "polylog_via_measure",
    "polylog_ratio",
    "hyp2f1",
    "hyp2f1_deriv",
    "gauss_value",
    "shifted_2f1",
    "hyp_ratio_constant",
    "shifted_2f1_deriv_limit",
    "shifted_2f1_deriv_limit_quad",
    "certify_polylog_map",
    "certify_hypergeom_map",
]

_SERIES_EDGE = 1.0 - 1e-9
_MAX_TERMS = 10**6


class ConvergenceError(ArithmeticError):
    """Series hit the term cap before its tail bound fit the tolerance."""

    def __init__(self, message, partial=None, terms=0):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


# -- gamma and friends --------------------------------------------------------

def gamma(x):
    """Gamma function for real x > 0: :func:`math.gamma` on the checked domain."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma needs a positive argument, got {x!r}")
    return math.gamma(x)


def pochhammer(x, n):
    """Rising factorial x (x+1) ... (x+n-1); empty product for n = 0."""
    if n < 0 or n != int(n):
        raise ValueError("pochhammer order must be a nonnegative integer")
    out = 1.0
    for i in range(int(n)):
        out *= x + i
    return out


# -- polylogarithms -----------------------------------------------------------


def polylog(alpha, z, tol=1e-12):
    """Series value of the polylogarithm of order alpha >= 0 at |z| < 1.

    Order zero has the closed form z/(1-z).  The truncation stops once the
    geometric tail bound fits the tolerance; when it cannot (|z| close to 1
    at low order) the term cap raises :class:`ConvergenceError` with the
    partial sum attached.
    """
    if alpha < 0:
        raise ValueError(f"polylog order must be nonnegative, got {alpha!r}")
    z = complex(z)
    r = abs(z)
    if r > _SERIES_EDGE:
        raise ValueError(f"|z| = {r:g} outside the series domain (< {_SERIES_EDGE})")
    if alpha == 0:
        return z / (1.0 - z)
    if z == 0:
        return 0.0 + 0.0j
    cap = _MAX_TERMS
    block = 4096
    base = z ** np.arange(block)
    zpow = z
    total = 0.0 + 0.0j
    n0 = 1
    while n0 <= cap:
        count = min(block, cap - n0 + 1)
        ns = np.arange(n0, n0 + count, dtype=float)
        total += np.sum(zpow * base[:count] / ns**alpha)
        n_last = n0 + count - 1
        bound = r ** (n_last + 1) / ((n_last + 1) ** alpha * (1.0 - r))
        if bound <= tol * (1.0 + abs(total)):
            return total
        zpow *= base[count - 1] * z
        n0 += count
    raise ConvergenceError(
        f"polylog({alpha}, {z!r}) did not converge within {cap} terms",
        partial=total,
        terms=cap,
    )


def polylog_via_measure(alpha, z):
    """Integral-representation route: the shifted transform of the log-power measure."""
    if alpha <= 0:
        raise ValueError("the integral representation needs alpha > 0")
    return shifted(loggamma_measure(alpha)).value(z)


def polylog_ratio(alpha, beta):
    """Vectorized callable for the polylog quotient of orders alpha over beta.

    Evaluated as a ratio of the unshifted transforms so the removable
    0/0 at the origin never appears (value 1 there).
    """
    return quotient(shifted(loggamma_measure(beta)), shifted(loggamma_measure(alpha)))


# -- Gauss hypergeometric -----------------------------------------------------


def _check_c_pole(c):
    if c <= 0 and abs(c - round(c)) < 1e-12:
        raise ValueError(f"hypergeometric parameter c = {c!r} is a pole")


def hyp2f1(a, b, c, z, tol=1e-12):
    """Gauss series with term recurrence, |z| < 1.

    Truncation uses the geometric tail bound |t_n| rho / (1 - rho) with
    rho = max(next term ratio, |z|), which bounds every later ratio once
    they run monotone toward |z| (from the start for b = 1, c > a > 0); a
    stalled sum raises :class:`ConvergenceError`.
    """
    _check_c_pole(c)
    z = complex(z)
    if abs(z) > _SERIES_EDGE:
        raise ValueError(f"|z| = {abs(z):g} outside the series domain (< {_SERIES_EDGE})")
    cap = _MAX_TERMS
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for n in range(cap):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= tol * (1.0 + abs(total)):
            ratio = max(abs((a + n + 1) * (b + n + 1) / ((c + n + 1) * (n + 2.0)) * z), abs(z))
            if ratio < 1.0 and abs(term) * ratio / (1.0 - ratio) <= tol * (1.0 + abs(total)):
                return total
    raise ConvergenceError(
        f"hyp2f1({a}, {b}; {c}; {z!r}) did not converge within {cap} terms",
        partial=total,
        terms=cap,
    )


def hyp2f1_deriv(a, b, c, z, tol=1e-12):
    """Derivative through the contiguous relation (a b / c) 2F1(a+1, b+1; c+1; z)."""
    _check_c_pole(c)
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z, tol=tol)


def gauss_value(a, b, c):
    """Boundary value of the Gauss series at z -> 1- when c - a - b > 0."""
    if not c - a - b > 0:
        raise ValueError(f"needs c - a - b > 0, got {c - a - b!r}")
    return gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))


def shifted_2f1(a, c, z, tol=1e-12):
    """The shifted function z 2F1(a, 1; c; z) for c > a > 0.

    Series inside |z| <= 0.95; elsewhere on the slit plane the value comes
    from the Euler representing measure (beta family) by quadrature.
    """
    if not c > a > 0:
        raise ValueError(f"needs c > a > 0, got a={a!r}, c={c!r}")
    z = complex(z)
    if abs(z) <= 0.95:
        return z * hyp2f1(a, 1.0, c, z, tol=tol)
    return shifted(beta_measure(a, c)).value(z, tol=tol)


# -- closed-form certificates ---------------------------------------------------


def _check_finite(**params):
    """Raise ``ValueError`` naming the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"parameter {name} must be finite, got {value!r}")


def _spot_checked(method, k, details, grid, spot_check, make_map):
    """Certificate for a closed-form bound that holds, with the optional grid spot check.

    With ``spot_check`` the map from ``make_map()`` is swept on the grid; a
    sup above k + 1e-6 contradicts the bound and makes the certificate
    inconclusive.
    """
    status = "certified"
    sup = None
    if spot_check:
        spot = certify_qc_grid(make_map(), k, grid=grid or GridSpec())
        sup = spot.sup_estimate
        details["spot_sup"] = sup
        if sup is not None and sup > k + 1e-6:
            status = "inconclusive"
            details["reason"] = "grid evidence contradicts the closed-form bound"
    return QCCertificate(method, k, status, sup_estimate=sup, grid=grid, details=details)


def certify_polylog_map(alpha, beta, c, k, grid=None, spot_check=True):
    """Certificate for the polylog map built from orders (alpha, beta) and scale c.

    Branch thm1.7i applies when alpha <= beta and 2c <= k < 1; branch
    thm1.7ii when 2 < beta <= alpha and c zeta(beta-1)/zeta(alpha-1) <= k.
    Neither branch applying yields an inconclusive certificate (no claim).
    Orders below 1, a negative c and parameters that are NaN or infinite
    are refused outright.
    """
    _check_finite(alpha=alpha, beta=beta, c=c)
    if not (alpha >= 1.0 and beta >= 1.0):
        raise ValueError("certification requires both orders at least 1")
    if not c >= 0.0:
        raise ValueError("c must be nonnegative")

    method = None
    details = {}
    if alpha <= beta and 2.0 * c <= k:
        method = "thm1.7i"
        details["claimed_bound"] = 2.0 * c
    elif 2.0 < beta <= alpha:
        ratio = zeta(beta - 1.0) / zeta(alpha - 1.0)
        details["zeta_ratio"] = ratio
        if c * ratio <= k:
            method = "thm1.7ii"
            details["claimed_bound"] = c * ratio
    if method is None:
        return QCCertificate(
            "thm1.7i" if alpha <= beta else "thm1.7ii",
            k,
            "inconclusive",
            details={"reason": "no branch hypothesis satisfied"},
        )
    return _spot_checked(
        method, k, details, grid, spot_check,
        lambda: HarmonicMap(shifted(loggamma_measure(alpha)), shifted(loggamma_measure(beta)), c),
    )


def hyp_ratio_constant(a, c, a2, c2):
    """Gamma-free boundary constant for the shifted hypergeometric pair."""
    den = (c - 1.0) * (c - 2.0) * (c2 - a2 - 1.0) * (c2 - a2 - 2.0)
    if den == 0.0:
        raise ValueError("ratio constant undefined: denominator factor vanishes")
    return ((c2 - 1.0) * (c2 - 2.0) * (c - a - 1.0) * (c - a - 2.0)) / den


def shifted_2f1_deriv_limit(a, c):
    """Boundary limit (c-1)(c-2)/((c-a-1)(c-a-2)) of the derivative, ``Beta(a, c).endpoint_moment(2)``.

    Raises ``ValueError`` where that is infinite: c - a <= 2 up to rounding.
    """
    limit = Beta(a, c).endpoint_moment(2)
    if not math.isfinite(limit):
        raise ValueError("finite derivative limit needs c - a > 2")
    return limit


def shifted_2f1_deriv_limit_quad(a, c):
    """The same limit as the endpoint moment ``integral of (1 - t)**-2`` of the beta(a, c) density.

    :func:`shifted_2f1_deriv_limit` returns this same value, so this is no
    independent check of it; it is +inf where that one raises (c - a <= 2).
    No quadrature is left; the name is kept for callers.
    """
    return Beta(a, c).endpoint_moment(2)


def certify_hypergeom_map(a, c, a2, c2, b, k, grid=None, spot_check=True):
    """Certificate for the shifted hypergeometric pair map with scale b.

    Branch (i): a >= a2, c - a <= c2 - a2 and 2b <= k < 1.  Branch (ii):
    a2 >= a, 2 < c2 - a2 <= c - a and b M <= k with the gamma-free constant
    M; that branch also reports the closed-form derivative limit h'(1-).
    Its test 2 < c2 - a2 is g'(1-) < inf, read from the beta(a2, c2)
    endpoint moment, so a c2 - a2 that equals 2 up to rounding counts as
    divergent here as it does in :func:`certify_qc_boundary_limit`.
    Parameters that are NaN or infinite are refused.
    """
    _check_finite(a=a, c=c, a2=a2, c2=c2, b=b)
    if not (c > a > 0 and c2 > a2 > 0):
        raise ValueError("parameters must satisfy c > a > 0 and c2 > a2 > 0")
    if not b >= 0.0:
        raise ValueError("b must be nonnegative")

    method = None
    details = {}
    if a >= a2 and (c - a) <= (c2 - a2) and 2.0 * b <= k:
        method = "hypergeom"
        details["branch"] = "floor"
        details["claimed_bound"] = 2.0 * b
    elif a2 >= a and math.isfinite(Beta(a2, c2).endpoint_moment(2)) and (c2 - a2) <= (c - a):
        m_const = hyp_ratio_constant(a, c, a2, c2)
        details["branch"] = "boundary-limit"
        details["M"] = m_const
        details["h_deriv_limit_closed"] = shifted_2f1_deriv_limit(a, c)
        if b * m_const <= k:
            method = "hypergeom"
            details["claimed_bound"] = b * m_const
    if method is None:
        return QCCertificate(
            "hypergeom", k, "inconclusive",
            details={"reason": "no branch hypothesis satisfied"},
        )
    return _spot_checked(
        method, k, details, grid, spot_check,
        lambda: HarmonicMap(shifted(beta_measure(a, c)), shifted(beta_measure(a2, c2)), b),
    )
