"""Finite-difference calculus on real sequences and complete-monotonicity tests.

A finite prefix ``a_0..a_N`` can only witness the difference inequalities
with ``n + k <= N``, so a passing verdict here is *prefix-feasible* evidence,
never a proof about the full sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import _check_tol

__all__ = [
    "MomentSequence",
    "DifferenceTable",
    "CMVerdict",
    "forward_difference",
    "is_completely_monotone",
    "hadamard",
    "leibniz_rhs",
]


@dataclass(frozen=True, init=False)
class MomentSequence:
    """Finite prefix ``a_0..a_N`` (finite entries) of a candidate completely monotone sequence."""

    values: tuple

    def __init__(self, values):
        vals = tuple(float(v) for v in values)
        if len(vals) < 1:
            raise ValueError("a moment sequence needs at least one entry")
        bad = next((n for n, v in enumerate(vals) if not math.isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"moment sequence entries must be finite, got a_{bad}={vals[bad]!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    @property
    def order(self):
        """Largest index N of the stored prefix."""
        return len(self.values) - 1

    @cached_property
    def table(self):
        return DifferenceTable.from_sequence(self)


class DifferenceTable:
    """Triangular array ``D[k][n]`` of iterated forward differences.

    Built once in O(N^2) with a fixed left-to-right subtraction order,
    ``D[k][n] = D[k-1][n] - D[k-1][n+1]``, so repeated queries and the
    product-rule check in :func:`leibniz_rhs` see the exact same floats.
    """

    def __init__(self, rows):
        self.rows = rows

    @classmethod
    def from_sequence(cls, seq):
        values = seq.values if isinstance(seq, MomentSequence) else tuple(seq)
        rows = [np.asarray(values, dtype=float)]
        for _ in range(len(values) - 1):
            prev = rows[-1]
            rows.append(prev[:-1] - prev[1:])
        return cls(rows)

    @property
    def order(self):
        return len(self.rows) - 1

    def value(self, k, n):
        if k < 0 or n < 0:
            raise IndexError("difference indices must be nonnegative")
        if n + k > self.order:
            raise IndexError(
                f"difference ({k}, {n}) needs a_{n + k}, but the prefix stops at a_{self.order}"
            )
        return float(self.rows[k][n])


@dataclass(frozen=True)
class CMVerdict:
    """Outcome of a prefix complete-monotonicity scan.

    ``holds`` means every difference with ``n + k <= order`` cleared the
    tolerance (prefix-feasible only).  On failure, ``(k, n, value)`` locate
    the lexicographically first violation.
    """

    holds: bool
    order: int
    tol: float
    k: int | None = None
    n: int | None = None
    value: float | None = None

    def __bool__(self):
        return self.holds

    def to_dict(self):
        if self.holds:
            return {"verdict": "holds", "scope": "prefix-feasible", "order": self.order, "tol": self.tol}
        return {
            "verdict": "violated",
            "k": self.k,
            "n": self.n,
            "value": self.value,
            "order": self.order,
            "tol": self.tol,
        }

    def describe(self):
        if self.holds:
            return f"prefix-feasible up to N={self.order} (tol={self.tol:g})"
        return (
            f"violated at (k={self.k}, n={self.n}): "
            f"difference {self.value:.17g} < -{self.tol:g}"
        )


def forward_difference(seq, k, n):
    """Iterated forward difference of ``seq`` at (k, n); order 0 is the entry itself."""
    seq = seq if isinstance(seq, MomentSequence) else MomentSequence(seq)
    return seq.table.value(k, n)


def is_completely_monotone(seq, tol=0.0):
    """Scan every difference of the prefix for negativity beyond ``tol``.

    Differences are visited in lexicographic (k, n) order so the reported
    violation is the first one.  ``tol`` must be finite and nonnegative.
    """
    _check_tol(tol)
    seq = seq if isinstance(seq, MomentSequence) else MomentSequence(seq)
    table = seq.table
    for k, row in enumerate(table.rows):
        for n, entry in enumerate(row):
            if entry < -tol:
                return CMVerdict(False, table.order, tol, k, n, float(entry))
    return CMVerdict(True, table.order, tol)


def hadamard(seq_a, seq_b):
    """Coefficientwise product of two equal-length prefixes.

    Products of prefixes that both pass the monotonicity scan pass it as
    well, up to floating slack.
    """
    seq_a = seq_a if isinstance(seq_a, MomentSequence) else MomentSequence(seq_a)
    seq_b = seq_b if isinstance(seq_b, MomentSequence) else MomentSequence(seq_b)
    if len(seq_a) != len(seq_b):
        raise ValueError(f"length mismatch: {len(seq_a)} vs {len(seq_b)}")
    values = tuple(x * y for x, y in zip(seq_a.values, seq_b.values))
    return MomentSequence(values)


def leibniz_rhs(table_a, table_b, k, n):
    """Product-rule expansion of a k-th difference of a product sequence.

    Evaluates ``sum_j C(k, j) * D_a[k-j][n+j] * D_b[j][n]`` with j running
    left to right, each term formed as ``(binomial * a-factor) * b-factor``
    and added to the running total in that order.  On dyadically quantized
    inputs every operation is exact, so the result matches the difference
    table of the product sequence bit for bit.
    """
    total = 0.0
    for j in range(k + 1):
        coeff = float(math.comb(k, j))
        total += (coeff * table_a.value(k - j, n + j)) * table_b.value(j, n)
    return total
