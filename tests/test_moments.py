from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmharmonic.moments import (
    DifferenceTable,
    MomentSequence,
    forward_difference,
    hadamard,
    is_completely_monotone,
    leibniz_rhs,
)
from conftest import random_cm_prefix


def exact_difference(values, k, n):
    """Independent oracle: the difference recursion in exact rational arithmetic."""
    rows = [[Fraction(v) for v in values]]
    for _ in range(k):
        prev = rows[-1]
        rows.append([a - b for a, b in zip(prev, prev[1:])])
    return rows[k][n]


def test_constant_sequence_vanishes():
    seq = MomentSequence([1.0, 1.0, 1.0, 1.0])
    assert forward_difference(seq, 2, 0) == 0.0


def test_geometric_first_difference():
    seq = MomentSequence([0.5**n for n in range(4)])
    assert forward_difference(seq, 1, 0) == pytest.approx(0.5, abs=1e-15)


def test_harmonic_second_difference_integral_oracle():
    # the k-th difference of 1/(n+1) equals the beta integral of t^n (1-t)^k;
    # for (k, n) = (2, 0) that is exactly 1/3
    seq = MomentSequence([1.0 / (n + 1) for n in range(5)])
    assert forward_difference(seq, 2, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_difference_matches_rational_oracle():
    values = [1.0, 0.61, 0.4, 0.28, 0.21, 0.17]
    table = DifferenceTable.from_sequence(values)
    for k in range(6):
        for n in range(6 - k):
            assert table.value(k, n) == pytest.approx(
                float(exact_difference(values, k, n)), abs=1e-12
            )


def test_table_invariants():
    seq = MomentSequence([1.0, 0.4, 0.3, 0.25])
    table = seq.table
    assert list(table.rows[0]) == list(seq.values)
    for k in range(1, table.order + 1):
        for n in range(table.order - k + 1):
            assert table.rows[k][n] == table.rows[k - 1][n] - table.rows[k - 1][n + 1]


def test_out_of_range():
    seq = MomentSequence([1.0, 0.5])
    with pytest.raises(IndexError):
        forward_difference(seq, 1, 1)
    with pytest.raises(IndexError):
        forward_difference(seq, -1, 0)


def test_cm_verdict_holds():
    assert is_completely_monotone(MomentSequence([1.0, 0.5, 0.25, 0.125])).holds
    verdict = is_completely_monotone(MomentSequence([1.0 / (n + 1) for n in range(7)]))
    assert verdict.holds
    assert "prefix-feasible" in verdict.describe()


def test_cm_verdict_violation_location_and_value():
    verdict = is_completely_monotone(MomentSequence([1.0, 0.9, 0.5]))
    assert not verdict
    assert (verdict.k, verdict.n) == (2, 0)
    assert verdict.value == pytest.approx(-0.3, abs=1e-15)


def test_cm_lexicographic_first_violation():
    # increasing step at n=2 gives a k=1 violation before any k=2 one
    verdict = is_completely_monotone(MomentSequence([1.0, 0.2, 0.1, 0.5]))
    assert verdict.k == 1 and verdict.n == 2


def test_cm_tolerance():
    seq = MomentSequence([1.0, 0.9, 0.79])  # convexity off by exactly 0.01
    assert not is_completely_monotone(seq, tol=0.0).holds
    assert is_completely_monotone(seq, tol=0.02).holds
    with pytest.raises(ValueError):
        is_completely_monotone(seq, tol=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entries_and_tolerances_are_rejected(bad):
    # a NaN entry or tol fails every comparison, so it would pass the scan
    with pytest.raises(ValueError, match="must be finite"):
        MomentSequence([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="must be finite"):
        is_completely_monotone([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="must be finite"):
        is_completely_monotone(MomentSequence([1.0, 2.0, 3.0]), tol=bad)


def test_hadamard_identity_and_geometric():
    ones = MomentSequence([1.0, 1.0, 1.0])
    geo = MomentSequence([1.0, 0.5, 0.25])
    assert hadamard(ones, geo).values == geo.values
    a = MomentSequence([0.5**n for n in range(4)])
    b = MomentSequence([(1.0 / 3.0) ** n for n in range(4)])
    prod = hadamard(a, b)
    for n in range(4):
        assert prod.values[n] == pytest.approx(6.0**-n, abs=1e-15)


def test_hadamard_square_of_harmonic_is_cm():
    h = MomentSequence([1.0 / (n + 1) for n in range(7)])
    assert is_completely_monotone(hadamard(h, h)).holds


def test_hadamard_length_mismatch():
    with pytest.raises(ValueError):
        hadamard(MomentSequence([1.0, 0.5]), MomentSequence([1.0]))


def test_normalized_flag():
    with pytest.raises(ValueError):
        MomentSequence([])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=10))
def test_leibniz_identity_exact(seed, order):
    # dyadically quantized prefixes make both evaluation orders exact,
    # so the product rule must hold bit for bit
    rng = np.random.default_rng(seed)
    a = random_cm_prefix(rng, order)
    b = random_cm_prefix(rng, order)
    ta, tb = a.table, b.table
    tp = hadamard(a, b).table
    for k in range(order + 1):
        for n in range(order - k + 1):
            assert tp.value(k, n) == leibniz_rhs(ta, tb, k, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_cm_closure_under_hadamard(seed):
    rng = np.random.default_rng(seed)
    a = random_cm_prefix(rng, 10)
    b = random_cm_prefix(rng, 10)
    assert is_completely_monotone(a, tol=0.0).holds
    assert is_completely_monotone(b, tol=0.0).holds
    assert is_completely_monotone(hadamard(a, b), tol=1e-12).holds
