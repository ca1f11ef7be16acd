"""Shared path setup and deterministic random generators for the suite."""

import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

# Every run draws the same examples, so two runs of the suite compare code, not draws.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cmharmonic.measures import Atom, Beta, LogGamma, Measure  # noqa: E402
from cmharmonic.moments import MomentSequence  # noqa: E402


def random_cm_prefix(rng, order=12):
    """Random prefix with every iterated difference nonnegative by construction.

    The free boundary values (the rightmost entry of each difference row)
    are drawn from {0, 1/256, ..., 15/256} and the triangle is integrated
    back up with D[k][n] = D[k+1][n] + D[k][n+1].  All entries are then
    dyadic with 8 fractional bits and magnitude below 2**8, so products,
    binomial scalings and sums of such prefixes stay exactly representable
    in double precision: the product-rule identity tests can demand
    bit-for-bit equality.
    """
    edge = rng.integers(0, 16, size=order + 1) / 256.0
    if edge[0] == 0.0:
        edge[0] = 1.0 / 256.0
    rows = [None] * (order + 1)
    rows[order] = [float(edge[order])]
    for k in range(order - 1, -1, -1):
        row = [0.0] * (order - k + 1)
        row[order - k] = float(edge[k])
        for n in range(order - k - 1, -1, -1):
            row[n] = rows[k + 1][n] + row[n + 1]
        rows[k] = row
    return MomentSequence(rows[0])


def random_measure(rng, max_atoms=2, with_densities=True):
    """Random normalized measure mixing atoms and well-behaved densities."""
    n_atoms = int(rng.integers(0, max_atoms + 1))
    n_dens = int(rng.integers(0, 3)) if with_densities else 0
    if n_atoms + n_dens == 0:
        n_atoms = 1
    weights = rng.random(n_atoms + n_dens) + 0.1
    weights = weights / weights.sum()
    atoms = tuple(Atom(float(rng.random()), float(w)) for w in weights[:n_atoms])
    dens = []
    for w in weights[n_atoms:]:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            dens.append(Beta(1.0, 2.0, float(w)))
        elif kind == 1:
            a = float(rng.uniform(0.6, 3.0))
            dens.append(Beta(a, a + float(rng.uniform(0.6, 3.0)), float(w)))
        else:
            dens.append(LogGamma(float(rng.uniform(0.8, 3.0)), float(w)))
    return Measure(atoms, tuple(dens))


def random_disk_points(rng, count, rmax=0.95):
    r = rmax * np.sqrt(rng.random(count))
    theta = 2.0 * np.pi * rng.random(count)
    return r * np.exp(1j * theta)
