"""grid-sweeps: every grid sweep on seeded harmonic maps, in process.

Measures are drawn the way tests/conftest.random_measure draws them
(1-2 atoms, random weights, beta a in [0.6, 3] and c - a in [0.6, 3],
loggamma alpha in [0.8, 3]), plus piecewise-linear table densities.  The
family make-up of each map role is fixed, so every pass asks the kernels
for about the same number of terms whatever the seed; only parameters,
weights, atoms and c vary.  Each pass holds one map whose parts share one
measure (as acceptance criterion 12 does) and one whose parts differ; each
part of each map gets its own membership probe.
"""

import random

from common import INCONCLUSIVE, OK, Call, close

SHARED_FAMILIES = ("beta", "loggamma")
DISTINCT_FAMILIES = (("lebesgue", "table"), ("beta", "loggamma"))
HARNACK_M = 1.0
# A log-power rule grows with alpha, so each pass takes one alpha from each half
ALPHA_STRATA = ((0.8, 1.9), (1.9, 3.0))


def _density(rng, family, w, alpha_range=(0.8, 3.0)):
    if family == "lebesgue":
        return {"family": "lebesgue", "w": w}
    if family == "beta":
        a = rng.uniform(0.6, 3.0)
        return {"family": "beta", "a": a, "c": a + rng.uniform(0.6, 3.0), "w": w}
    if family == "loggamma":
        return {"family": "loggamma", "alpha": rng.uniform(*alpha_range), "w": w}
    inner = sorted(rng.uniform(0.05, 0.95) for _ in range(2))
    return {
        "family": "table",
        "grid": [0.0, inner[0], inner[1], 1.0],
        "values": [rng.uniform(0.1, 2.0) for _ in range(4)],
        "w": w,
    }


def measure_spec(rng, families, alpha_range=(0.8, 3.0)):
    n_atoms = rng.randint(1, 2)
    weights = [rng.random() + 0.1 for _ in range(n_atoms + len(families))]
    total = sum(weights)
    weights = [w / total for w in weights]
    return {
        "atoms": [{"t": rng.random(), "w": w} for w in weights[:n_atoms]],
        "densities": [_density(rng, fam, w, alpha_range) for fam, w in zip(families, weights[n_atoms:])],
    }


def make_plan(seed):
    """Pure data for two passes: the warm-up, then the timed one."""
    rng = random.Random(f"grid-sweeps:{seed}")
    plan = []
    for _ in range(2):
        c = rng.uniform(0.1, 0.85)
        shared = {
            "mu": measure_spec(rng, SHARED_FAMILIES, ALPHA_STRATA[0]),
            "c": c,
            "k": c + rng.choice((-0.05, 0.05)),
        }
        distinct = {
            "mu": measure_spec(rng, DISTINCT_FAMILIES[0]),
            "nu": measure_spec(rng, DISTINCT_FAMILIES[1], ALPHA_STRATA[1]),
            "c": rng.uniform(0.1, 0.85),
            "k": rng.uniform(0.3, 0.95),
        }
        plan.append([shared, distinct])
    return plan


def grid_spec(size):
    import cmharmonic as C

    return C.GridSpec(nr=4, ntheta=8, nx=10, ny=10) if size == "tiny" else C.GridSpec()


def _map_calls(C, spec, grid, shared):
    mu = C.measure_from_dict(spec["mu"])
    nu = mu if shared else C.measure_from_dict(spec["nu"])
    f = C.HarmonicMap(C.shifted(mu), C.shifted(nu), spec["c"])
    c, k = spec["c"], spec["k"]

    def check_qc(cert):
        if cert.status == INCONCLUSIVE:
            return INCONCLUSIVE
        sup = cert.sup_estimate
        if cert.status != ("certified" if sup <= k else "violated"):
            return f"status {cert.status} disagrees with sup {sup!r} against k {k!r}"
        if shared:
            # g = h, so the dilatation is c at every node
            return OK if abs(sup - c) <= 1e-12 else f"sup {sup!r} != c {c!r}"
        at = complex(cert.details["argsup_re"], cert.details["argsup_im"])
        ref = abs(f.dilatation(at))  # adaptive quadrature, not the fixed rule
        return OK if close(sup, ref, 1e-8) else f"sup {sup!r} but adaptive |w| {ref!r} at {at!r}"

    def check_modulus(rep):
        return OK if rep.passed else f"radial modulus bound failed: {rep.to_dict()}"

    def check_signs(rep):
        if shared and not rep.im_checked:
            return f"mu - c mu probe refused: {rep.im_skip_reason}"
        return OK if rep.passed else f"sign violations re={rep.violations_re} im={rep.violations_im}"

    def check_ratio(sup):
        # the ratio sup of this class lies in [1, 4] (acceptance criterion 5)
        return OK if 1.0 - 1e-12 <= sup < 4.0 else f"ratio sup {sup!r} outside [1, 4)"

    def check_harnack(rep):
        # the floor may fail for a mixture; when it holds, the ratio bound must follow
        if not rep.hypothesis_holds:
            return OK if rep.min_re_observed <= -HARNACK_M else f"floor {rep.min_re_observed!r} refused"
        return OK if rep.ratio_within_bound else f"ratio sup {rep.ratio_sup!r} above e^2"

    def check_member(rep):
        return OK if rep.consistent and rep.skipped == 0 else f"membership probe: {rep.to_dict()}"

    return [
        Call("certify_qc_grid", lambda: C.certify_qc_grid(f, k, grid=grid), check_qc),
        Call("check_modulus_bound", lambda: C.check_modulus_bound(f, samples=grid.disk_points()), check_modulus),
        Call("check_partial_signs", lambda: C.check_partial_signs(f, grid=grid), check_signs),
        Call("derivative_ratio_sup", lambda: C.derivative_ratio_sup(f.h, grid=grid), check_ratio),
        Call("harnack_ratio_bound", lambda: C.harnack_ratio_bound(f.h, HARNACK_M, grid=grid), check_harnack),
        Call("check_membership", lambda: C.check_membership(f.h.base, grid=grid), check_member),
        Call("check_membership", lambda: C.check_membership(f.g.base, grid=grid), check_member),
    ]


def build(plan, size):
    """Construct every map of the plan; returns one list of calls per pass."""
    import cmharmonic as C

    grid = grid_spec(size)
    return [
        _map_calls(C, shared, grid, True) + _map_calls(C, distinct, grid, False)
        for shared, distinct in plan
    ]

