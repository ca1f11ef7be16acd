"""boundary-certs: boundary limits, closed-form certificates and CM prefixes, in process.

Every parameter is drawn by seed from the tables in references.json, whose
answers were computed offline with mpmath (see make_references.py).  Draws
are stratified, one per slice of each table (for the near-critical tables,
one per band of today's verdicts), so every pass holds the same mix of
near-critical and comfortable exponents and the same number of cases the
program gets wrong today.  The cases ROADMAP aim 3 lists are in every pass
as they stand.

A call carries a ``defect`` label only when the case it draws is one the
program as it stands gets wrong (each table was run through in full to
find out): ROADMAP item A (boundary-limit heuristics), item D (CM prefix
rounding), or "loggamma moments" (found while writing this benchmark, see
README.md).  Such a call still counts as failed when it
disagrees with the reference; every other call that fails marks the run
incorrect.
"""

import json
import math
import random
from pathlib import Path

from common import INCONCLUSIVE, OK, Call, close

REFS = Path(__file__).resolve().parent / "references.json"
REL_TOL = 1e-8  # values against mpmath references
CM_TOL = 1e-9  # the CLI's default slack for check-cm
# Moments: every even n <= 30 of a mixed measure, and four of a log-power
# measure.  About 70% of the calls in a pass are then short (a millisecond or
# two) and the rest take 0.1 to 2 s, so the median sits inside the short
# calls and the 90th percentile inside the long ones, not on an edge.  Of
# the log-power moments only n = 23 misses the closed form for every alpha
# of the table (the miss moves from n = 20..23 to n = 23..26 as alpha falls).
MIXED_ORDERS = range(0, 31, 2)
LOGGAMMA_ORDERS = (5, 15, 23, 30)
LOGGAMMA_MISSED = 23
# CM prefixes: 1/(n+1) is reported violated for every N >= 40, the beta and
# log-power prefixes of the tables for every N >= 48 and N >= 56.
CM_ORDERS = {"cm.harmonic": (40, 200), "cm.beta": (56, 200), "cm.loggamma": (56, 200)}
# Near-critical limits: limit_at_one gives a wrong finite value on these
# entries of each table (exponent about 1.18 to 1.29 for loggamma, 1.18 to
# 1.33 for beta), an honest "inconclusive" below them and the right value
# above them.
WRONG_NEAR_LIMITS = {"loggamma_near": range(3, 7), "beta_near": range(3, 8)}


def load_refs():
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


def _strata(rng, table, count):
    """One entry from each of ``count`` equal slices of ``table``."""
    size = len(table) // count
    return [table[i * size + rng.randrange(size)] for i in range(count)]


def _near_bands(rng, refs, name):
    """One entry from each band of a near-critical table, with its known-defect label.

    The bands are the entries below those limit_at_one gets wrong today,
    those, and the entries above them, so every pass holds exactly one
    wrong case per table whatever the seed.  One draw places all three
    picks, the middle band read backwards: cost falls with the exponent,
    so a dear pick in one band meets a cheap one in the next.
    """
    wrong = WRONG_NEAR_LIMITS[name]
    bands = (range(wrong.start), wrong[::-1], range(wrong.stop, len(refs[name])))
    u = rng.random()
    return [dict(refs[name][i], defect="A" if i in wrong else None) for i in (b[int(u * len(b))] for b in bands)]


def _scaled_target(rng, m_const):
    """Scale s with s*M comfortably below 1, and a k that sits 8% above or below s*M."""
    target = rng.uniform(0.4, 0.85)
    return target / m_const, target * rng.choice((0.92, 1.08))


def make_plan(seed):
    """Pure data for two passes, references included: the warm-up, then the timed one."""
    refs = load_refs()
    rng = random.Random(f"boundary-certs:{seed}")
    plan = []
    for _ in range(2):
        far = _strata(rng, refs["loggamma_far"], 2)
        pair, hyp_pair = rng.sample(refs["pairs"], 2)
        poly_hi, poly_lo = sorted(rng.sample(refs["loggamma_far"], 2), key=lambda e: -e["alpha"])
        n_atoms = rng.randint(1, 2)
        weights = [rng.random() + 0.1 for _ in range(n_atoms + 2)]
        total = sum(weights)
        plan.append({
            "lg_near": _near_bands(rng, refs, "loggamma_near"),  # limit cost falls 4x over the table
            "lg_far": far,
            "beta_near": _near_bands(rng, refs, "beta_near"),
            "beta_far": _strata(rng, refs["beta_far"], 2),
            # pointwise probes: 3 + 3 measures, each at one j in 1..3 and one in 4..6
            "points": [
                (family, e, [rng.randrange(3), 3 + rng.randrange(3)])
                for family in ("loggamma", "beta")
                for e in _strata(rng, refs[family + "_far"], 3)
            ],
            "pair": dict(pair, scale_k=_scaled_target(rng, pair["M"])),
            "hyp": dict(hyp_pair, scale_k=_scaled_target(rng, hyp_pair["M"])),
            "poly": {"alpha": poly_hi, "beta": poly_lo, "target": rng.uniform(0.4, 0.85)},
            "moment_measure": {
                "atoms": [rng.random() for _ in range(n_atoms)],
                "beta": rng.choice(refs["beta_far"]),
                "loggamma": rng.choice(refs["loggamma_far"]),
                "weights": [w / total for w in weights],
            },
            "cm_orders": {name: rng.randint(*span) for name, span in CM_ORDERS.items()},
            "cm_beta": rng.choice(refs["beta_far"]),
            "cm_loggamma": rng.choice(refs["loggamma_far"]),
            "fixed": refs["fixed"],
            "js": refs["js"],
        })
    return plan


# -- exact moments, for the CM prefixes and the moment references -------------


def beta_moments(a, c, count):
    out = [1.0]
    for n in range(count - 1):
        out.append(out[-1] * (a + n) / (c + n))
    return out


def loggamma_moments(alpha, count):
    return [(n + 1.0) ** -alpha for n in range(count)]


# -- checks ------------------------------------------------------------------------


def _limit_check(ref):
    def check(ext):
        if ext.inconclusive:
            return INCONCLUSIVE
        if not ext.is_finite:
            return f"+inf, but the limit is {ref!r}"
        return OK if close(ext.value, ref, REL_TOL) else f"{ext.value!r}, reference {ref!r}"

    return check


def _value_check(ref, rel=REL_TOL):
    def check(val):
        val = complex(val)
        if abs(val.imag) > rel * max(1.0, abs(ref)):
            return f"imaginary part {val.imag!r} on the real axis"
        return OK if close(val.real, ref, rel) else f"{val.real!r}, reference {ref!r}"

    return check


def _certificate_check(expected):
    def check(cert):
        if cert.status == INCONCLUSIVE and expected != INCONCLUSIVE:
            return INCONCLUSIVE
        return OK if cert.status == expected else f"{cert.status}, reference {expected}"

    return check


def _cm_check(cm):
    if cm.holds:
        return OK
    return f"violated at (k={cm.k}, n={cm.n}) by {cm.value!r}; exact moments are CM"


def build(plan, size):
    """Construct every measure of the plan; returns one list of calls per pass."""
    import cmharmonic as C

    unresolved = (C.QuadratureError,)  # documented: tolerance not reached
    passes = []
    for p in plan:
        calls = []
        fixed = p["fixed"]

        def limit(name, mu, ref, defect=None):
            F = C.CauchyTransform(mu)
            calls.append(Call(name, F.limit_at_one, _limit_check(ref), defect))

        for e in p["lg_near"]:
            limit("limit_at_one.loggamma_near", C.loggamma_measure(e["alpha"]), e["zeta"], e["defect"])
        for e in p["lg_far"]:
            limit("limit_at_one.loggamma", C.loggamma_measure(e["alpha"]), e["zeta"])
        for e in p["beta_near"]:
            limit("limit_at_one.beta_near", C.beta_measure(e["a"], e["c"]), e["limit"], e["defect"])
        for e in p["beta_far"]:
            limit("limit_at_one.beta", C.beta_measure(e["a"], e["c"]), e["limit"])
        for e in fixed["loggamma_limits"]:
            limit("limit_at_one.roadmap", C.loggamma_measure(e["alpha"]), e["zeta"], "A")
        for e in fixed["beta_limits"]:
            limit("limit_at_one.roadmap", C.beta_measure(e["a"], e["c"]), e["limit"], "A")

        # pointwise values and derivatives at x = 1 - 10**-j
        for family, e, idx in p["points"]:
            mu = C.loggamma_measure(e["alpha"]) if family == "loggamma" else C.beta_measure(e["a"], e["c"])
            h = C.shifted(mu)
            for i in idx if size == "full" else idx[:1]:
                x = 1.0 - 10.0 ** -p["js"][i]
                calls.append(Call("eval", lambda h=h, x=x: h.base.eval(x), _value_check(e["F"][i]),
                                  unresolved=unresolved))
                calls.append(Call("deriv", lambda h=h, x=x: h.deriv(x), _value_check(e["hprime"][i]),
                                  unresolved=unresolved))

        # special functions against their references
        e = p["lg_far"][0]
        calls.append(Call("zeta", lambda e=e: C.zeta(e["alpha"]), _value_check(e["zeta"], 1e-10)))
        calls.append(Call("zeta", lambda e=e: C.zeta(e["alpha"] - 1.0), _value_check(e["zeta_minus_1"], 1e-10)))
        for family, e, idx in p["points"]:
            if family == "beta":  # the Gauss series at the smaller j: it converges like x**n
                x = 1.0 - 10.0 ** -p["js"][idx[0]]
                calls.append(Call("hyp2f1", lambda e=e, x=x: C.hyp2f1(e["a"], 1.0, e["c"], x),
                                  _value_check(e["F"][idx[0]], 1e-9)))

        # h'(1-) by the quadrature route, against Gamma-function closed forms
        calls.append(Call(
            "shifted_2f1_deriv_limit_quad",
            lambda: C.shifted_2f1_deriv_limit_quad(0.5, 2.7),
            _value_check(fixed["beta_0.5_2.7_hprime_limit"], 1e-6),
            "A",
        ))

        # boundary-limit certificates: the ROADMAP pair, wrongly certified,
        # and a seeded pair with c2 - a2 >= 2.8 and k 8% from s*M, which
        # every pair of the table gets right
        t19 = fixed["thm19_pair"]
        for pair, scale, k, expected, defect in (
            (t19, t19["scale"], t19["k"], t19["verdict"], "A"),
            (p["pair"], *p["pair"]["scale_k"], None, None),
        ):
            h = C.shifted(C.beta_measure(pair["a"], pair["c"]))
            g = C.shifted(C.beta_measure(pair["a2"], pair["c2"]))
            expected = expected or ("certified" if scale * pair["M"] <= k else "violated")
            calls.append(Call(
                "certify_qc_boundary_limit",
                lambda h=h, g=g, scale=scale, k=k: C.certify_qc_boundary_limit(h, g, scale, k),
                _certificate_check(expected),
                defect,
            ))

        # closed-form certificates, without the grid spot check
        hp = p["hyp"]
        b, k = hp["scale_k"]

        def check_hyp(cert, hp=hp, b=b, k=k):
            expected = "certified" if b * hp["M"] <= k else INCONCLUSIVE
            if cert.status == INCONCLUSIVE:  # a failed branch test drops M from the details
                return OK if expected == INCONCLUSIVE else INCONCLUSIVE
            if not close(cert.details.get("M", math.nan), hp["M"], 1e-12):
                return f"M {cert.details.get('M')!r}, reference {hp['M']!r}"
            if not close(cert.details["h_deriv_limit_closed"], hp["h_deriv_limit"], 1e-12):
                return f"h'(1-) {cert.details['h_deriv_limit_closed']!r}, reference {hp['h_deriv_limit']!r}"
            return _certificate_check(expected)(cert)

        calls.append(Call(
            "certify_hypergeom_map",
            lambda hp=hp, b=b, k=k: C.certify_hypergeom_map(hp["a"], hp["c"], hp["a2"], hp["c2"], b, k, spot_check=False),
            check_hyp,
        ))
        po = p["poly"]
        ratio = po["beta"]["zeta_minus_1"] / po["alpha"]["zeta_minus_1"]
        c_poly, k_poly = po["target"] / ratio, po["target"] * 1.05

        def check_poly(cert, ratio=ratio):
            if not close(cert.details.get("zeta_ratio", math.nan), ratio, 1e-10):
                return f"zeta ratio {cert.details.get('zeta_ratio')!r}, reference {ratio!r}"
            return _certificate_check("certified")(cert)

        calls.append(Call(
            "certify_polylog_map",
            lambda a=po["alpha"]["alpha"], bb=po["beta"]["alpha"], c=c_poly, k=k_poly: C.certify_polylog_map(
                a, bb, c, k, spot_check=False
            ),
            check_poly,
        ))

        # moments against the closed forms: a mixed measure, and a log-power
        # measure whose moment n = LOGGAMMA_MISSED misses the requested 1e-12
        mm = p["moment_measure"]
        w = mm["weights"]
        n_atoms = len(mm["atoms"])
        spec = {
            "atoms": [{"t": t, "w": wt} for t, wt in zip(mm["atoms"], w)],
            "densities": [
                {"family": "beta", "a": mm["beta"]["a"], "c": mm["beta"]["c"], "w": w[n_atoms]},
                {"family": "lebesgue", "w": w[n_atoms + 1]},
            ],
        }
        bm = beta_moments(mm["beta"]["a"], mm["beta"]["c"], 31)
        mixed_refs = [
            sum(wt * t**n for t, wt in zip(mm["atoms"], w)) + w[n_atoms] * bm[n] + w[n_atoms + 1] / (n + 1.0)
            for n in range(31)
        ]
        for mu, refs_n, missed, orders in (
            (C.measure_from_dict(spec), mixed_refs, None, MIXED_ORDERS),
            (C.loggamma_measure(mm["loggamma"]["alpha"]), loggamma_moments(mm["loggamma"]["alpha"], 31),
             LOGGAMMA_MISSED, LOGGAMMA_ORDERS),
        ):
            for n in orders if size == "full" else orders[-2:]:
                defect = "loggamma moments" if n == missed else None
                calls.append(Call("moment", lambda mu=mu, n=n: mu.moment(n), _value_check(refs_n[n], 1e-10), defect,
                                  unresolved))

        # complete monotonicity of exact moment prefixes, N in CM_ORDERS
        orders = p["cm_orders"] if size == "full" else {name: lo for name, (lo, _) in CM_ORDERS.items()}
        seqs = (
            ("cm.harmonic", [1.0 / (n + 1.0) for n in range(orders["cm.harmonic"] + 1)]),
            ("cm.beta", beta_moments(p["cm_beta"]["a"], p["cm_beta"]["c"], orders["cm.beta"] + 1)),
            ("cm.loggamma", loggamma_moments(p["cm_loggamma"]["alpha"], orders["cm.loggamma"] + 1)),
        )
        for name, seq in seqs:
            calls.append(Call(
                name,
                lambda seq=seq: C.is_completely_monotone(C.MomentSequence(seq), tol=CM_TOL),
                _cm_check,
                "D",
            ))
        passes.append(calls)
    return passes
