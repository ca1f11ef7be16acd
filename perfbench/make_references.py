"""Write perfbench/references.json: offline reference values for boundary-certs.

Run once from the repository root (needs mpmath, which the benchmark itself
never imports):

    python3 perfbench/make_references.py > perfbench/references.json

The benchmark draws the parameters of every boundary-certs case from the
tables below by seed, so each reference it checks against was computed here
at 30 significant digits and rounded to a double.
"""

import json
import sys

import mpmath as mp

mp.mp.dps = 30

JS = (1, 2, 3, 4, 5, 6)  # pointwise probes at x = 1 - 10**-j


def num(x):
    return float(x)


def grid(lo, hi, count):
    """count values spread evenly over [lo, hi], rounded to 4 decimals."""
    step = (hi - lo) / count
    return [round(lo + (i + 0.5) * step, 4) for i in range(count)]


def beta_deriv_limit(a, c):
    """h'(1-) = integral of (1-t)**-2 d beta(a, c) = G(c)G(c-a-2)/(G(c-a)G(c-2))."""
    a, c = mp.mpf(a), mp.mpf(c)
    return mp.gamma(c) * mp.gamma(c - a - 2) / (mp.gamma(c - a) * mp.gamma(c - 2))


def loggamma_entry(alpha):
    al = mp.mpf(alpha)
    out = {"alpha": alpha, "zeta": num(mp.zeta(al))}
    if alpha > 2:
        out["zeta_minus_1"] = num(mp.zeta(al - 1))
    out["F"] = [num(mp.lerchphi(1 - mp.mpf(10) ** -j, al, 1)) for j in JS]
    out["hprime"] = [num(mp.lerchphi(1 - mp.mpf(10) ** -j, al - 1, 1)) for j in JS]
    return out


def beta_entry(a, c):
    am, cm = mp.mpf(a), mp.mpf(c)
    return {
        "a": a,
        "c": c,
        # F(1-) = integral of (1-t)**-1 d beta(a, c) = (c-1)/(c-a-1)
        "limit": num(mp.gamma(cm) * mp.gamma(cm - am - 1) / (mp.gamma(cm - am) * mp.gamma(cm - 1))),
        "F": [num(mp.hyp2f1(am, 1, cm, 1 - mp.mpf(10) ** -j)) for j in JS],
        "hprime": [num(mp.hyp2f1(am, 2, cm, 1 - mp.mpf(10) ** -j)) for j in JS],
    }


def pair_entry(a, c, a2, c2):
    """Beta pair with a2 >= a and 2 < c2-a2 <= c-a: lim g'/h' at 1 is finite."""
    h1 = beta_deriv_limit(a, c)
    g1 = beta_deriv_limit(a2, c2)
    return {"a": a, "c": c, "a2": a2, "c2": c2, "h_deriv_limit": num(h1), "M": num(g1 / h1)}


def pairs():
    """Comfortable pairs: c2 - a2 >= 2.8 keeps the thm1.9 boundary-limit search
    short (0.06 to 0.2 s); nearer 2 it takes up to 1.9 s, which would make the
    cost of a pass depend on the seed.  The ROADMAP pair covers the near case."""
    out = []
    rows = 16
    for i in range(rows):
        a = round(0.5 + 1.5 * (i + 0.5) / rows, 4)
        gap = round(3.0 + 0.6 * ((7 * i) % rows + 0.5) / rows, 4)  # c - a in (3.0, 3.6)
        a2 = round(a + 0.05 + 0.4 * ((5 * i) % rows) / rows, 4)
        gap2 = round(2.8 + (gap - 2.85) * ((3 * i) % rows + 0.5) / rows, 4)  # (2.8, gap)
        out.append(pair_entry(a, round(a + gap, 4), a2, round(a2 + gap2, 4)))
    return out


def main():
    beta_near = [(round(0.5 + 2.5 * ((3 * i) % 12 + 0.5) / 12, 4), g) for i, g in enumerate(grid(1.05, 1.5, 12))]
    beta_far = [(round(0.5 + 2.5 * ((5 * i) % 12 + 0.5) / 12, 4), g) for i, g in enumerate(grid(1.5, 3.0, 12))]
    refs = {
        "command": "python3 perfbench/make_references.py > perfbench/references.json",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "js": list(JS),
        "loggamma_near": [loggamma_entry(al) for al in grid(1.05, 1.5, 12)],
        "loggamma_far": [loggamma_entry(al) for al in grid(2.05, 4.0, 12)],
        "beta_near": [beta_entry(a, round(a + g, 4)) for a, g in beta_near],
        "beta_far": [beta_entry(a, round(a + g, 4)) for a, g in beta_far],
        "pairs": pairs(),
        # the cases ROADMAP aim 3 lists, with their closed-form answers
        "fixed": {
            "loggamma_limits": [loggamma_entry(1.2), loggamma_entry(1.05)],
            "beta_limits": [beta_entry(1.0, 2.2), beta_entry(1.0, 2.05)],
            "thm19_pair": dict(pair_entry(1.0, 3.3, 1.2, 3.4), scale=0.5, k=0.85, verdict="violated"),
            "beta_0.5_2.7_hprime_limit": num(beta_deriv_limit(0.5, 2.7)),
            "harmonic_prefix": {"sequence": "1/(n+1)", "verdict": "holds", "tol": 1e-9},
        },
    }
    json.dump(refs, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
