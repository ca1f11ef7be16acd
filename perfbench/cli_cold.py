"""cli-cold: ``python -m cmharmonic`` over all 8 subcommands, one process per call.

One pass is 13 invocations: every subcommand, all 5 certify methods and
both verify-thm variants, on small specs drawn by seed.  The thm1.9 pair is
the one ROADMAP aim 3 lists, not a seeded one: the boundary-limit search
behind it costs 0.5 to 1.6 s depending on the pair, which would swamp
every other seed effect.  Its c is seeded and k sits 8% below c*M, where
the reference verdict is "violated" and the program certifies today
(ROADMAP item A), so every seed holds that one known-wrong case.  The
warm-up pass
records each invocation's stdout and exit code; every timed pass repeats
the same invocations, and any byte of stdout or exit code that differs
from the warm-up counts the call as failed (acceptance criterion 14).
Outputs are also checked against closed forms where one exists: the map
specs use atoms and the uniform density only, whose transforms are
elementary functions.
"""

import cmath
import json
import math
import random
import sys
from pathlib import Path

from boundary_certs import beta_moments, load_refs, loggamma_moments
from common import INCONCLUSIVE, OK, Call, Unexpected, close, cpu_seconds, run_child

EXIT_BY_STATUS = {"certified": 0, "violated": 1, "inconclusive": 2}


def _atoms_lebesgue(rng):
    n_atoms = rng.randint(1, 2)
    weights = [rng.random() + 0.1 for _ in range(n_atoms + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    return {
        "atoms": [{"t": rng.uniform(0.0, 0.95), "w": w} for w in weights[:n_atoms]],
        "densities": [{"family": "lebesgue", "w": weights[-1]}],
    }


def _dyadic_cm_prefix(rng, order):
    """Exactly representable CM prefix, built as tests/conftest.random_cm_prefix builds it."""
    edge = [rng.randrange(16) / 256.0 for _ in range(order + 1)]
    edge[0] = edge[0] or 1.0 / 256.0
    row = [edge[order]]
    for k in range(order - 1, -1, -1):
        new = [0.0] * (order - k + 1)
        new[-1] = edge[k]
        for n in range(order - k - 1, -1, -1):
            new[n] = row[n] + new[n + 1]
        row = new
    return row


def make_plan(seed):
    refs = load_refs()
    rng = random.Random(f"cli-cold:{seed}")
    lg = rng.choice(refs["loggamma_far"])
    be = rng.choice(refs["beta_far"])
    w = rng.uniform(0.2, 0.6)
    pair = refs["fixed"]["thm19_pair"]  # the ROADMAP pair; its cost does not move with the seed
    hyp = rng.choice(refs["pairs"])
    poly_hi, poly_lo = sorted(rng.sample(refs["loggamma_far"], 2), key=lambda e: -e["alpha"])
    target = rng.uniform(0.4, 0.85)
    r, theta = rng.uniform(0.2, 0.9), rng.uniform(0.0, 2.0 * math.pi)
    return {
        "seq": _dyadic_cm_prefix(rng, rng.randint(8, 16)),
        "mu": {
            "atoms": [{"t": rng.uniform(0.0, 0.95), "w": 1.0 - w}],
            "densities": [{"family": "loggamma", "alpha": lg["alpha"], "w": w / 2},
                          {"family": "beta", "a": be["a"], "c": be["c"], "w": w / 2}],
        },
        "map": {"h": _atoms_lebesgue(rng), "g": _atoms_lebesgue(rng), "c": rng.uniform(0.1, 0.8)},
        "z": [r * math.cos(theta), r * math.sin(theta)],
        "k": rng.uniform(0.3, 0.95),
        "pair": {"h": {"densities": [{"family": "beta", "a": pair["a"], "c": pair["c"], "w": 1.0}]},
                 "g": {"densities": [{"family": "beta", "a": pair["a2"], "c": pair["c2"], "w": 1.0}]},
                 "c": target / pair["M"], "M": pair["M"], "k": target * 0.92},
        "hyp": {"a": hyp["a"], "c": hyp["c"], "a2": hyp["a2"], "c2": hyp["c2"], "b": target / hyp["M"],
                "M": hyp["M"], "k": target * rng.choice((0.92, 1.08))},
        "poly": {"alpha": poly_hi["alpha"], "beta": poly_lo["alpha"],
                 "c": target * poly_hi["zeta_minus_1"] / poly_lo["zeta_minus_1"],
                 "zeta_ratio": poly_lo["zeta_minus_1"] / poly_hi["zeta_minus_1"]},
        "mu_refs": {"lg": lg["alpha"], "a": be["a"], "c": be["c"], "w": w},
    }


# -- closed forms for atoms plus the uniform density ------------------------------


def _transform(spec, z):
    """F(z) = integral of 1/(1 - t z) d mu."""
    total = sum(a["w"] / (1.0 - a["t"] * z) for a in spec.get("atoms", ()))
    for d in spec.get("densities", ()):
        total += d["w"] * (1.0 if z == 0 else -cmath.log(1.0 - z) / z)
    return total


def _hprime(spec, z):
    """h'(z) = integral of (1 - t z)**-2 d mu."""
    total = sum(a["w"] / (1.0 - a["t"] * z) ** 2 for a in spec.get("atoms", ()))
    for d in spec.get("densities", ()):
        total += d["w"] / (1.0 - z)
    return total


def _map_value(m, z):
    return z * _transform(m["h"], z) + m["c"] * (z * _transform(m["g"], z)).conjugate()


# -- invocations --------------------------------------------------------------------


def _invocations(plan, size, paths):
    p = plan
    z = complex(*p["z"])
    zarg = f"{z.real!r}{z.imag:+.17g}j"
    grid = ["--nr", "4", "--ntheta", "8", "--rect", "-3,0.99,0.01,3,10,10"] if size == "tiny" else []
    m = p["map"]

    def parsed(check):
        def inner(out):
            rc, stdout = out
            return check(rc, json.loads(stdout))

        return inner

    def check_cm(rc, out):
        return OK if rc == 0 and out["verdict"] == "holds" else f"exit {rc}, {out}"

    def check_moments(rc, out):
        r = p["mu_refs"]
        atom = p["mu"]["atoms"][0]
        bm = beta_moments(r["a"], r["c"], len(out))
        lm = loggamma_moments(r["lg"], len(out))
        for n, val in enumerate(out):
            ref = atom["w"] * atom["t"] ** n + r["w"] / 2 * (bm[n] + lm[n])
            if not close(val, ref, 1e-10):
                return f"moment {n}: {val!r}, reference {ref!r}"
        return OK if rc == 0 else f"exit {rc}"

    def check_eval(rc, out):
        ref = _map_value(m, z)
        val = complex(out["re"], out["im"])
        return OK if rc == 0 and abs(val - ref) <= 1e-9 * max(1.0, abs(ref)) else f"{val!r}, reference {ref!r}"

    def check_dilatation(rc, out):
        ref = m["c"] * _hprime(m["g"], z) / _hprime(m["h"], z)
        val = complex(out["re"], out["im"])
        return OK if rc == 0 and abs(val - ref) <= 1e-9 else f"{val!r}, reference {ref!r}"

    def check_status(extra=None):
        def check(rc, out):
            if rc != EXIT_BY_STATUS[out["status"]]:
                raise Unexpected(f"exit {rc} for status {out['status']}")
            return extra(out) if extra else OK

        return check

    def grid_status(out):
        sup = out["sup_estimate"]
        return OK if out["status"] == ("certified" if sup <= p["k"] else "violated") else f"{out}"

    def thm16(out):
        if not 1.0 - 1e-12 <= out["ratio_sup"] < 4.0:
            return f"ratio sup {out['ratio_sup']!r} outside [1, 4)"
        return grid_status(out)

    def thm17(out):
        if out["status"] == "inconclusive":
            return INCONCLUSIVE
        return OK if close(out["zeta_ratio"], p["poly"]["zeta_ratio"], 1e-10) else f"{out}"

    pr = p["pair"]
    thm19_expected = "certified" if pr["c"] * pr["M"] <= pr["k"] else "violated"

    def thm19(out, expected=thm19_expected):
        if out["status"] == "inconclusive":
            return INCONCLUSIVE
        return OK if out["status"] == expected else f"{out['status']}, reference {expected}"

    def hyp(out):
        hp = p["hyp"]
        if hp["b"] * hp["M"] > hp["k"]:
            return OK if out["status"] == "inconclusive" else f"{out['status']}, reference inconclusive"
        if out["status"] == "inconclusive":
            return INCONCLUSIVE
        return OK if close(out["M"], hp["M"], 1e-12) else f"M {out['M']!r}, reference {hp['M']!r}"

    def passed(rc, out):
        return OK if rc == 0 and out["passed"] else f"exit {rc}, {out}"

    def ratio(rc, out):
        return OK if rc == 0 and 1.0 - 1e-12 <= out["sup_estimate"] < 4.0 else f"exit {rc}, {out}"

    def render(out):
        rc, stdout = out
        rows = stdout.decode().strip().split("\n")
        if rc != 0 or len(rows) != 33:
            return f"exit {rc}, {len(rows)} lines"
        for row in rows[1:]:
            _, zr, zi, fr, fi = (float(v) for v in row.split(","))
            ref = _map_value(m, complex(zr, zi))
            if abs(complex(fr, fi) - ref) > 1e-9 * max(1.0, abs(ref)):
                return f"f({zr}, {zi}) = {fr}, {fi}; reference {ref!r}"
        return OK

    return [
        ("check-cm", ["check-cm", paths["seq"]], parsed(check_cm), None),
        ("moments", ["moments", paths["mu"], "--count", "8"], parsed(check_moments), None),
        ("eval", ["eval", paths["map"], f"--z={zarg}"], parsed(check_eval), None),
        ("dilatation", ["dilatation", paths["map"], f"--z={zarg}"], parsed(check_dilatation), None),
        ("certify.grid", ["certify", paths["map"], "--method", "grid", "--k", repr(p["k"]), *grid],
         parsed(check_status(grid_status)), None),
        ("certify.thm1.6", ["certify", paths["map"], "--method", "thm1.6", "--k", repr(p["k"]), *grid],
         parsed(check_status(thm16)), None),
        ("certify.thm1.7", ["certify", paths["poly"], "--method", "thm1.7", "--k", "0.95", *grid],
         parsed(check_status(thm17)), None),
        ("certify.thm1.9", ["certify", paths["pair"], "--method", "thm1.9", "--k", repr(p["pair"]["k"])],
         parsed(check_status(thm19)), "A" if thm19_expected == "violated" else None),  # certified when k < s*M
        ("certify.hyp", ["certify", paths["hyp"], "--method", "hyp", "--k", repr(p["hyp"]["k"]), *grid],
         parsed(check_status(hyp)), None),
        ("verify-thm.1.2", ["verify-thm", "1.2", paths["map"], *grid[:4]], parsed(passed), None),
        ("verify-thm.1.3", ["verify-thm", "1.3", paths["map"], *grid], parsed(passed), None),
        ("ratio-sup", ["ratio-sup", paths["mu"], *grid[:4]], parsed(ratio), None),
        ("render", ["render", paths["map"], "--curve", "circle", "--r", "0.6", "--n", "32"], render, None),
    ]


def write_specs(plan, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    specs = {
        "seq": plan["seq"],
        "mu": plan["mu"],
        "map": plan["map"],
        "poly": {k: plan["poly"][k] for k in ("alpha", "beta", "c")},
        "hyp": {k: plan["hyp"][k] for k in ("a", "c", "a2", "c2", "b")},
        "pair": {k: plan["pair"][k] for k in ("h", "g", "c")},
    }
    for name, spec in specs.items():
        paths[name] = str(workdir / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(spec), encoding="utf-8")
    return paths


def build(plan, size, workdir, env, child=None, first=None):
    """One pass of subprocess calls.

    ``child(name, args)`` gives the argv (plain ``-m cmharmonic`` by default).
    ``first`` maps each invocation to its first output; every later output
    of the same invocation must match it byte for byte.
    """
    paths = write_specs(plan, workdir)
    first = {} if first is None else first
    calls = []
    for name, args, check, defect in _invocations(plan, size, paths):
        argv = child(name, args) if child else [sys.executable, "-m", "cmharmonic", *args]

        def fn(argv=argv):
            return run_child(argv, env=env, cwd=workdir)

        def checked(out, name=name, check=check):
            seen = first.setdefault(name, out)
            if seen != out:
                raise Unexpected(f"stdout or exit code differs from the first invocation ({seen[0]} vs {out[0]})")
            return check(out)

        calls.append(Call("cli." + name, fn, checked, defect))
    return [calls]


def import_seconds(env, repeats):
    """CPU time of ``python -c 'import cmharmonic'``, one fresh process each."""
    out = []
    for _ in range(repeats):
        c0 = cpu_seconds()
        rc, _ = run_child([sys.executable, "-c", "import cmharmonic"], env=env)
        out.append(cpu_seconds() - c0)
        if rc != 0:
            raise RuntimeError(f"import cmharmonic exited {rc}")
    return out

