"""Layered benchmark for cmharmonic.

    python3 perfbench/run.py --workload grid-sweeps --seed 1 --seconds 20 --trace 0

Workloads: grid-sweeps, boundary-certs, cli-cold (see README.md).  The run
builds its inputs from --seed, runs one untimed warm-up pass, then runs one
timed pass over and over, on fresh objects each time, in a closed loop with
one caller for --seconds, checking every output against references.  It prints each metric as ``metric <name>
<value> <unit>`` and, as its last line, one JSON object with the metrics
BENCHMARK.json names: the end-to-end ones with --trace 0, the per-layer
ones with --trace 1.  The traced run runs one fixed pass untraced and then
traced, so its counts repeat exactly and the difference of the two times
is the tracing overhead; its spans go to .perfbench/trace-<workload>-<seed>.json.

Only the standard library is used here; the program under test is imported
from src/ of the checkout this file sits in.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import boundary_certs
import cli_cold
import grid_sweeps
from common import Tally, run_call, run_pass, run_timed, tail_quantile
from spans import KERNEL_BYTES_PER_TERM, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("grid-sweeps", "boundary-certs", "cli-cold")
# The in-process workloads: each module has make_plan(seed) and build(plan, size).
IN_PROCESS = {"grid-sweeps": grid_sweeps, "boundary-certs": boundary_certs}
SETUP_REPEATS = 9
LAYERS = ("moments", "measures", "quadrature", "transforms", "harmonic", "special")


def pin_threads():
    """One OpenBLAS thread, for this process and its children.

    The calls are made by one caller, and a second thread bought no wall
    time on grid-sweeps: it spun, doubling CPU time, and let load from
    other processes on a shared machine slow every pass.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return nproc, 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def setup_repeats(size):
    return SETUP_REPEATS if size == "full" else 1


def in_process_setup(name, seed, size):
    """Import plus construction, in a fresh process each time (setup_probe.py)."""
    out = []
    for _ in range(setup_repeats(size)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size],
            capture_output=True, env=child_env(), check=True, timeout=170,
        )
        out.append(json.loads(proc.stdout)["setup_s"])
    return out


# -- metrics --------------------------------------------------------------------------


def end_to_end(tally, setup, rss):
    lat = tally.latencies
    p90, beyond = tail_quantile(lat, 0.9) if len(lat) > 1 else (lat[0], 0)
    return {
        "setup_s": (statistics.median(setup), "s", f"CPU time, median of {len(setup)} set-ups"),
        "ops_per_s": (len(lat) / sum(o.cpu for o in tally.outcomes), "1/s",
                      f"{len(lat)} calls per CPU second, one caller; {len(lat) / sum(lat):.4f} per wall second"),
        "op_p50_s": (statistics.median(lat), "s", f"n={len(lat)}"),
        "op_p90_s": (p90, "s", f"n={len(lat)}, {beyond} samples beyond"
                     + ("" if beyond >= 10 else ", fewer than the 10 a p90 needs")),
        "failed_share": (len(tally.failures) / tally.attempted, "ratio",
                         f"{len(tally.failures)} of {tally.attempted} cases, {len(lat)} calls"),
        "peak_rss_mb": (rss, "MB", "ru_maxrss"),
    }


def merge_summaries(states):
    """Per span name [calls, inclusive s, self s] and per layer [busy s, self s], summed over traces."""
    by_name, layers, counts = {}, {}, {}
    for state in states:
        names, lays = summarize(state["spans"])
        for key, vals in names.items():
            acc = by_name.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, vals in lays.items():
            acc = layers.setdefault(key, [0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in state["counts"].items():
            counts[key] = counts.get(key, 0) + v
    return by_name, layers, counts


def per_layer(states, import_samples, untraced, traced, cli_outcomes):
    by_name, layers, counts = merge_summaries(states)
    out = {}

    def seconds(metric):  # inclusive time of the span named like the metric
        out[metric] = (by_name.get(metric[:-2], [0, 0.0, 0.0])[1], "s")

    def count(metric, key=None):
        out[metric] = (counts.get(key or metric, 0), "count")

    seconds("moments.cm_scan_s")
    count("moments.table_entries")
    for name in ("construct", "rule_build", "integrate", "integrate_below", "moment"):
        seconds(f"measures.{name}_s")
        if name != "rule_build":
            count(f"measures.{name}_calls", f"measures.{name}.calls")
    count("measures.rule_points")
    quad_ok = counts.get("quadrature.adaptive_quad.calls", 0)
    quad_err = counts.get("quadrature.adaptive_quad.raised", 0)
    seconds("quadrature.adaptive_quad_s")
    out["quadrature.adaptive_quad_calls"] = (quad_ok + quad_err, "count")
    count("quadrature.adaptive_quad_evals")
    out["quadrature.adaptive_quad_error_share"] = (quad_err / (quad_ok + quad_err) if quad_ok + quad_err else 0.0, "ratio")
    seconds("quadrature.composite_rule_s")
    terms = 0
    for kernel in ("values", "derivs", "deriv2s"):
        n = counts.get(f"transforms.{kernel}.terms", 0)
        busy = by_name.get(f"transforms.{kernel}", [0, 0.0, 0.0])[2]  # self: a first use also builds the rule
        out[f"transforms.{kernel}_ns_per_term"] = (busy / n * 1e9 if n else 0.0, "ns")
        terms += n
    out["transforms.kernel_terms"] = (terms, "count")
    out["transforms.kernel_bytes_computed"] = (terms * KERNEL_BYTES_PER_TERM, "B")
    for name in ("eval", "deriv", "limit_at_one", "check_membership"):
        seconds(f"transforms.{name}_s")
    for name in (
        "check_partial_signs", "derivative_ratio_sup", "certify_qc_grid", "check_modulus_bound",
        "harnack_ratio_bound", "certify_qc_boundary_limit", "density_ratio_condition",
    ):
        seconds(f"harmonic.{name}_s")
    count("harmonic.partial_signs_terms")
    count("harmonic.ratio_sup_terms")
    for name in ("certify_hypergeom_map", "certify_polylog_map", "shifted_2f1_deriv_limit_quad", "zeta", "hyp2f1"):
        seconds(f"special.{name}_s")
    for layer in LAYERS:
        busy, self_s = layers.get(layer, [0.0, 0.0])
        out[f"{layer}.busy_s"] = (busy, "s")
        out[f"{layer}.self_s"] = (self_s, "s")
        count(f"{layer}.inconclusive")
    out["cli.import_s"] = (statistics.median(import_samples), "s")
    for o in cli_outcomes:  # untraced wall time of each invocation
        out[f"{o.name}_s"] = (o.seconds, "s")
    out["cli.inconclusive"] = (sum(o.status == "inconclusive" for o in cli_outcomes), "count")
    out["trace.untraced_s"] = (untraced, "s")
    out["trace.traced_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


# -- runs ---------------------------------------------------------------------------------


def timed_run(name, seed, size, workdir, seconds):
    if name == "cli-cold":
        setup = cli_cold.import_seconds(child_env(), setup_repeats(size))
        calls = cli_cold.build(cli_cold.make_plan(seed), size, workdir, child_env())[0]
        warm, make_pass = calls, lambda: calls  # every process is fresh
    else:
        setup = in_process_setup(name, seed, size)
        module = IN_PROCESS[name]
        plan = module.make_plan(seed)
        warm = module.build(plan[:1], size)[0]
        make_pass = lambda: module.build(plan[1:], size)[0]  # noqa: E731
    run_pass(warm)  # untimed and uncounted
    tally = Tally()
    run_timed(make_pass, seconds, tally)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF)
    return tally, end_to_end(tally, setup, rss)


def traced_run(name, seed, size, workdir, cmharmonic):
    """One fixed pass untraced, then the same pass on fresh objects, traced.

    Only the calls are traced: each check runs with the tracer paused, so
    the benchmark's own use of the program is not counted as the program's.
    """
    import_samples = cli_cold.import_seconds(child_env(), setup_repeats(size))
    tracer = Tracer()
    span_dir = workdir / "spans"
    if name == "cli-cold":
        plan, first = cli_cold.make_plan(seed), {}
        warm = timed = cli_cold.build(plan, size, workdir, child_env(), first=first)[0]

        def child(call_name, args):
            return [sys.executable, str(HERE / "cli_child.py"), str(span_dir / f"{call_name}.json"), *args]

        def traced_pass():
            span_dir.mkdir(parents=True, exist_ok=True)
            return cli_cold.build(plan, size, workdir, child_env(), child=child, first=first)[0]
    else:
        module = IN_PROCESS[name]
        plan = module.make_plan(seed)
        warm, timed = module.build(plan, size)

        def traced_pass():
            tracer.install(cmharmonic)
            return module.build(plan[1:], size)[0]

    run_pass(warm)
    tally = Tally()
    t0 = time.perf_counter()
    run_pass(timed, tally)
    untraced = time.perf_counter() - t0
    cli_outcomes = list(tally.outcomes) if name == "cli-cold" else []

    calls = traced_pass()  # in process, construction is traced too
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        tracer.call = i

        def spanned(fn=call.fn, name=call.name):
            with tracer.span("op." + name):
                return fn()

        def unspanned(result, check=call.check):
            with tracer.paused():
                return check(result)

        tally.add(i, run_call(dataclasses.replace(call, fn=spanned, check=unspanned)))
    traced = time.perf_counter() - t0
    states = [tracer.state()]
    states += [json.loads(p.read_text(encoding="utf-8")) for p in sorted(span_dir.glob("*.json"))]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(states, fh)
    return tally, per_layer(states, import_samples, untraced, traced, cli_outcomes)


# -- entry point -----------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks grids and repeats, for the smoke test only")
    args = parser.parse_args(argv)

    if not (SRC / "cmharmonic" / "__init__.py").is_file():
        print(f"perfbench: no cmharmonic package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    nproc, threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import cmharmonic

    if Path(cmharmonic.__file__).resolve().parent != (SRC / "cmharmonic").resolve():
        print(f"perfbench: imported cmharmonic from {cmharmonic.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(
        f"env nproc={nproc} python={platform.python_version()} numpy={metadata.version('numpy')}"
        f" openblas_threads={threads} machine={platform.machine()}"
    )
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            tally, metrics = traced_run(args.workload, args.seed, args.size, workdir, cmharmonic)
            wanted = declared["per_layer"]
        else:
            tally, metrics = timed_run(args.workload, args.seed, args.size, workdir, args.seconds)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, *note) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f"  # {note[0]}" if note else ""))
    failures = tally.failures
    for o in failures + [o for o in tally.unexpected if not any(o is f for f in failures)]:
        tag = f"known defect {o.defect}" if o.defect else "UNEXPECTED"
        print(f"failed {o.name} [{tag}]: {o.message}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics named in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.attempted > 0 and not tally.unexpected,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
