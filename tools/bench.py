"""Write BENCH_<PR>.json: the benchmark's end-to-end and per-layer figures plus the test suite's wall time.

    python3 tools/bench.py --pr 26
    python3 tools/bench.py --pr 26 --size tiny --seconds 1 --seeds 7 --out /tmp/bench.json

Runs ``perfbench/run.py`` of this checkout unchanged, one subprocess at a
time: every workload of BENCHMARK.json untraced at each seed (default 1, 2
and 3, for ``run_seconds`` from BENCHMARK.json), then once traced at the
first seed, then the Tier-1 pytest suite.  The file holds, per workload,
each run's JSON line and call count, the median and quartiles of each
end-to-end metric and of the call count over the seeds, and every
``metric <name> <value> <unit>`` row of the traced run as its per-layer
figures (those BENCHMARK.json declares among them), together with the
machine, the commit measured and the size of the library's source.  Only
the standard library is used.
"""

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def perfbench(workload, seed, seconds, size, trace):
    """The last stdout line of one ``perfbench/run.py`` run, parsed; a failed run raises.

    An untraced run also gets ``calls``, its number of timed calls, read from
    the ``n=`` of its ``op_p50_s`` line: the harness keeps one record per
    call, so ``peak_rss_mb`` can rise with the call count alone.  A traced
    run gets ``rows``, each of its ``metric <name> <value> <unit>`` lines as
    ``{"value", "unit"}`` by name, its trailing ``#`` note dropped.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--size", size, "--trace", str(trace)]
    print("+", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    if trace:
        run["rows"] = {}
    for line in lines:
        if line.startswith("metric op_p50_s "):
            run["calls"] = int(line.rsplit("n=", 1)[1])
        if trace and line.startswith("metric "):
            name, value, unit = line.split("#", 1)[0].split()[1:]
            run["rows"][name] = {"value": int(value) if value.lstrip("-").isdigit() else float(value), "unit": unit}
    return run


def spread(values):
    """Median and quartiles (inclusive method); one value is all three."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def pytest_wall():
    """Wall time, exit code and summary line of the Tier-1 suite, run as CI runs it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    print("+", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": proc.returncode, "summary": lines[-1] if lines else ""}


def src_lines():
    """Lines of ``src/cmharmonic/*.py``, and its code lines: neither blank, nor comments, nor docstrings.

    A docstring is the first statement of a module, class or function when
    it is a string (``ast.get_docstring``); all its lines are dropped.
    """
    lines = code = 0
    for path in sorted((ROOT / "src" / "cmharmonic").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        rows = text.splitlines()
        lines += len(rows)
        code += sum(1 for i, row in enumerate(rows, 1)
                    if row.strip() and not row.lstrip().startswith("#") and i not in docs)
    return {"lines": lines, "code_lines": code}


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        return None


def machine():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cores": cores,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "commit": git("rev-parse", "HEAD"),
        "tracked_changes": None if status is None else bool(status),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<PR>.json")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<PR>.json at the repository root)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in declared["workloads"]]
    runs = {w: [perfbench(w, seed, seconds, args.size, 0) for seed in args.seeds] for w in workloads}
    traced = {w: perfbench(w, args.seeds[0], seconds, args.size, 1) for w in workloads}
    out = {
        "pr": args.pr,
        "machine": machine(),
        "src": src_lines(),
        "settings": {"seeds": args.seeds, "seconds": seconds, "size": args.size},
        "workloads": {
            w: {
                "end_to_end": {
                    m["name"]: dict(unit=m["unit"], **spread([r["metrics"][m["name"]]["value"] for r in runs[w]]))
                    for m in declared["end_to_end"]
                } | {"calls": dict(unit="count", **spread([r["calls"] for r in runs[w]]))},
                "per_layer": traced[w]["rows"],
                "runs": [dict(seed=seed, **r) for seed, r in zip(args.seeds, runs[w])],
                "traced_run": {k: v for k, v in traced[w].items() if k not in ("metrics", "rows")},
            }
            for w in workloads
        },
        "pytest": pytest_wall(),
    }
    path = args.out or ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
