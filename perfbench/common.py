"""Pieces shared by the three workloads: one call, its check, the timed loop."""

import math
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field

OK = "ok"
INCONCLUSIVE = "inconclusive"


class Unexpected(Exception):
    """Raised by a check for a failure that no known defect explains."""


@dataclass
class Call:
    """One call into the program and the check of its output.

    ``check(result)`` returns ``OK``, ``INCONCLUSIVE`` (an honest
    no-verdict, never a failure) or a message saying what contradicts the
    reference.  Raising one of ``unresolved`` is an honest no-verdict too.
    ``defect`` names the item under which the program is already known to
    get this case wrong; a wrong answer to such a call is still counted as
    failed, but does not mark the run incorrect.  A raise, by the call or by
    its check, always does.
    """

    name: str
    fn: object
    check: object
    defect: str | None = None
    unresolved: tuple = ()  # exception types the program documents as "could not resolve"


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str  # ok, inconclusive or failed
    message: str = ""
    defect: str | None = None
    cpu: float = 0.0  # CPU seconds of this process, and of the children it waited for, during the call


@dataclass
class Tally:
    """Outcomes of a run's calls, counted per case.

    A case is a call's place in its pass.  Every timed pass repeats the
    same calls on the same inputs, so ``attempted`` counts cases and
    ``failures`` holds the first failure of each case that failed in any
    repeat: both then depend on the seed alone, not on how many passes fit
    in the run.  ``outcomes`` keeps every repeat, for the latencies.
    """

    outcomes: list = field(default_factory=list)
    cases: dict = field(default_factory=dict)  # case -> its first failed outcome, or None

    def add(self, case, outcome):
        self.outcomes.append(outcome)
        if self.cases.get(case) is None:
            self.cases[case] = outcome if outcome.status == "failed" else None

    @property
    def attempted(self):
        return len(self.cases)

    @property
    def failures(self):
        return [o for o in self.cases.values() if o is not None]

    @property
    def unexpected(self):
        """Failures, in any repeat, outside every known-defect kind: these make the run incorrect."""
        return [o for o in self.outcomes if o.status == "failed" and o.defect is None]

    @property
    def latencies(self):
        return [o.seconds for o in self.outcomes]


def cpu_seconds():
    """CPU time of this process plus that of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_call(call):
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        result = call.fn()
    except call.unresolved as exc:
        status, message, defect = INCONCLUSIVE, str(exc), call.defect
    except Exception as exc:  # a raise is an outcome to count, not a crash
        status, message, defect = "failed", f"raised {type(exc).__name__}: {exc}", None
    else:
        status = None
    seconds, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    if status is not None:
        return Outcome(call.name, seconds, status, message, defect, cpu)
    try:
        verdict = call.check(result)
    except Exception as exc:  # never a known defect
        message = str(exc) if isinstance(exc, Unexpected) else f"check raised {type(exc).__name__}: {exc}"
        return Outcome(call.name, seconds, "failed", message, None, cpu)
    if verdict == OK or verdict == INCONCLUSIVE:
        return Outcome(call.name, seconds, verdict, "", call.defect, cpu)
    return Outcome(call.name, seconds, "failed", str(verdict), call.defect, cpu)


def run_pass(calls, tally=None):
    for case, call in enumerate(calls):
        outcome = run_call(call)
        if tally is not None:
            tally.add(case, outcome)


def run_timed(make_pass, seconds, tally):
    """Closed loop, one caller: whole passes until ``seconds`` have elapsed.

    ``make_pass()`` gives the calls of one pass, on fresh objects where the
    workload builds any, and every pass is the same pass.  Stopping only
    between passes then keeps the mix of calls, first uses included, the
    same whatever the number of passes that fit, so the latency quantiles
    do not depend on where the clock ran out.
    """
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run_pass(make_pass(), tally)


def run_child(argv, timeout=170, **kwargs):
    """Run a process to its end; returns its exit code and stdout.

    ``subprocess.run(timeout=...)`` waits by polling, at intervals that grow
    to 50 ms, which rounded every timed child up to the next poll.  Here the
    wait blocks, and a timer kills the child if it outlives ``timeout``.
    """
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, stdout


def tail_quantile(values, q):
    """Quantile q of values, and how many samples lie strictly above it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
    return cut, sum(1 for v in values if v > cut)


def close(value, ref, rel):
    return math.isfinite(value) and abs(value - ref) <= rel * max(1.0, abs(ref))
