"""Child process behind setup_s for the in-process workloads.

    python3 perfbench/setup_probe.py <workload> <seed> <size>

Takes the CPU time of a cold ``import cmharmonic`` plus the construction of
every object the workload's timed passes use, and prints it as one JSON
object.  Input generation happens before the clock starts: it is the
benchmark's work, not the program's.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import IN_PROCESS  # noqa: E402


def main(workload, seed, size):
    module = IN_PROCESS[workload]
    plan = module.make_plan(seed)
    t0 = time.process_time()
    import cmharmonic  # noqa: F401

    module.build(plan, size)
    print(json.dumps({"setup_s": time.process_time() - t0}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
