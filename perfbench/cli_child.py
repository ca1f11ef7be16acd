"""Traced stand-in for ``python -m cmharmonic``, used only by the traced cli-cold run.

    python3 perfbench/cli_child.py <span file> <cmh arguments...>

Imports the CLI under a span, wraps the layer entry points, runs the same
``main`` the module entry point runs, and writes the spans and counters to
<span file>.  Standard output and the exit code are the CLI's own.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402


def main(span_file, argv):
    tracer = Tracer()
    tracer.call = 0
    with tracer.span("cli.import"):
        import cmharmonic
        import cmharmonic.cli

    tracer.install(cmharmonic)
    try:
        rc = cmharmonic.cli.main(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
