"""Traced stand-in for ``python -m soclekit.cli`` in the traced ``cli-cold`` run.

Times ``import soclekit.cli``, runs ``cli.main`` under the tracer, and
writes the import time and the trace as one marked JSON line at the end
of stderr.  Stdout and the exit code are the CLI's own.

    PYTHONPATH=src python perfbench/cli_child.py analyze "y0^3 + y1^3"
"""

import json
import sys
from time import perf_counter

MARKER = "@@perfbench-trace@@ "

if __name__ == "__main__":
    t0 = perf_counter()
    from soclekit import cli

    import_s = perf_counter() - t0
    from tracer import Tracer  # the script's own directory is on sys.path

    tracer = Tracer()
    code = 1
    try:
        with tracer:
            code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        payload = dict(tracer.snapshot(), import_s=import_s)
        sys.stderr.write("\n" + MARKER + json.dumps(payload) + "\n")
    sys.exit(code)
