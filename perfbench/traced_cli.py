"""`hfock ...` under the tracer: python3 traced_cli.py TRACE_PATH ARGS...

Times the import of hfock.cli (the cli.import.s layer), installs the tracer,
runs the CLI with ARGS and writes the spans and per-layer metrics to
TRACE_PATH.npz and TRACE_PATH.json.  Stdout and the exit code are the CLI's.
"""
import sys
import time

t0 = time.perf_counter()
import hfock.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = hfock.cli.main(sys.argv[2:])
    finally:
        metrics = tracer.metrics()
        metrics["cli.import.s"] = import_s
        tracer.dump(sys.argv[1], metrics)
    sys.exit(code)
