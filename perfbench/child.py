"""Run one kinex CLI invocation in this process and record its timings.

usage: python3 child.py RESULT_JSON TRACE_DIR -- KINEX_ARGS...

TRACE_DIR "-" runs untraced. Otherwise the span hooks of ``tracing`` are
installed before ``kinex.cli.main`` is called and the spans are written to
TRACE_DIR. RESULT_JSON receives the exit code, the time of the import and of
the main call, the hook table and the library versions. The process exits
with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    result_path, trace_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE_DIR -- KINEX_ARGS...")
    t_import = time.perf_counter()
    import kinex.cli

    t_imported = time.perf_counter()
    tracer = None
    if trace_dir != "-":
        import tracing

        tracer = tracing.Tracer(trace_dir)
        tracing.install(tracer)
        token = tracer.begin()
    t_main = time.perf_counter()
    code = kinex.cli.main(argv)
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.end(token, "cli.main", None, t_end)
        tracer.flush()

    import numpy
    import scipy

    result = {
        "returncode": code,
        "import_s": t_imported - t_import,
        "main_s": t_end - t_main,
        "hooks": tracer.hooks if tracer is not None else {},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
