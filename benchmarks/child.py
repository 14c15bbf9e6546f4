"""Run one crossclust CLI command in a fresh interpreter and report its timings.

Usage: python3 child.py SRC_DIR TRACE -- CLI_ARGS...

SRC_DIR holds the ``crossclust`` package; TRACE is 1 to trace every function
in ``layers.LAYERS`` and 0 to time only the stage boundaries.  The last line
of stdout is one JSON object; its timestamps come from ``time.monotonic`` and
so compare with the parent's clock.  The command's own stdout is captured
into the ``stdout`` field.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    src_dir, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1 :]
    sys.path.insert(0, src_dir)
    import crossclust.cli as cli

    from layers import LAYER_NAMES, STAGES, Tracer

    tracer = Tracer()
    tracer.install(STAGES + (LAYER_NAMES if trace else ()))
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        exit_code = cli.main(cli_args)
    work_done = time.monotonic()
    result = {
        "exit_code": exit_code,
        "work_done": work_done,
        "stdout": captured.getvalue(),
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **tracer.report(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
