"""Run one flagorbits CLI request with layer tracing.

    python perfbench/cli_runner.py spans|memory STATS_FILE ARGV...

Imports ``flagorbits.cli`` (timing the import), wraps the package's public
functions (see layertrace.py), then calls ``flagorbits.cli.main(ARGV)``.
Standard output, standard error and the exit status are those of
``python -m flagorbits ARGV``, tracebacks included.  The layer snapshot,
the import time and the spans are written to STATS_FILE as JSON, even when
the request raises.
"""

import json
import sys
import time

from layertrace import Tracer


def main() -> None:
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import flagorbits.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(memory=(mode == "memory"))
    tracer.install()
    try:
        code = flagorbits.cli.main(argv)
    finally:
        tracer.uninstall()
        spans = tracer.span_records() if mode == "spans" else []
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "snapshot": tracer.snapshot(), "spans": spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
