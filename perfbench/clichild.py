"""One pseudocurve CLI call with the tracer installed (cli_mix, traced phase).

    python3 perfbench/clichild.py <pseudocurve arguments>

Behaves like ``python -m pseudocurve.cli``: the same stdout and exit code,
and a traceback on stderr for an uncaught exception.  Then it writes one
line ``MARKER <json>`` to stderr with the time of main() and the span self
times, call counts and counters.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

MARKER = "PERFBENCH_TRACE "


def main() -> int:
    from tracer import Tracer

    import pseudocurve.cli as cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        rc = 1
    main_ms = (time.perf_counter() - start) * 1e3
    tracer.uninstall()
    sys.stdout.flush()
    record = {
        "subcommand": sys.argv[1] if len(sys.argv) > 1 else "",
        "main_ms": main_ms,
        "self_s": tracer.self_times(),
        "calls": dict(tracer.calls()),
        "counts": dict(tracer.counts),
        "leftover": tracer.leftover_wrappers(),
    }
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
