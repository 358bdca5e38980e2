"""Run one rdladder CLI command with the benchmark's tracer installed in
its process, and write the spans when the command ends.

Usage (from the repository root, with src on PYTHONPATH):
    python perfbench/traced_cli.py TRACE_OUT.json serve --paper-model --bind 127.0.0.1:0

SIGTERM stops a traced ``serve`` the way Ctrl-C does, so the spans of a
server are written too.
"""

import signal
import sys

from tracer import Tracer, install


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    trace_out, args = sys.argv[1], sys.argv[2:]
    import rdladder.cli

    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return rdladder.cli.main(args)
    finally:
        tracer.write(trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
