"""One CLI job in a fresh interpreter: ``unival <args>``, optionally traced.

Usage: python3 cli_job.py SRC_DIR [--trace] -- ARGS...

Runs the package found in SRC_DIR exactly as the ``unival`` console script
would.  With ``--trace`` the outside-in tracer wraps the package before the
CLI starts, and after the CLI returns its report is written to stderr as
one line prefixed with ``TRACE_PREFIX``.  stdout is the CLI's own output.
"""

import json
import sys

TRACE_PREFIX = "perfbench-trace "


def main(argv: list[str]) -> int:
    src, rest = argv[0], argv[1:]
    split = rest.index("--")
    trace = "--trace" in rest[:split]
    sys.path.insert(0, src)
    import unival.cli

    if not trace:
        return unival.cli.run(rest[split + 1:])
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = unival.cli.run(rest[split + 1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
