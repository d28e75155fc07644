"""Run the conwaykit CLI in this interpreter with layer spans on.

    python3 perfbench/cli_traced.py <src dir> <cli arguments...>

Traced runs start this script for each CLI op where untraced runs start
`python -m conwaykit.cli`.  Standard output is the CLI's own; the
last line of standard error is the JSON tracer summary, with the time
`import conwaykit.cli` took as the count cli_import_ns.
"""

import json
import sys
import time

from tracing import Tracer, install


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter_ns()
    import conwaykit.cli

    import_ns = time.perf_counter_ns() - start
    tracer = Tracer(span_cap=10_000)
    install(tracer)
    code = conwaykit.cli.main(sys.argv[2:])
    sys.stdout.flush()
    tracer.counts["cli_import_ns"] += import_ns
    print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
