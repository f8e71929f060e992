"""Start ``descendc`` with the traced run's wrappers installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py SPANS_OUT.json STATUS_OUT <descendc arguments...>

Times ``import repro.cli`` (the ``cli.import`` span), installs the same
wrappers as the benchmark process, runs ``repro.cli.main`` and writes the
process's spans and counters to ``SPANS_OUT.json`` and its ``/proc``
status (for its peak RSS) to ``STATUS_OUT`` when it returns.  The
traced runs start the daemon and every CLI child through this file; the
untraced runs run ``repro.cli`` as ``__main__`` with only the status hook
(``perfbench.common.CLI_SNIPPET``).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracing import Span, Tracer, install  # noqa: E402


def main(argv) -> int:
    spans_out, status_out, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    begin = time.perf_counter_ns()
    import repro.cli

    span = Span("cli.import", begin, None, None, None)
    span.end = time.perf_counter_ns()
    tracer.spans.append(span)
    tracer.fired.add("cli.import")
    install(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.dump(spans_out)
        with open("/proc/self/status", "r", encoding="utf-8") as status, \
                open(status_out, "w", encoding="utf-8") as out:
            out.write(status.read())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
