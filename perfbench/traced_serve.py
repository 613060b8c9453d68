"""``python -m repro.serve`` with the benchmark's span tracer installed.

Usage::

    python perfbench/traced_serve.py TRACE_OUT [repro.serve arguments...]

Installs :func:`bench_trace.install` before :func:`repro.serve.main` runs,
serves until interrupted (SIGINT), then writes every span and count to
``TRACE_OUT`` as JSON.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

from bench_trace import Tracer, install


def main() -> int:
    trace_out, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.serve import main as serve_main

    status = serve_main(serve_args)
    tracer.dump(trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
