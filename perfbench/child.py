"""Traced CLI process for the verify-cli workload.

    PERFBENCH_SPANS=<file> PYTHONPATH=src python perfbench/child.py verify <config>

Runs ``polyceva.cli.main`` on its arguments, like the untraced child,
with spans around polyceva's public calls, and saves them to the file
named by PERFBENCH_SPANS for the parent to merge.
"""

import os
import sys

from tracing import Tracer, instrument

import polyceva.cli

tracer = Tracer()
try:
    with instrument(tracer), tracer.span("cli.main"):
        code = polyceva.cli.main(sys.argv[1:])
finally:
    tracer.save(os.environ["PERFBENCH_SPANS"])
sys.exit(code)
