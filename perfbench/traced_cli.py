"""`bigenus` CLI under the span tracer.

usage: traced_cli.py TRACE_DIR SUBCOMMAND [ARGS...]

Installs the tracer before the CLI runs, so `experiment` pool workers,
forked from this process, inherit the wrapped functions. Every finished
root span is appended with its children to TRACE_DIR/spans-<pid>.jsonl;
the span item id is the name of TRACE_DIR.
"""

import os
import sys

import bigenus.cli

from tracing import Tracer

if __name__ == "__main__":
    trace_dir = sys.argv[1]
    tracer = Tracer(sink=trace_dir)
    tracer.item = os.path.basename(os.path.normpath(trace_dir))
    tracer.install()
    sys.exit(bigenus.cli.main(sys.argv[2:]))
