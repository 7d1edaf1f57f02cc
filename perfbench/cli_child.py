"""Run one errorkit command with the benchmark's tracer installed.

    python -X importtime perfbench/cli_child.py SPANS_OUT COMMAND ARGS...

The traced counterpart of ``python -m errorkit.cli COMMAND ARGS...``:
it imports ``errorkit.cli`` (logged by ``-X importtime``), installs the
same wrappers as the in-process workloads, calls ``errorkit.cli.main``
inside a ``cli.main`` span, and writes its spans to SPANS_OUT on exit.
The exit code is the command's.
"""

import sys

import tracer

spans_out, args = sys.argv[1], sys.argv[2:]
t = tracer.Tracer()

import errorkit.cli  # noqa: E402  (timed by -X importtime after the tracer)

t.install()
t.op = 0
t.enabled = True
code = 0
try:
    t.call(tracer.CLI_MAIN, errorkit.cli.main, args=args, prog_name="errorkit")
except SystemExit as exc:
    code = exc.code
finally:
    t.enabled = False
    tracer.dump(t.spans, spans_out)
sys.exit(code)
