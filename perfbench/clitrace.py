"""Run one isocenter CLI command under the tracer and write its spans.

    python3 perfbench/clitrace.py TRACE.json <isocenter arguments...>

The traced cli_session runs each invocation through this file in place of
``python -m isocenter.cli``; the command's output and exit code are the
same, and the tracer's state is written to TRACE.json when it ends.
"""

import sys

import tracing


def main():
    out, args = sys.argv[1], sys.argv[2:]
    import isocenter.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        isocenter.cli.main(args=args, prog_name="isocenter")
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    main()
