"""Run one coneasym command with the benchmark's layer wrappers installed.

    python3 perfbench/cli_runner.py SPANS_OUT COMMAND [ARGS...]

The traced ``inverse_cli`` ops start this instead of the plain entry
point.  It times the import of ``coneasym.cli``, wraps the layer
boundaries, calls ``coneasym.cli.main(argv)`` and writes the spans to
SPANS_OUT before exiting with the command's exit code.
"""

import sys

from tracing import Tracer


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import coneasym.cli
    tracer.install()
    try:
        with tracer.span("cli." + argv[0]):
            code = coneasym.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
