"""Run one qkneser CLI command with per-layer spans recorded.

    python3 bench/launch.py SPANS_JSON <qkneser arguments...>

Installs the span wrappers from spans.py, calls qkneser.cli.main with the
given arguments and writes the spans to SPANS_JSON when the command ends.
The exit status is the CLI's own.  qkneser must be importable (run with
PYTHONPATH=src from the repository root).
"""

import sys

import spans


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import qkneser.cli

    try:
        return qkneser.cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
