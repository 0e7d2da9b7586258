"""Traced `superdiscord` CLI process for the cli-oneshot workload.

Usage: python -X importtime bench/cli_child.py SPANS_JSON CLI_ARGS...

Runs the same `cli.main` as `python -m superdiscord.cli`, with the tracer's
wrappers installed, writes the spans to SPANS_JSON and exits with the CLI's
exit code.
"""

import sys

import superdiscord.cli as cli  # imported first, so importtime nests numpy and scipy under it

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    t.op = 0
    try:
        return cli.main(argv)
    finally:
        t.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
