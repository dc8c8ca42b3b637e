"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/launch.py SPANS_FILE serve --port 0 [serve options]

Everything after SPANS_FILE goes to ``repro.cli.main`` unchanged, so a
traced server differs from an untraced one only by the wrappers.  The spans
are written to SPANS_FILE when the server returns, which ``SIGTERM`` (drain,
then stop) and ``Ctrl-C`` both cause.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: "list[str]") -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
