"""Run ``repro-cli`` with the layer wrappers installed (the traced server).

Usage: ``python perfbench/traced_server.py SPANS_OUT serve --async ...``
(with ``PYTHONPATH=src``).  SIGUSR1 writes the spans recorded so far to
``SPANS_OUT``.
"""

from __future__ import annotations

import signal
import sys

from tracing import Tracer, install_server_wrappers


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install_server_wrappers(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(spans_out))
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
