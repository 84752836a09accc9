import contextlib
import os
import sys

from .cli import main


def run() -> None:
    """Run :func:`main`, flush stdout and stderr, and end the process with main's exit code.

    ``main`` has closed or renamed every output and reaped every child by
    then, so shutdown has nothing left to do.  A failed flush is ignored:
    ``main`` has reported why stdout failed; its unwritten bytes are dropped.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
