import contextlib
import os
import signal
import sys

from .cli import main


class _Terminated(BaseException):
    """SIGTERM, raised where the process stands, past every handler of ``Exception``."""


def run() -> None:
    """Run :func:`main`, flush stdout and stderr, and end the process with main's exit code.

    ``main`` has closed or renamed every output and reaped every child by
    then, so shutdown has nothing left to do.  A failed flush is ignored:
    ``main`` has reported why stdout failed; its unwritten bytes are dropped.

    SIGTERM raises an exception where the process stands, so that ``main``
    removes a temporary output file and reaps its children as on an error;
    the process then ends by SIGTERM, whatever ``main`` made of it.
    """
    terminated = []

    def terminate(signum, frame) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one must not cut the clean-up
        terminated.append(signum)
        raise _Terminated

    signal.signal(signal.SIGTERM, terminate)
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    except _Terminated:
        code = 128 + signal.SIGTERM  # should the signal below not end the process
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):
            stream.flush()
    if terminated:
        os.kill(os.getpid(), signal.SIGTERM)
    os._exit(code)


if __name__ == "__main__":
    run()
