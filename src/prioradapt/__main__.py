import contextlib
import os
import signal
import sys

from .cli import main
from .harness import ENDING_SIGNALS


class _Terminated(BaseException):
    """SIGTERM, SIGINT or SIGHUP, raised where the process stands, past every handler of ``Exception``."""


def run() -> None:
    """Run :func:`main`, flush stdout and stderr, and end the process with main's exit code.

    ``main`` has closed or renamed every output and reaped every child by
    then, so shutdown has nothing left to do.  A failed flush is ignored:
    ``main`` has reported why stdout failed; its unwritten bytes are dropped.

    SIGTERM, SIGINT and SIGHUP raise an exception where the process stands,
    so that ``main`` removes a temporary output file and reaps its children
    as on an error; the process then ends by that signal, whatever ``main``
    made of it.  A signal ignored at the start, as under ``nohup``, stays
    ignored.
    """
    handled = [signum for signum in ENDING_SIGNALS if signal.getsignal(signum) is not signal.SIG_IGN]
    terminated = []

    def terminate(signum, frame) -> None:
        for other in handled:  # a second one must not cut the clean-up
            signal.signal(other, signal.SIG_IGN)
        terminated.append(signum)
        raise _Terminated

    for signum in handled:
        signal.signal(signum, terminate)
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    except _Terminated:
        code = 128 + terminated[0]  # should the signal below not end the process
    finally:
        for signum in handled:
            signal.signal(signum, signal.SIG_DFL)
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):
            stream.flush()
    if terminated:
        os.kill(os.getpid(), terminated[0])
    os._exit(code)


if __name__ == "__main__":
    run()
