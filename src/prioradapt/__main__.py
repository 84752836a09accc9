import os
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # main has reported why stdout failed.  Drop the bytes it could not
        # write, so that the exit does not try them again and print a second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
