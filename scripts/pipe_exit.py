"""The drivers' one exit: python3 scripts/<driver>.py ends in pipe_exit.run(main)."""
import os
import sys


def run(main) -> None:
    """Exit with main()'s code.  When stdout closes early (as by `| head`),
    exit 1 quietly, with the shutdown flush pointed at os.devnull."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
