"""``python3 -m insep``: the command line of the installed ``insep`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
