"""python -m drazinkit: the command-line interface of drazinkit.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
