"""`python -m dipnet`: the same command line as the `dipnet` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
