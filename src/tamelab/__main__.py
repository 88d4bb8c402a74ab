"""`python -m tamelab`: the command-line front end of `tamelab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
