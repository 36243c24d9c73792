"""`python -m loopfield`: the same commands as the `loopfield` script."""

import sys

from loopfield.cli import main

if __name__ == "__main__":
    sys.exit(main())
