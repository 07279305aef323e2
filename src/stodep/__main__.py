"""``python -m stodep``: the same command line as the ``stodep`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
