"""``python -m powspec``: the same command line as the ``powspec`` script."""

import sys

from .verify_cli import main

if __name__ == "__main__":
    sys.exit(main())
