"""Entry point for ``python -m cohomolab``: the same commands as the cohomolab script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
