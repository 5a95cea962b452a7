"""``python -m commsym``: the ``commsym`` command from a source checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
