"""``python -m psimoments``: the command line of the ``psimoments`` script."""

import sys

from .cli import main

sys.exit(main())
