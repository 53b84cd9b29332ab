"""``python -m fpeps ...``: the ``fpeps`` command without an installed entry point."""
import sys

from .cli import main

sys.exit(main())
