"""Entry point for ``python -m magicbilliards``."""
import sys

from .cli import main

sys.exit(main())
