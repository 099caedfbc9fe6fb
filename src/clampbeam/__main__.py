"""``python -m clampbeam``: the same command line as the ``clampbeam`` script."""

from .cli import entry

entry()
