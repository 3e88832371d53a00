"""``python -m polyceva``: the same command line as ``polyceva``."""

from .cli import run

run()
