"""``python -m unival``: the command-line interface."""
from .cli import main

main()
