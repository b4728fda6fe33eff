"""``python -m crossbar_margin``: the crossbar-margin command line."""

from .cli import main

if __name__ == "__main__":
    main()
