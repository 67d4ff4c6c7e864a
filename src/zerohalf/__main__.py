"""``python -m zerohalf``: the same command line as the ``zerohalf`` script."""

from .cli import main

if __name__ == "__main__":
    main()
