"""``python -m rdladder``: the same command line as the ``rdladder`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
