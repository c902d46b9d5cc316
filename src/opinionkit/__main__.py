"""The opinionkit command line as ``python -m opinionkit``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
