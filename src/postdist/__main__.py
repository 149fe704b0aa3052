"""`python -m postdist`: the command-line front end (see `postdist.cli`)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
