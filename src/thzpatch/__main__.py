"""`python -m thzpatch <command>` runs the thzpatch command line."""

from .cli import main

if __name__ == "__main__":
    main()
