"""`python -m hierclust` runs the command-line interface."""

from .harness import main

if __name__ == "__main__":
    main()
