"""Command-line entry point for ``python -m scorepotential``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
