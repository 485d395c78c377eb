"""The program entry: `python -m truckdrone` and the `truckdrone` console script."""

import gc
import sys


def run() -> int:
    """Run the CLI on sys.argv as a process of its own.

    What importing numpy and the CLI makes lives until the process exits,
    so the cyclic collector is kept off while it is made and then frozen
    out of the collector's passes.  Only this entry touches the
    collector: `cli.main(argv)` called in a process leaves it as it is.
    """
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
