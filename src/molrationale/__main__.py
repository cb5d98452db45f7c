import os
import sys


def main() -> int:
    # BLAS reads its thread count when numpy loads, so pin one thread, unless
    # the environment sets a count, before cli imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
