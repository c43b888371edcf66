# The process entry of ``python -m pseudoherm`` and of the ``pseudoherm`` script.
import gc
import os


def main() -> int:
    # One BLAS thread unless the user chose otherwise: threaded OpenBLAS kernels round
    # differently, so from about n = 66 a report would depend on the thread count.  Nothing
    # has imported numpy yet; every subcommand loads it inside its handler.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from . import cli

    code = cli.main()
    # The report is written.  Interpreter shutdown runs forced collections that would each
    # traverse every object the imports made (about 21,500 after an n = 8 verify, mostly
    # numpy's); frozen, those collections skip them.
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
