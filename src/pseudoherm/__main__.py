# The process entry of ``python -m pseudoherm`` and of the ``pseudoherm`` script.
import gc
import os


def _loaded() -> None:
    # The subcommand's modules are imported: freeze what they made, so that no later
    # collection traverses it, and let the handler compute with the collector on.
    gc.freeze()
    gc.enable()


def main() -> int:
    # One BLAS thread unless the user chose otherwise: threaded OpenBLAS kernels round
    # differently, so from about n = 66 a report would depend on the thread count.  Nothing
    # has imported numpy yet; cli.main loads it with the subcommand's modules.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    # The imports make long-lived objects (about 21,000 for a matrix subcommand, mostly
    # numpy's).  The 33 collections they would trigger traverse them again and again and
    # free about 330 objects in all, so the collector stays off until _loaded.
    gc.disable()
    from . import cli

    code = cli.main(loaded=_loaded)
    # The report is written.  Interpreter shutdown runs forced collections that would each
    # traverse every object the handler made too; frozen, those collections skip them.
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
