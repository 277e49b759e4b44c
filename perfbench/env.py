"""Process set-up shared by the benchmark's scripts.  Import it before numpy.

Every BLAS/OpenMP pool is pinned to one thread: with OpenBLAS's default pool
on a 2-core machine, the small solves in ``representation.update_error``
were seen to stall in some runs (see the README).
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def use_checkout():
    """Put the checkout's ``src`` (the current directory's) first on the
    import path; exit with code 2 if it holds no mvtsk."""
    src = os.path.join(os.getcwd(), "src")
    if os.path.isfile(os.path.join(src, "mvtsk", "__init__.py")):
        sys.path.insert(0, src)
        import mvtsk

        if os.path.abspath(mvtsk.__file__).startswith(src + os.sep):
            return
    print(f"error: no mvtsk under {src}; run from the root of an mvtsk checkout",
          file=sys.stderr)
    sys.exit(2)
