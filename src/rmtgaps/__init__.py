"""Smallest-gap statistics of Gaussian ensembles.

Exact Pfaffian and oscillator-function machinery for log-gas partition
identities, seeded samplers for the Gaussian orthogonal and beta ensembles,
and gap-statistics estimators with their limiting laws.

BLAS threads: importing this package sets every OpenBLAS already loaded in
the process (numpy's, which the import loads first) to one thread, unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set;
a count the user set always wins.  Monte Carlo runs parallelize over pool
workers, which inherit the setting, and the exact half solves matrices of
size 60 or less, where a second BLAS thread burns a core and saves no time.
No artifact depends on the thread count.  No run loads scipy, so numpy's is
the only OpenBLAS in the process, except where scipy's ``dsterf`` fallback
(below) brings scipy's own, after this scan and at its own thread count.
A build with another BLAS (MKL, Accelerate) is left as it is.

LAPACK: the same scan records numpy's own ``dsterf``, the tridiagonal
eigensolver of :func:`rmtgaps.ensemble.eigen_tridiagonal`, as ``_dsterf``.
Only an ILP64 export counts (``scipy_dsterf_64_`` in numpy 2 wheels and,
untested, ``dsterf_64_`` in numpy 1.2x wheels), called as ``dsterf(&n, d, e, &info)``
with 64-bit ``n`` and ``info``.  Where numpy exports none, ``_dsterf`` is
None and the ensemble uses scipy's wrapper of the same routine.
"""

import ctypes  # numpy loads it anyway
import os

import numpy  # noqa: F401 - loads numpy's OpenBLAS, so that it is pinned and read below

__version__ = "0.1.0"

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the thread-count setters of numpy's bundled OpenBLAS, scipy's and a system one
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)

# numpy's ILP64 dsterf (see the module docstring)
_DSTERF_NAMES = ("scipy_dsterf_64_", "dsterf_64_")


def _scan_openblas():
    """Set every OpenBLAS mapped into this process to one thread, unless the user
    set a count, and return the first ILP64 ``dsterf`` one exports, or None.  The
    libraries are found in ``/proc/self/maps`` and opened with ``RTLD_NOLOAD``, so
    the scan loads nothing; where either fails, nothing is pinned or found."""
    try:
        with open("/proc/self/maps") as maps:
            # the last field of a mapping is its file, or its inode where it has none
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
        mode = os.RTLD_NOLOAD
    except (OSError, AttributeError):  # no procfs, or no dlopen flags on this platform
        return None
    pin = not any(name in os.environ for name in _THREAD_VARIABLES)
    dsterf = None
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        setter = next((getattr(lib, s) for s in _OPENBLAS_SETTERS if hasattr(lib, s)), None)
        if pin and setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
        if dsterf is None:
            dsterf = next((getattr(lib, s) for s in _DSTERF_NAMES if hasattr(lib, s)), None)
    if dsterf is not None:
        int64 = ctypes.POINTER(ctypes.c_int64)
        dsterf.argtypes = [int64, ctypes.c_void_p, ctypes.c_void_p, int64]
        dsterf.restype = None
    return dsterf


_dsterf = _scan_openblas()
