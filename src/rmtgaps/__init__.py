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
No artifact depends on the thread count.  scipy's OpenBLAS, which the Monte
Carlo commands load later, runs only ``sterf``, which uses no BLAS thread.
A build with another BLAS (MKL, Accelerate) is left as it is.
"""

import os

import numpy  # noqa: F401 - loads numpy's OpenBLAS, so that it is pinned below

__version__ = "0.1.0"

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the thread-count setters of numpy's bundled OpenBLAS, scipy's and a system one
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _pin_openblas_threads() -> None:
    """Set every OpenBLAS mapped into this process to one thread, unless the user
    set a count.  The libraries are found in ``/proc/self/maps`` and opened with
    ``RTLD_NOLOAD``, so nothing is loaded to pin it; where either fails, nothing
    happens."""
    if any(name in os.environ for name in _THREAD_VARIABLES):
        return
    import ctypes  # numpy has loaded it already

    try:
        with open("/proc/self/maps") as maps:
            # the last field of a mapping is its file, or its inode where it has none
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
        mode = os.RTLD_NOLOAD
    except (OSError, AttributeError):  # no procfs, or no dlopen flags on this platform
        return
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        setter = next((getattr(lib, s) for s in _OPENBLAS_SETTERS if hasattr(lib, s)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


_pin_openblas_threads()
