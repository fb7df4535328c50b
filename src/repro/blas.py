"""Run numpy's BLAS on one thread.

numpy's bundled OpenBLAS starts a helper thread for every BLAS call above
its size threshold (norms, dot products, matrix products), and after each
call that thread busy-waits for more work.  This library makes many such
calls from one Python thread, so the helper mostly spins.  On a 2-vCPU Xeon
host (numpy 2.4, OpenBLAS 0.3.31) a 2^20-element ``np.linalg.norm`` cost
5.3 ms of process CPU on two threads and 0.31 ms on one, and a 600-round
VGG19 training run 4.4 s of process CPU (2.2 s on its main thread) against
1.8 s.  :func:`pin_blas_to_one_thread` runs once, when :mod:`repro` is
imported; fork-started workers (sweep pools, bridge workers) inherit it, and
spawned ones pin again when they import :mod:`repro`.

It steps aside, leaving OpenBLAS's own choice in force, when the user has
already set a thread count in one of the variables OpenBLAS reads, or when
numpy's BLAS is not OpenBLAS.
"""

from __future__ import annotations

import ctypes
import os

import numpy  # noqa: F401 - loads the BLAS library looked up below

#: Environment variables OpenBLAS takes its thread count from.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: ``(restype, argtypes)`` of each OpenBLAS function called here.
_SIGNATURES = {
    "get_num_threads": (ctypes.c_int, []),
    "set_num_threads": (None, [ctypes.c_int]),
}


def _openblas_function(name: str):
    """``openblas_<name>`` of the OpenBLAS numpy loaded, or ``None``.

    numpy's wheels export it as ``scipy_openblas_<name>64_``; plain builds
    as ``openblas_<name>``.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(None, 5)[5].strip()
                for line in maps
                if "openblas" in line.lower()
            }
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype, function.argtypes = _SIGNATURES[name]
                return function
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS runs a call on; ``None`` when BLAS is not OpenBLAS."""
    get_num_threads = _openblas_function("get_num_threads")
    return None if get_num_threads is None else get_num_threads()


def pin_blas_to_one_thread() -> None:
    """Set OpenBLAS to one thread, unless the user already chose a count."""
    if any(os.environ.get(variable) for variable in THREAD_ENV_VARS):
        return
    set_num_threads = _openblas_function("set_num_threads")
    if set_num_threads is not None:
        set_num_threads(1)
