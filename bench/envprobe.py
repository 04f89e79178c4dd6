"""Print, as one JSON line, the numerical environment a qnm command runs in.

Run it with the same environment as the commands: it reports the numpy
version, the BLAS library numpy was built against, the thread count that
BLAS library actually uses, and the Python version.
"""

import ctypes
import json
import platform

import numpy as np

# thread-count getters exported by OpenBLAS builds (plain, 64-bit-int and
# scipy-openblas suffixes) and by MKL
_THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_threads():
    """Threads the loaded BLAS library will use, or None when it exports no known getter."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "blas" in line.lower() or "mkl" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
    }


if __name__ == "__main__":
    print(json.dumps(environment()))
