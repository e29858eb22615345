"""The OpenBLAS thread count of this process, read and set through ctypes.

The package sets no thread count itself, so the tests read it from outside:
the first OpenBLAS library in the process's memory map that exports a
getter and a setter (plain, 64-bit-suffixed, or the `scipy_` prefix numpy's
wheels build with). Call `controls()` after numpy has loaded OpenBLAS; this
module imports no numpy, so a fresh interpreter can import it before the
CLI picks its thread count.
"""

import ctypes
import os
import sys

NAMES = [(f"{prefix}openblas_get_num_threads{suffix}",
          f"{prefix}openblas_set_num_threads{suffix}")
         for prefix in ("", "scipy_") for suffix in ("", "64_")]


def controls():
    """(get, set) of the mapped OpenBLAS thread count, or None where none is
    found (another platform or BLAS)."""
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {fields[5].strip() for fields in
                 (line.split(maxsplit=5) for line in fh) if len(fields) == 6}
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for get_name, set_name in NAMES:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None
