"""Run metadata: what a number was measured on.

The BLAS thread count is *read* from the OpenBLAS that NumPy bundles,
through its exported ``scipy_openblas_get_num_threads64_``; the
benchmark never sets it, so the figure is whatever the program runs
with.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Optional


def _bundled_openblas() -> Optional[ctypes.CDLL]:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_info() -> dict:
    """OpenBLAS version string and the thread count in effect (or None)."""
    lib = _bundled_openblas()
    info = {"openblas": None, "blas_threads": None}
    if lib is None:
        return info
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        info["blas_threads"] = int(get_threads())
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info["openblas"] = get_config().decode(errors="replace")
    except AttributeError:
        pass
    return info


def run_metadata(engine_desc: dict) -> dict:
    import numpy

    from repro.runtime.threads import available_cores

    return {
        "clock": "measured",
        "nproc": available_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_info(),
        **engine_desc,
    }


def describe_engine(engine) -> dict:
    """The engine class and worker count ``make_engine("auto")`` returned."""
    if engine is None:
        return {"engine": "serial", "engine_workers": 1}
    return {"engine": type(engine).__name__, "engine_workers": engine.n_workers}
