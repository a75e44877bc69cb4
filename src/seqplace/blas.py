"""One BLAS thread for the length of a deploy or a training run.

OpenBLAS splits a GEMM differently at two threads than at one, so some
entries change in their last bit with OPENBLAS_NUM_THREADS. Every deploy
(the distance streams of `matching_classic` and `neural.lstm_match`) and
`neural.train` run their GEMMs inside `one_thread()`, so they give the bits
of one BLAS thread at any thread count, and their two threads do not each
start a BLAS thread per core.

The count is process-wide: the first run in saves it and sets 1, and the
last one out restores it, also when a run raises or its stream is closed.
Code that calls BLAS on another thread while a run is inside gets one
thread too; two concurrent runs in one process share the pin. Only
OpenBLAS is pinned: the library is found through /proc/self/maps, and
where no OpenBLAS setter is found (another BLAS, or no /proc), one_thread
does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache

_lock = threading.Lock()
_inside = 0  # runs inside one_thread
_saved = 1  # the count the first of them found


@cache
def _openblas():
    """(get, set) of the loaded OpenBLAS's thread count, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = (f[5].strip() for f in (line.split(maxsplit=5) for line in fh) if len(f) == 6)
            libs = sorted({path for path in paths if "openblas" in path.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def one_thread():
    """Run the body with OpenBLAS at one thread (see the module docstring)."""
    global _inside, _saved
    found = _openblas()
    if found is None:
        yield
        return
    get, put = found
    with _lock:
        if _inside == 0:
            _saved = get()
            put(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if _inside == 0:
                put(_saved)
