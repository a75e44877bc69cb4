"""One BLAS thread for the length of a deploy or a training run, and the
one rule for where a GEMM may be cut in two without changing a bit.

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

# Where a GEMM may be cut in two (cut): at a multiple of _SEAM_COLUMNS, for
# two rows or more, at least _CUT_COLUMNS output columns and _CUT_MADDS
# multiply-adds in each half. OpenBLAS gives every entry the bits of the
# whole when the second half starts on a multiple of its dgemm kernel's
# column tile, and 64 is a multiple of every kernel's tile. On the SkylakeX
# kernel each of the 5014 such cuts tried, up to 320 x 4098 x 4098 (rows x
# inner x columns), kept every bit; a seam one column off, or a row cut, did
# not. Smaller cuts changed bits where a half fell to the small-matrix
# kernel (up to 10^6 multiply-adds), or where the whole had 193-383 columns,
# not a multiple of 8, and so two column blocks (1183 entries of a 64 x 512
# x 300 product). A one-row product is a GEMV, which was not checked.
_SEAM_COLUMNS = 64
_CUT_COLUMNS = 384
_CUT_MADDS = 1 << 20


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


def cut(rows: int, inner: int, cols: int) -> int | None:
    """The seam at which a rows x inner x cols GEMM may be cut in two with
    every bit of the whole kept: the multiple of _SEAM_COLUMNS nearest
    cols / 2, or None where a cut may change bits (see _CUT_COLUMNS)."""
    seam = _SEAM_COLUMNS * ((cols + _SEAM_COLUMNS) // (2 * _SEAM_COLUMNS))
    if rows < 2 or cols < _CUT_COLUMNS or rows * inner * min(seam, cols - seam) < _CUT_MADDS:
        return None
    return seam
