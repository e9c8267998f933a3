"""One BLAS thread for the program's own products.

The VBEM loop is built from small products: at N=256, M=50 an iteration
does two 256x50 complex matrix-vector products plus 50x50 Gram work. A
threaded OpenBLAS splits each of them over every core, and its worker
threads keep spinning after each call, so a process would burn two cores
for one core of work. The split would also change the summation order, so
the estimates would depend on the BLAS thread count.
"""

import contextlib
import ctypes
import functools
import os
import threading

_lock = threading.Lock()
_depth = 0    # threads inside one_blas_thread
_saved = []   # (setter, value it returned) from the first to enter


@functools.cache
def _setters():
    """openblas_set_num_threads_local of every OpenBLAS loaded in the
    process, found through /proc/self/maps on the first call and kept.
    phasedoa itself loads only numpy's; one that the host program loads
    later (scipy brings its own) is not in the list. Empty where there is
    no maps file, no OpenBLAS or no such symbol."""
    try:
        with open("/proc/self/maps") as maps:
            # a line that names a file ends with its path, the 6th field
            paths = {line.split(maxsplit=5)[5].rstrip("\n")
                     for line in maps if "openblas" in line}
    except OSError:
        return ()
    setters = []
    for path in sorted(p for p in paths
                       if "openblas" in os.path.basename(p)):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the previous thread count
        setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed products on one OpenBLAS thread; the caller's
    thread count comes back on exit, also on an exception.

    The pthreads build of OpenBLAS (the one numpy and scipy wheels ship)
    applies the "local" setter to the whole process, so callers on several
    threads share one setting: the first to enter saves it and the last to
    leave restores it. Does nothing where _setters finds no OpenBLAS.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(setter, setter(1)) for setter in _setters()]
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for setter, previous in _saved:
                    setter(previous)
