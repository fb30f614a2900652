"""One BLAS thread, through the thread setter of the OpenBLAS that numpy has
loaded. The library is found in this process's memory map, so this works on
Linux only; elsewhere, or where numpy links another BLAS, it refuses."""
import contextlib
import ctypes
import os

# (setter, getter) symbol pairs of OpenBLAS builds: the plain library, and the
# scipy-openblas build bundled with numpy wheels (64-bit integer interface)
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


def _openblas_libraries() -> list:
    """Paths of the OpenBLAS libraries loaded into this process, read from
    its memory map (Linux); empty where there is none or no map to read."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
    except OSError:
        paths = []
    return list(dict.fromkeys(p for p in paths if os.path.isfile(p)))


def _openblas_thread_functions():
    """(set_num_threads, get_num_threads) of the OpenBLAS numpy has loaded,
    as ctypes functions, or None."""
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def one_thread():
    """Run the body with BLAS pinned to one thread, and restore the previous
    thread count when it ends. Raises OSError, before the body runs, where no
    OpenBLAS thread setter is loaded: nothing would be pinned."""
    functions = _openblas_thread_functions()
    if functions is None:
        raise OSError("cannot pin BLAS threads: numpy has no OpenBLAS thread setter "
                      "loaded in this process")
    set_threads, get_threads = functions
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)
