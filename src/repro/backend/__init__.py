"""Pluggable compute backends for the time-stepping hot paths.

Every stiffness application in the package — the 3D elastic operator,
the scalar-wave kernel of the inverse problem, the tetrahedral
baseline, the per-rank operators of the distributed solver — is routed
through a *kernel* object built by the active backend:

* ``numpy`` (default): BLAS block products plus a coefficient-folded
  CSR scatter, all writing into preallocated workspace
  (:mod:`repro.backend.numpy_backend`);
* ``numba``: the same kernels JIT-compiled with ``prange`` parallelism
  (:mod:`repro.backend.numba_backend`); selecting it when numba is not
  installed warns and falls back to ``numpy``.

Selection: the ``REPRO_BACKEND`` environment variable (read once, at
first use) or :func:`set_backend`.  Kernels capture the backend active
at *operator construction*; call :func:`set_backend` before building
solvers.  Results are backend-independent to roundoff (tested to
1e-12): the backends perform identical arithmetic, only the internal
summation order of the scatter may differ.

>>> from repro.backend import set_backend
>>> set_backend("numba")           # or REPRO_BACKEND=numba in the env
>>> set_backend(None)              # back to the environment default

:func:`blas_threads` / :func:`set_blas_threads` read and set the
thread count of the OpenBLAS bundled with numpy (the library behind
the element GEMMs).  The process transport pins each worker rank to
one BLAS thread with them; nothing else in the package changes the
caller's setting.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os
import warnings

import numpy as np

from repro.backend.sparse_ops import (
    HAVE_INPLACE_SPMV,
    ScatterPlan,
    spmv_acc,
    spmv_into,
)

__all__ = [
    "available_backends",
    "blas_threads",
    "get_backend",
    "set_blas_threads",
    "set_backend",
    "use_backend",
    "ScatterPlan",
    "spmv_acc",
    "spmv_into",
    "HAVE_INPLACE_SPMV",
]

_active = None


def available_backends() -> list[str]:
    """Backends that would actually run in this environment."""
    names = ["numpy"]
    if importlib.util.find_spec("numba") is not None:
        names.append("numba")
    return names


def _instantiate(name: str):
    name = name.strip().lower()
    if name == "numpy":
        from repro.backend.numpy_backend import NumpyBackend

        return NumpyBackend()
    if name == "numba":
        try:
            from repro.backend.numba_backend import NumbaBackend

            return NumbaBackend()
        except ImportError:
            warnings.warn(
                "numba backend requested but numba is not installed; "
                "falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=3,
            )
            from repro.backend.numpy_backend import NumpyBackend

            return NumpyBackend()
    raise ValueError(
        f"unknown backend {name!r}; available: {available_backends()}"
    )


def get_backend():
    """The active backend (resolving ``REPRO_BACKEND`` on first use)."""
    global _active
    if _active is None:
        name = os.environ.get("REPRO_BACKEND", "").strip() or "numpy"
        try:
            _active = _instantiate(name)
        except ValueError:
            warnings.warn(
                f"REPRO_BACKEND={name!r} is not a known backend; "
                "using numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            _active = _instantiate("numpy")
    return _active


def set_backend(name: str | None):
    """Select the compute backend by name; ``None`` re-resolves from
    the environment.  Returns the backend actually activated (which is
    the numpy fallback when numba was requested but is absent)."""
    global _active
    _active = None if name is None else _instantiate(name)
    return get_backend()


class use_backend:
    """Context manager scoping a backend choice (used by the
    equivalence tests)."""

    def __init__(self, name: str):
        self.name = name
        self._saved = None

    def __enter__(self):
        global _active
        self._saved = _active
        return set_backend(self.name)

    def __exit__(self, *exc):
        global _active
        _active = self._saved
        return False


# ------------------------------------------------------------ BLAS threads

#: thread-count entry points of numpy's bundled OpenBLAS, newest
#: (scipy-openblas, 64-bit interface) first
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_fns():
    """``(get, set)`` ctypes functions of numpy's bundled OpenBLAS, or
    None when no library in ``numpy.libs`` exports a known pair
    (another BLAS vendor, a system OpenBLAS, a stripped build)."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_sym, set_sym in _BLAS_SYMBOLS:
            get = getattr(lib, get_sym, None)
            set_ = getattr(lib, set_sym, None)
            if get is not None and set_ is not None:
                get.argtypes = ()
                get.restype = ctypes.c_int
                set_.argtypes = (ctypes.c_int,)
                set_.restype = None
                return get, set_
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS uses for one call in this process, or
    None when the library cannot be reached."""
    fns = _blas_thread_fns()
    return None if fns is None else int(fns[0]())


def set_blas_threads(n: int) -> int | None:
    """Set this process's OpenBLAS thread count to ``n``; returns the
    previous count.  Does nothing and returns None when the library
    cannot be reached."""
    fns = _blas_thread_fns()
    if fns is None:
        return None
    previous = int(fns[0]())
    fns[1](int(n))
    return previous
