"""Shared machinery of the benchmark: environment header, layer tracer,
peak-RSS sampler, STREAM-style triad probe, and small statistics.

Nothing here imports the program under test at module load, so the
environment header can be captured before ``repro`` is imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

#: thread-count variables every workload process starts without, so
#: each run sees the library default a user gets
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ------------------------------------------------------------ statistics


def median(values) -> float:
    return float(statistics.median(values))


# ------------------------------------------------------------ environment


def _blas_info() -> dict:
    import numpy as np

    info = {"vendor": "unknown", "version": "unknown"}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info = {
            "vendor": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
        }
    except Exception:
        pass
    info["threads_effective"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count the bundled OpenBLAS will use, or None when the
    library or its query symbol cannot be found."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _source_identity(root: str) -> dict:
    """Git sha and dirty flag of the checkout; a content hash of
    ``src/`` when the checkout is not a git repository."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        # a checkout nested in some other repository is not that repository
        if git.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=root,
                capture_output=True, text=True, timeout=10,
            )
            return {"git_sha": lines[1], "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_sha": None, "dirty": None, "src_sha256": h.hexdigest()}


def environment(root: str) -> dict:
    """The header every result carries; comparisons check it first."""
    import numpy as np
    import scipy

    from repro.backend import get_backend

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_affinity": affinity,
        "nproc": os.cpu_count(),
        "blas": _blas_info(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "backend": get_backend().name,
        **_source_identity(root),
    }


# ----------------------------------------------------------- peak memory


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tids = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    kids = [int(c) for c in f.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


#: seconds between two samples of the resident set
RSS_PERIOD = 0.05


class PeakRSS:
    """Samples the resident set of this process plus all of its
    descendants (worker pools) every ``RSS_PERIOD`` seconds; ``peak_mb``
    is the largest sum seen, floored by this process's own maxrss."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        me = os.getpid()
        while not self._stop.is_set():
            kb = _rss_kb(me) + sum(_rss_kb(p) for p in _descendants(me))
            self.peak_kb = max(self.peak_kb, kb)
            self._stop.wait(RSS_PERIOD)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    @property
    def peak_mb(self) -> float:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0


# ------------------------------------------------------ bandwidth probe


def last_level_cache_bytes() -> int:
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        entries = []
    for e in entries:
        try:
            with open(os.path.join(base, e, "size")) as f:
                s = f.read().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(s[-1:], 1)
        best = max(best, int(s.rstrip("KMG")) * mult)
    return best or (32 << 20)


def stream_triad() -> dict:
    """STREAM-style triad ``a = b + s c``, processed in L2-sized chunks
    so the temporaries stay in cache and memory traffic is the three
    arrays.  The three arrays together span four times the last-level
    cache.  Best of three passes; bytes follow the STREAM convention
    (24 per element)."""
    import numpy as np

    llc = last_level_cache_bytes()
    n = max(4 * llc // 24, 1 << 20)
    a = np.empty(n)
    b = np.ones(n)
    c = np.full(n, 2.0)
    chunk = 1 << 15
    tmp = np.empty(chunk)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(0, n, chunk):
            j = min(i + chunk, n)
            t = tmp[: j - i]
            np.multiply(c[i:j], 3.0, out=t)
            np.add(b[i:j], t, out=a[i:j])
        best = min(best, time.perf_counter() - t0)
    ok = bool(a[0] == 7.0 and a[-1] == 7.0)
    del a, b, c
    return {
        "gbs": 24.0 * n / best / 1e9,
        "llc_bytes": llc,
        "array_bytes": 8 * n,
        "working_set_bytes": 24 * n,
        "ok": ok,
    }


# --------------------------------------------------------------- tracer


class Tracer:
    """Wraps public entry points from outside and attributes wall time
    to layers.

    Every wrapped call is a span on its thread's stack; a layer's self
    time is its span duration minus the time covered by spans nested
    inside it.  The ``wait`` layer (blocking waits on another thread's
    work) still cuts its time out of the parent span but counts toward
    no layer in the ledger, so summing self times across threads does
    not count the same interval twice.
    """

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _wrapper(self, layer, fn, on_call):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._tls, "stack", None)
            if stack is None:
                stack = tracer._tls.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with tracer._lock:
                    tracer.incl_s[layer] += dt
                    tracer.self_s[layer] += dt - child
                    tracer.calls[layer] += 1
            # counters look at results, so only completed calls feed them
            if on_call is not None:
                on_call(tracer, args, kwargs, result, t0, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, name: str, layer: str, on_call=None) -> None:
        """Replace ``owner.name`` (module, class, or instance
        attribute) by a timing wrapper until :meth:`restore`."""
        own = vars(owner)
        had = name in own
        raw = own.get(name)
        fn = getattr(owner, name)
        setattr(owner, name, self._wrapper(layer, fn, on_call))
        self._patches.append((owner, name, had, raw))

    def wrap(self, layer: str, fn, on_call=None):
        """A traced version of a callable the benchmark calls itself."""
        return self._wrapper(layer, fn, on_call)

    def restore(self) -> None:
        while self._patches:
            owner, name, had, raw = self._patches.pop()
            if had:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)

    def ledger(self, wall_s: float) -> dict:
        """Self time per layer, their sum, and the residual against the
        traced wall time (``sum + residual == wall`` by definition)."""
        layers = {
            k: v for k, v in sorted(self.self_s.items())
            if k != "wait"
        }
        total = sum(layers.values())
        return {
            "wall_s": wall_s,
            "self_s": layers,
            "self_sum_s": total,
            "residual_s": wall_s - total,
            "residual_frac": (wall_s - total) / wall_s if wall_s else 0.0,
        }


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
