"""The compiled engine: ``_kernel.c`` built on first use and called through ctypes.

The C file ports :func:`qubitrot.dynamics._dopri45` and ``rhs()``, which
evaluates the right-hand side a :class:`Problem` describes (the Lambda system
or its two-level reduction, built by ``dynamics._problem``; its Python mirror
is ``dynamics._rhs``). It keeps CPython's operation order, so that it takes
the same steps and gives the same bits; ``dynamics._propagate`` picks the
engine. It also formats numeric CSV tables cell by cell exactly as
``"%.17g" % x`` (:func:`format_rows`). The first use in a process builds it
with the system C compiler into the package's own ``__pycache__``, under a
name that carries a hash of the source and the flags; later processes load
that file. If there is no compiler, the directory is not writable or the
library does not load, :func:`library` logs one warning, returns None for
the rest of the process, and callers fall back to ``_dopri45`` and to Python's
formatting.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .errors import IntegrationError
from .types import SolverStats

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

# No contraction into fused multiply-adds and no builtins: gcc otherwise
# rewrites pow(x, 2.0) as x*x, which differs from glibc's pow in the last bit
# for about 0.08 % of arguments. Never -ffast-math or -march=native.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")

_UNDERFLOW, _DRIFT = 1, 2

# bytes per table cell: the longest "%.17g", -2.2250738585072014e-308, and a
# separator; CELL in _kernel.c
_CELL = 25
_CHUNK_BYTES = 1 << 16

# lines of the compiler's stderr that a failed build quotes
_STDERR_LINES = 5

_int64 = ctypes.c_int64
_double = ctypes.c_double
_ptr = ctypes.c_void_p


class Problem(ctypes.Structure):
    """A run's right-hand side as numbers, built by ``dynamics._problem``;
    mirrors ``problem`` in _kernel.c field for field."""

    _fields_ = (
        [(name, _double) for name in ("ca", "cb", "inv_tau", "cutoff")]
        + [(f"w{ij}{part}", _double) for ij in ("11", "12", "21", "22") for part in ("re", "im")]
        + [(name, _int64) for name in ("mixed", "reduced")]
        + [("d1", _double), ("dd", _double), ("kind1", _int64), ("kind2", _int64)]
        + [(name, _double) for name in ("chi1", "chi2", "center1", "center2", "chirp_inv_tau")]
        + [(name, _double) for name in ("alpha", "bplus_re", "bplus_im", "inv_delta")]
    )


def compile_library(cache_dir: Path = CACHE_DIR) -> Path:
    """Path of the built kernel in ``cache_dir``, compiling it if it is missing.

    The library is written to a temporary name in ``cache_dir`` and moved into
    place, so concurrent processes never load a partial file; it then
    removes the other ``_kernel-*.so`` builds there, not the ``.tmp`` files
    of builds still running. Raises OSError or subprocess.SubprocessError if
    it cannot be built; a compiler that fails is quoted by the last lines of
    its stderr.
    """
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(CFLAGS).encode() + platform.machine().encode())
    target = cache_dir / f"_kernel-{digest.hexdigest()[:16]}.so"
    if target.is_file():
        return target
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise FileNotFoundError("no C compiler (cc or gcc) on PATH")
    cache_dir.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, target)
    except subprocess.CalledProcessError as exc:
        tail = exc.stderr.decode(errors="replace").splitlines()[-_STDERR_LINES:]
        raise subprocess.SubprocessError("\n".join([str(exc), *tail])) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in cache_dir.glob("_kernel-*.so"):
        if stale != target:
            # Linux unmaps no library that a process loaded; another
            # process may remove it first, and Windows refuses while loaded
            with contextlib.suppress(OSError):
                stale.unlink()
    return target


def load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    fn = lib.qr_dopri45
    fn.argtypes = [
        ctypes.POINTER(Problem), _int64, _double, _ptr, _ptr, _int64,
        _double, _double, _double, _ptr, _ptr, _ptr, _ptr,
    ]  # fmt: skip
    fn.restype = ctypes.c_int
    fn = lib.qr_format_rows
    fn.argtypes = [_ptr, _int64, _int64, _ptr, _int64]
    fn.restype = _int64
    return lib


_UNSET = object()
_library = _UNSET
_build_lock = threading.Lock()


def library() -> ctypes.CDLL | None:
    """The loaded kernel, or None once building or loading it failed in this process.

    Thread-safe: threads that ask at once wait for one build and load.
    """
    global _library
    if _library is _UNSET:
        with _build_lock:
            if _library is _UNSET:
                try:
                    _library = load(compile_library())
                except (OSError, subprocess.SubprocessError) as exc:
                    log.warning(
                        "compiled kernel unavailable, so this process integrates with the "
                        "Python stepper, which is much slower: %s",
                        exc,
                    )
                    _library = None
    return _library


def dopri45(
    prob: Problem,
    t: float,
    y,
    t_eval: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    stats: SolverStats,
    drift_limit: float,
    n: int = 3,
) -> np.ndarray:
    """``dynamics._dopri45`` on the kernel: the samples as an (m, 3) complex array.

    Call only once :func:`library` has returned the library. ``t_eval`` is
    increasing and its last entry is where the integration stops. Raises the
    same IntegrationError, with the same message and time, as the Python
    stepper.
    """
    t_eval = np.ascontiguousarray(t_eval, dtype=np.float64)
    y0 = np.array(y, dtype=np.complex128)
    if t_eval.ndim != 1 or t_eval.size == 0 or y0.shape != (3,):
        raise ValueError("need a non-empty 1-d t_eval and a state of three slots")
    out = np.empty((t_eval.size, 3), dtype=np.complex128)
    counts = np.array([stats.rhs_evals, stats.accepted_steps, stats.rejected_steps], np.int64)
    min_step = np.array([stats.min_step])
    fail = np.zeros(2)
    code = _library.qr_dopri45(
        ctypes.byref(prob), n, t, y0.ctypes.data, t_eval.ctypes.data, t_eval.size,
        rel_tol, abs_tol, drift_limit, out.ctypes.data, counts.ctypes.data,
        min_step.ctypes.data, fail.ctypes.data,
    )  # fmt: skip
    stats.rhs_evals, stats.accepted_steps, stats.rejected_steps = map(int, counts)
    stats.min_step = float(min_step[0])
    if code == _UNDERFLOW:
        raise IntegrationError("step size fell below 10 ulp of t", float(fail[0]))
    if code == _DRIFT:
        message = f"norm drift {float(fail[1]):.3g} exceeds {drift_limit}"
        raise IntegrationError(message, float(fail[0]))
    return out


def format_rows(rows: np.ndarray) -> list[str]:
    """The rows of ``rows``, a (nrows, ncols) float64 array, as CSV lines.

    Each cell is ``"%.17g" % x``, byte for byte. Call only once
    :func:`library` has returned the library.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("need a 2-d array of rows")
    if rows.size == 0:
        return []
    ncols = rows.shape[1]
    # A few rows at a time, into a buffer below glibc's initial mmap
    # threshold: freeing a buffer the size of the whole text raises that
    # threshold, so that the text-sized strings of the writer then come from
    # the heap and stay resident (+1.4 MB of peak RSS on trajectory_io).
    step = max(1, _CHUNK_BYTES // (_CELL * ncols))
    buf = np.empty(_CELL * ncols * step, dtype=np.uint8)
    lines: list[str] = []
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        n = _library.qr_format_rows(chunk.ctypes.data, len(chunk), ncols, buf.ctypes.data, buf.size)
        if n < 0:
            raise RuntimeError("qr_format_rows: buffer too small")
        # without the newline that ends the last row
        lines += str(memoryview(buf)[: n - 1], "ascii").split("\n")
    return lines
