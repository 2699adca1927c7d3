"""cffi compilation and on-disk caching of the kernel module.

There is one kernel module: the kernels take the tape as a runtime
argument (see :mod:`repro.engine.native.codegen`), so every tape in a
process shares it. The module is built or loaded at most once per
process, and its cached shared object is keyed by a hash of the codegen
version, the cdef and the kernel source — never by tape — so another
process, or another CI step, reuses it instead of invoking the C
compiler again. The cache directory is ``$PROBLP_NATIVE_CACHE`` when
set, else ``$XDG_CACHE_HOME/problp/native`` (defaulting under
``~/.cache``).

Builds are cross-process safe: each process compiles into its own
temporary subdirectory and atomically ``os.replace``s the finished
shared object into the cache, so racers simply overwrite each other
with identical artifacts.

:func:`native_available` is "the kernel module builds and loads": the
first attempt's outcome is kept for the life of the process, so
anything that breaks the toolchain — cffi missing, no C compiler,
unwritable cache — flips it to False once, with the reason preserved
for diagnostics, and callers fall back to the numpy executors.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import tempfile
import threading
import time
from typing import Any

from ...obs.metrics import REGISTRY
from .codegen import CODEGEN_VERSION, KERNEL_CDEF, KERNEL_SOURCE

__all__ = [
    "NativeBuildError",
    "cache_dir",
    "kernel_module",
    "native_available",
    "native_unavailable_reason",
]

#: Compile flags that preserve bit-identity with the numpy oracle: -O2
#: without fast-math, and contraction off so no FMA merges a multiply
#: and an add into a single differently-rounded instruction. The
#: explicit vectorizer flags matter at -O2: gcc 12's default
#: "very-cheap" cost model refuses most of the generated lane loops,
#: and the ``#pragma GCC ivdep`` annotations in the kernels only lift
#: the aliasing half of that veto. SIMD reorders nothing the kernels
#: compute lane-wise, so vectorization cannot change a single rounding.
_COMPILE_ARGS = [
    "-O2",
    "-ftree-vectorize",
    "-fvect-cost-model=dynamic",
    "-ffp-contract=off",
]

_BUILD_TOTAL = REGISTRY.counter(
    "problp_native_build_total",
    "Native kernel-module builds by outcome: disk_hit reused a cached "
    ".so, compiled invoked the C compiler, failed raised.",
    labelnames=("outcome",),
)
_CC_SECONDS = REGISTRY.histogram(
    "problp_native_cc_seconds",
    "Wall time of cffi compile+link for one kernel module.",
)


class NativeBuildError(RuntimeError):
    """Compiling or loading the native kernel module failed."""


def cache_dir() -> str:
    """The directory the kernel module is compiled into and loaded from."""
    configured = os.environ.get("PROBLP_NATIVE_CACHE")
    if configured:
        return configured
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "problp", "native")


_MODULE_NAME = "_problp_kernels_" + hashlib.sha256(
    f"v{CODEGEN_VERSION}\n{KERNEL_CDEF}\n{KERNEL_SOURCE}".encode()
).hexdigest()[:16]


def _extension_suffix() -> str:
    import importlib.machinery

    return importlib.machinery.EXTENSION_SUFFIXES[0]


def _load_extension(name: str, path: str) -> Any:
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise NativeBuildError(f"cannot load native module at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile_into_cache() -> str:
    """Compile the kernel module into the cache dir; returns the .so path."""
    try:
        from cffi import FFI
    except ImportError as error:
        _BUILD_TOTAL.labels("failed").inc()
        raise NativeBuildError(f"cffi is not installed: {error}") from error

    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    final_path = os.path.join(directory, _MODULE_NAME + _extension_suffix())
    if os.path.exists(final_path):
        _BUILD_TOTAL.labels("disk_hit").inc()
        return final_path
    workdir = tempfile.mkdtemp(prefix=_MODULE_NAME + ".", dir=directory)
    started = time.monotonic()
    try:
        ffi = FFI()
        ffi.cdef(KERNEL_CDEF)
        ffi.set_source(
            _MODULE_NAME, KERNEL_SOURCE, extra_compile_args=_COMPILE_ARGS
        )
        built = ffi.compile(tmpdir=workdir)
        os.replace(built, final_path)
    except NativeBuildError:
        _BUILD_TOTAL.labels("failed").inc()
        raise
    except Exception as error:  # compiler/toolchain failures of any kind
        _BUILD_TOTAL.labels("failed").inc()
        raise NativeBuildError(
            f"native kernel build failed: {type(error).__name__}: {error}"
        ) from error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _CC_SECONDS.observe(time.monotonic() - started)
    _BUILD_TOTAL.labels("compiled").inc()
    return final_path


_MODULE_LOCK = threading.Lock()
#: ``(module, None)`` or ``(None, failure reason)`` once the first
#: build/load attempt of this process has finished.
_module_outcome: tuple[Any, str | None] | None = None


def _kernel_module_outcome() -> tuple[Any, str | None]:
    global _module_outcome
    with _MODULE_LOCK:
        if _module_outcome is None:
            try:
                module = _load_extension(_MODULE_NAME, _compile_into_cache())
                _module_outcome = (module, None)
            except Exception as error:
                _module_outcome = (None, str(error))
        return _module_outcome


def kernel_module() -> Any:
    """The compiled+loaded cffi kernel module of this process.

    Raises :class:`NativeBuildError` when the toolchain is unavailable
    or the build failed; callers treat that as "fall back to numpy".
    """
    module, reason = _kernel_module_outcome()
    if module is None:
        raise NativeBuildError(reason)
    return module


def native_available() -> bool:
    """True when the kernel module builds and loads in this process."""
    return _kernel_module_outcome()[0] is not None


def native_unavailable_reason() -> str | None:
    """Why native kernels are unavailable, or ``None`` when they work."""
    return _kernel_module_outcome()[1]
