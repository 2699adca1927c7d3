"""Native compiled-tape backend: fused C kernels for tape replay.

One tape-generic C module — float64 forward/backward with lane-blocked,
vectorizable batch loops, exact int64 fixed-point forward/backward, and
the emulated-float (mantissa, exponent) word sweeps with
guard/round/sticky rounding — replays every compiled
:class:`~repro.engine.tape.Tape`: the kernels read the tape's op arrays
and parameter/indicator tables at run time. The module is built via
cffi at first use, once per process, and cached on disk under a hash of
the codegen version and kernel source, so no tape ever pays a compile
of its own. Every kernel also reads its parameter table from a runtime
pointer (shared or per-lane), so θ-sweeps replay natively too. The
numpy executors remain the semantic oracle: every native kernel is
differentially pinned bit-identical to them (see
``tests/engine/test_native.py``).

The package degrades gracefully: when cffi or a C compiler is missing,
:func:`native_available` is False (with the reason kept) and
:class:`~repro.engine.session.InferenceSession` silently serves from
the numpy executors. Backend choice is a runtime policy — see the
``PROBLP_BACKEND`` environment variable, ``InferenceSession(backend=)``
and the CLI ``--backend`` flag.
"""

from .build import (
    NativeBuildError,
    cache_dir,
    kernel_module,
    native_available,
    native_unavailable_reason,
)
from .codegen import CODEGEN_VERSION
from .kernels import NativeTapeKernels, native_kernels_for

__all__ = [
    "CODEGEN_VERSION",
    "NativeBuildError",
    "NativeTapeKernels",
    "cache_dir",
    "kernel_module",
    "native_available",
    "native_kernels_for",
    "native_unavailable_reason",
]
