"""The serving front door: one compiled tape, many queries.

:class:`InferenceSession` owns everything repeat queries against one
circuit need — the compiled :class:`~repro.engine.tape.Tape`, the shared
:class:`~repro.engine.encoder.EvidenceEncoder`, and per-format executor
caches — so callers (``ProbLP``, the CLI, the experiment harnesses, a
future network service) pay compilation once and evaluation cost per
query only.

Format dispatch is automatic: quantized batches run on the exact
vectorized executors whenever the format qualifies (fixed point with
``2·(I+F) ≤ 62``, float with ``M ≤ 30, E ≤ 32``) and fall back to the
scalar big-int tape evaluator — bit-identical either way — for wider
formats.

Backend dispatch is a runtime policy: ``backend="auto"`` (the default,
overridable via ``PROBLP_BACKEND``) compiles the tape's fused C kernels
(:mod:`repro.engine.native`) at first use and serves float64, int64
fixed-point and int64 float-emulation sweeps from them, falling back to
the numpy executors whenever the native toolchain is unavailable;
``backend="numpy"`` pins the numpy executors; ``backend="native"``
insists but still degrades gracefully (the fallback reason is kept on
:attr:`InferenceSession.backend_fallback_reason`). Results are
bit-identical across backends — the numpy executors stay the
differential oracle.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

import numpy as np

from ..ac.circuit import ArithmeticCircuit
from ..arith.fixedpoint import FixedPointBackend, FixedPointFormat
from ..arith.floatingpoint import FloatBackend, FloatFormat
from .analysis import TapeAnalysis, tape_analysis_for
from .encoder import EvidenceEncoder
from .executors import (
    QuantizedTapeEvaluator,
    WordBatchExecutor,
    _require_binary_tape,
    execute_batch,
    execute_partials,
    execute_partials_batch,
    execute_real,
    execute_values,
)
from ..obs.metrics import REGISTRY
from .marginals import MarginalIndex, describe_evidence
from .memo import KeyedMemo
from .tape import Tape, tape_for
from .theta import align_theta, normalize_theta, theta_param_matrix

AnyFormat = FixedPointFormat | FloatFormat

#: Valid backend policies: "auto" prefers native and falls back,
#: "native" insists (still degrading gracefully), "numpy" pins numpy.
BACKEND_CHOICES = ("auto", "native", "numpy")

_DISPATCH_TOTAL = REGISTRY.counter(
    "problp_backend_dispatch_total",
    "Inference dispatches by effective execution backend.",
    labelnames=("backend",),
)
_FALLBACK_TOTAL = REGISTRY.counter(
    "problp_backend_fallback_total",
    "Dispatches that left native despite it being requested, by short "
    "reason code (toolchain, wide_format).",
    labelnames=("reason",),
)


def requested_backend(backend: str | None = None) -> str:
    """Resolve and validate a backend request (arg > env > "auto")."""
    requested = backend or os.environ.get("PROBLP_BACKEND") or "auto"
    if requested not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    return requested


class _NativeState:
    """Resolved native-kernel state: the kernels or the fallback reason."""

    __slots__ = ("kernels", "reason")

    def __init__(self, kernels: Any, reason: str | None) -> None:
        self.kernels = kernels
        self.reason = reason


def backend_for_format(fmt: AnyFormat):
    """The scalar big-int backend matching a format."""
    if isinstance(fmt, FixedPointFormat):
        return FixedPointBackend(fmt)
    if isinstance(fmt, FloatFormat):
        return FloatBackend(fmt)
    raise TypeError(f"unsupported format type {type(fmt).__name__}")


class InferenceSession:
    """Compiled-tape inference service for one circuit.

    Example
    -------
    >>> from repro.bn.networks import sprinkler_network
    >>> from repro.compile import compile_network
    >>> from repro.ac.transform import binarize
    >>> from repro.engine import InferenceSession
    >>> from repro.arith import FixedPointFormat
    >>> binary = binarize(compile_network(sprinkler_network()).circuit).circuit
    >>> session = InferenceSession(binary)
    >>> batch = [{"Rain": 1}, {"Rain": 0}, {}]
    >>> exact = session.evaluate_batch(batch)
    >>> quantized = session.evaluate_quantized_batch(
    ...     FixedPointFormat(1, 12), batch
    ... )
    >>> (abs(exact - quantized) < 2**-8).all()
    True
    """

    def __init__(
        self, circuit: ArithmeticCircuit, backend: str | None = None
    ) -> None:
        self.circuit = circuit
        self.tape: Tape = tape_for(circuit)
        self.encoder = EvidenceEncoder.for_tape(self.tape)
        # Backend policy: explicit argument beats $PROBLP_BACKEND beats
        # "auto". Native kernels compile lazily on first dispatch.
        self._requested_backend = requested_backend(backend)
        # One session serves many threads (the serve layer runs batch
        # flushes and optimize/hw work on a thread pool): every compiled
        # artifact lives in a KeyedMemo, so each executor/backend is
        # built exactly once and execution itself stays lock-free —
        # executors keep no per-call mutable state. The scalar quantized
        # evaluator (built on first quantized call: quantized evaluation
        # demands a binary circuit, exact float64 serving works on any
        # tape) and the marginal index share the singleton memo.
        self._executors: KeyedMemo = KeyedMemo()
        self._backends: KeyedMemo = KeyedMemo()
        self._singletons: KeyedMemo = KeyedMemo()
        # The most recent dispatch that had to leave native despite it
        # being requested records why here (wide formats only, now that
        # the kernels read parameter tables from runtime pointers);
        # surfaced via backend_fallback_reason.
        self._last_fallback_reason: str | None = None
        # Fallback reasons already surfaced by fallback_note(): callers
        # that log the note (the CLI) do so once per (session, reason);
        # repeats are only counted in problp_backend_fallback_total.
        self._noted_fallbacks: set[str] = set()

    @property
    def _scalar_quantized(self) -> QuantizedTapeEvaluator:
        return self._singletons.get(
            "scalar_quantized",
            lambda: QuantizedTapeEvaluator(self.tape, self.encoder),
        )

    # -- backend policy --------------------------------------------------
    def _resolve_native(self) -> _NativeState:
        try:
            from .native import native_kernels_for

            return _NativeState(
                native_kernels_for(self.tape, self.encoder), None
            )
        except Exception as error:  # toolchain/codegen failure → numpy
            return _NativeState(None, f"{type(error).__name__}: {error}")

    @property
    def _native(self):
        """The tape's native kernels, or ``None`` on the numpy backend."""
        if self._requested_backend == "numpy":
            return None
        return self._singletons.get("native_state", self._resolve_native).kernels

    @property
    def backend(self) -> str:
        """The *effective* execution backend: ``"native"`` or ``"numpy"``."""
        return "native" if self._native is not None else "numpy"

    @property
    def backend_requested(self) -> str:
        """The requested backend policy (``auto``/``native``/``numpy``)."""
        return self._requested_backend

    @property
    def backend_fallback_reason(self) -> str | None:
        """Why the latest dispatch left native despite it being requested.

        ``None`` while native serves every request (or the numpy backend
        was pinned). A toolchain/codegen failure keeps its own reason;
        otherwise the most recent dispatch that genuinely could not run
        native (a format too wide for the int64 word kernels) records
        why, and the next fully-native dispatch clears it again.
        """
        if self._requested_backend == "numpy":
            return None
        state = self._singletons.get("native_state", self._resolve_native)
        if state.kernels is None:
            return state.reason
        return self._last_fallback_reason

    def _route(self, fmt: AnyFormat | None = None):
        """``(native_kernels | None, reason | None, code | None)``.

        Pure lookup — no state is mutated, so the serve layer can use it
        (via :meth:`dispatch_plan`) to *predict* routing. The dispatch
        methods record the returned reason on
        :attr:`backend_fallback_reason` themselves. ``code`` is the
        short label for ``problp_backend_fallback_total{reason=…}`` —
        the prose ``reason`` would explode label cardinality. A format
        on a non-binary tape is rejected here, before any counter moves.
        """
        if fmt is not None:
            _require_binary_tape(self.tape)
        if self._requested_backend == "numpy":
            return None, None, None
        state = self._singletons.get("native_state", self._resolve_native)
        if state.kernels is None:
            return None, state.reason, "toolchain"
        if fmt is not None and not state.kernels.supports_format(fmt):
            return None, (
                f"{fmt.describe()} is outside the native kernels' int64 "
                f"word range; served by the numpy/big-int executors"
            ), "wide_format"
        return state.kernels, None, None

    def _dispatch(self, fmt: AnyFormat | None = None):
        """Route one call, recording the fallback reason (or clearing it)."""
        native, reason, code = self._route(fmt=fmt)
        self._last_fallback_reason = reason
        _DISPATCH_TOTAL.labels("native" if native is not None
                               else "numpy").inc()
        if code is not None:
            _FALLBACK_TOTAL.labels(code).inc()
        return native

    def dispatch_plan(self, fmt: AnyFormat | None = None) -> tuple[str, str | None]:
        """``(backend, fallback_reason)`` a call with these traits gets.

        Side-effect free — the serve layer reports per-request backends
        from this without racing concurrent dispatches.
        """
        native, reason, _ = self._route(fmt=fmt)
        return ("native" if native is not None else "numpy"), reason

    def fallback_note(self) -> str | None:
        """The current fallback reason, once per (session, reason).

        The first call after a dispatch falls back returns the prose
        reason so callers (the CLI) can print one ``# fallback: …``
        note; subsequent calls for the same reason return ``None`` —
        repeats are visible only as
        ``problp_backend_fallback_total{reason=…}`` increments.
        """
        reason = self.backend_fallback_reason
        if reason is None or reason in self._noted_fallbacks:
            return None
        self._noted_fallbacks.add(reason)
        return reason

    @property
    def analysis(self) -> TapeAnalysis:
        """The cached precision-independent analysis of this tape.

        One vectorized :class:`~repro.engine.analysis.TapeAnalysis` per
        compiled tape, shared with :func:`repro.engine.analysis_for` —
        the optimizer's extreme values and factor counts are computed
        once per circuit and reused by every format search, exactly
        like the tape is reused by every evaluation.
        """
        return tape_analysis_for(self.tape)

    def _align(
        self, evidence_batch: Sequence[Mapping[str, int]], theta: Any | None
    ) -> tuple[Sequence[Mapping[str, int]], np.ndarray | None]:
        """``(evidence_rows, θ matrix | None)``: the θ zip, or pass-through
        (every backend reads ``None`` as the tape's own parameter table)."""
        if theta is None:
            return evidence_batch, None
        return align_theta(self.tape, theta, evidence_batch)

    # -- exact float64 --------------------------------------------------
    def evaluate(self, evidence: Mapping[str, int] | None = None) -> float:
        """Exact float64 root value for one evidence assignment."""
        native = self._dispatch()
        if native is not None:
            return native.evaluate(evidence)
        return execute_real(self.tape, evidence, self.encoder)

    def evaluate_values(
        self, evidence: Mapping[str, int] | None = None
    ) -> list[float]:
        """Exact float64 value of every circuit node."""
        native = self._dispatch()
        if native is not None:
            return native.evaluate_values(evidence)
        return execute_values(self.tape, evidence, self.encoder)

    def evaluate_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        theta: Any | None = None,
    ) -> np.ndarray:
        """Exact float64 root values for a whole evidence batch.

        ``strict=True`` rejects evidence on unknown variables instead of
        ignoring it (the seed batch behavior, kept as the default).
        ``theta`` adds the parameter batch axis: an
        ``(n_theta, n_params)`` matrix zipped row-for-row against the
        evidence batch (either side may have one row, which broadcasts);
        lane ``i`` then evaluates under ``theta[i]`` instead of the
        tape's own parameter table. θ batches ride the native kernels'
        runtime-parameter entry points under ``auto``/``native`` (see
        :attr:`backend_fallback_reason`).
        """
        evidence_batch, matrix = self._align(evidence_batch, theta)
        param_matrix = None if matrix is None else theta_param_matrix(matrix)
        native = self._dispatch()
        if native is not None:
            return native.evaluate_batch(
                evidence_batch, strict=strict, param_matrix=param_matrix
            )
        return execute_batch(
            self.tape,
            evidence_batch,
            self.encoder,
            strict=strict,
            param_matrix=param_matrix,
        )

    def evaluate_theta_batch(
        self,
        theta: Any,
        evidence: Mapping[str, int] | None = None,
        strict: bool = True,
    ) -> np.ndarray:
        """Exact float64 root values over a θ batch, one shared evidence.

        Replays the tape once over an ``(n_theta, n_params)`` matrix of
        parameter instantiations — one struct-of-arrays sweep, one lane
        per θ row — and returns the ``(n_theta,)`` root values.
        Each row is bit-identical to a θ-free golden evaluation of the
        circuit re-parameterized with that row, on either backend.
        """
        matrix = normalize_theta(self.tape, theta)
        return self.evaluate_batch(
            [evidence or {}] * matrix.shape[0], strict=strict, theta=matrix
        )

    # -- marginals (backward sweep) -------------------------------------
    @property
    def marginal_index(self) -> MarginalIndex:
        """Per-variable indicator-slot grouping (compiled lazily)."""
        return self._singletons.get(
            "marginal_index", lambda: MarginalIndex(self.tape)
        )

    def partials(
        self, evidence: Mapping[str, int] | None = None
    ) -> tuple[list[float], list[float]]:
        """Exact float64 ``(values, partials)`` per node (one up+down pass)."""
        native = self._dispatch()
        if native is not None:
            return native.partials(evidence)
        return execute_partials(self.tape, evidence, self.encoder)

    def partials_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        theta: Any | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``(values, partials)`` matrices, ``(num_nodes, batch)``.

        ``theta`` zips an ``(n_theta, n_params)`` parameter batch against
        the evidence batch (broadcast-one semantics, like
        :meth:`evaluate_batch`): both the forward values and the
        backward partials are computed per lane under that lane's θ row.
        """
        evidence_batch, matrix = self._align(evidence_batch, theta)
        param_matrix = None if matrix is None else theta_param_matrix(matrix)
        native = self._dispatch()
        if native is not None:
            return native.partials_batch(
                evidence_batch, strict=strict, param_matrix=param_matrix
            )
        return execute_partials_batch(
            self.tape,
            evidence_batch,
            self.encoder,
            strict=strict,
            param_matrix=param_matrix,
        )

    def marginals(
        self,
        evidence: Mapping[str, int] | None = None,
        joint: bool = False,
    ) -> dict[str, np.ndarray]:
        """All marginals of one query: ``Pr(X | e)`` for every variable.

        One upward plus one downward tape replay yields the joint of
        every state of every variable (the paper's footnote-2 query
        style); normalization turns them into posteriors. ``joint=True``
        returns the unnormalized ``Pr(x, e \\ X)`` arrays instead.
        Raises :class:`~repro.errors.ZeroEvidenceError` when the
        evidence has probability zero (posteriors only).
        """
        native = self._dispatch()
        if native is not None:
            # Skip the list round-trip: the marginal index consumes the
            # kernel's 1-D partials vector directly.
            _, partials = native.partials_arrays(evidence)
        else:
            _, partials = execute_partials(self.tape, evidence, self.encoder)
        index = self.marginal_index
        if joint:
            return index.joints(partials)
        return index.posteriors(
            partials, context=f" under evidence {describe_evidence(evidence)}"
        )

    def marginals_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        joint: bool = False,
        theta: Any | None = None,
    ) -> dict[str, np.ndarray]:
        """All marginals of a whole evidence batch at batch throughput.

        Returns ``{variable: (card, batch) array}`` — every posterior of
        every instance from exactly two batched tape replays, instead of
        one circuit walk per query. ``theta`` zips a parameter batch
        against the evidence batch; a zero-probability evidence lane
        raises :class:`~repro.errors.ZeroEvidenceError` naming exactly
        the offending lane(s), θ-batched or not.
        """
        _, partials = self.partials_batch(
            evidence_batch, strict=strict, theta=theta
        )
        index = self.marginal_index
        if joint:
            return index.joints(partials)
        return index.posteriors(partials)

    def quantized_marginals_batch(
        self,
        fmt: AnyFormat,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        joint: bool = False,
        theta: Any | None = None,
    ) -> dict[str, np.ndarray]:
        """All marginals of a batch, computed in quantized arithmetic.

        Both sweeps — upward values and downward partials — run with the
        format's §3.1 operator semantics (one rounding per two-input
        operator), on the exact vectorized executors whenever the format
        qualifies and the bit-identical scalar big-int path otherwise;
        the final normalizing division happens in float64, mirroring the
        paper's "followed with a division". ``joint=True`` skips the
        division and returns the quantized joints. ``theta`` zips an
        ``(n_theta, n_params)`` parameter batch against the evidence
        batch — each lane quantizes *its own* parameter table (per-row
        quantized word tables on the native and vectorized fixed- and
        floating-point paths, per-row scalar re-quantization on the
        wide-format big-int path).
        """
        quantized_partials = self._quantized_partials_matrix(
            fmt, evidence_batch, strict, theta=theta
        )
        index = self.marginal_index
        if joint:
            return index.joints(quantized_partials)
        return index.posteriors(
            quantized_partials, context=f" in {fmt.describe()}"
        )

    def _quantized_partials_matrix(
        self,
        fmt: AnyFormat,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool,
        theta: Any | None = None,
    ) -> np.ndarray:
        """Float64 matrix of quantized partials, ``(num_nodes, batch)``."""
        evidence_batch, matrix = self._align(evidence_batch, theta)
        native = self._dispatch(fmt=fmt)
        if native is not None:
            words = None if matrix is None else native.encode_theta(fmt, matrix)
            _, partials = native.quantized_partials_batch(
                fmt, evidence_batch, strict=strict, param_words=words
            )
            return partials
        if self.supports_vectorized(fmt):
            executor = self._vector_executor(fmt)
            words = None if matrix is None else executor.encode_theta(matrix)
            _, partials = executor.partials_batch(
                evidence_batch, strict=strict, param_words=words
            )
            return partials
        backend = self._backend(fmt)
        evaluator = self._scalar_quantized
        rows = [None] * len(evidence_batch) if matrix is None else matrix
        partials = np.empty((self.tape.num_nodes, len(evidence_batch)))
        for lane, (evidence, row) in enumerate(zip(evidence_batch, rows)):
            _, adjoints = evaluator.partials(
                backend, evidence, strict=strict, param_values=row
            )
            partials[:, lane] = [backend.to_real(value) for value in adjoints]
        return partials

    # -- quantized ------------------------------------------------------
    def supports_vectorized(self, fmt: AnyFormat) -> bool:
        """True when the format runs on an exact vectorized executor."""
        if isinstance(fmt, (FixedPointFormat, FloatFormat)):
            return fmt.fits_int64_products
        return False

    def _vector_executor(self, fmt: AnyFormat):
        # KeyedMemo builds outside its lock (construction encodes the
        # whole parameter table) so first touches of different formats
        # build in parallel; same-format racers converge on one install.
        return self._executors.get(
            fmt, lambda: WordBatchExecutor(self.tape, fmt, self.encoder)
        )

    def evaluate_quantized(
        self,
        fmt_or_backend: AnyFormat | Any,
        evidence: Mapping[str, int] | None = None,
    ) -> float:
        """Quantized root value for one evidence assignment.

        Accepts a format (a matching backend is built) or any
        :class:`~repro.ac.evaluate.QuantizedBackend` instance.
        """
        if isinstance(fmt_or_backend, (FixedPointFormat, FloatFormat)):
            native = self._dispatch(fmt=fmt_or_backend)
            if native is not None:
                return native.evaluate_quantized(fmt_or_backend, evidence)
            backend = self._backend(fmt_or_backend)
        else:
            backend = fmt_or_backend
        return self._scalar_quantized.evaluate(backend, evidence)

    def evaluate_quantized_batch(
        self,
        fmt: AnyFormat,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        theta: Any | None = None,
    ) -> np.ndarray:
        """Quantized root values for a whole batch, as float64.

        Dispatches to the exact vectorized executor when the format
        qualifies, otherwise runs the scalar big-int tape evaluator per
        instance — results are bit-identical either way, including the
        batch-lenient evidence handling (``strict=False`` default).
        ``theta`` zips an ``(n_theta, n_params)`` parameter batch
        against the evidence batch; each lane evaluates under its own
        per-row quantized parameter table, bit-identical to a θ-free
        golden evaluation of the circuit re-parameterized with that row.
        """
        evidence_batch, matrix = self._align(evidence_batch, theta)
        native = self._dispatch(fmt=fmt)
        if native is not None:
            words = None if matrix is None else native.encode_theta(fmt, matrix)
            return native.evaluate_quantized_batch(
                fmt, evidence_batch, strict=strict, param_words=words
            )
        if self.supports_vectorized(fmt):
            executor = self._vector_executor(fmt)
            words = None if matrix is None else executor.encode_theta(matrix)
            return executor.evaluate_batch(
                evidence_batch, strict=strict, param_words=words
            )
        backend = self._backend(fmt)
        evaluator = self._scalar_quantized
        rows = [None] * len(evidence_batch) if matrix is None else matrix
        return np.asarray(
            [
                evaluator.evaluate(
                    backend, evidence, strict=strict, param_values=row
                )
                for evidence, row in zip(evidence_batch, rows)
            ]
        )

    def _backend(self, fmt: AnyFormat):
        return self._backends.get(fmt, lambda: backend_for_format(fmt))

    def __repr__(self) -> str:
        return f"InferenceSession({self.tape.describe()})"


#: Per-circuit session cache (sessions are cheap, but callers like the
#: experiment harnesses construct them in loops). Weak so a session dies
#: with its circuit.
_SESSION_MEMO: KeyedMemo = KeyedMemo(weak=True, name="session")


def _fresh_session(
    session: InferenceSession | None, circuit: ArithmeticCircuit
) -> bool:
    from .tape import _fresh_tape

    # One staleness rule for tape and session caches: a session is
    # fresh exactly when its tape still matches the circuit.
    return session is not None and _fresh_tape(session.tape, circuit)


def session_for(circuit: ArithmeticCircuit) -> InferenceSession:
    """A cached :class:`InferenceSession` for the circuit (thread-safe).

    Reuses the session while the underlying tape stays fresh; a circuit
    that grew or was re-rooted gets a new session (same staleness rule
    as :func:`repro.engine.tape.tape_for`). Backed by
    :class:`~repro.engine.memo.KeyedMemo`: construction runs outside the
    cache lock so concurrent first touches of different circuits proceed
    in parallel; same-circuit racers converge on the first installed
    session.
    """
    return _SESSION_MEMO.get(
        circuit,
        lambda: InferenceSession(circuit),
        fresh=lambda session: _fresh_session(session, circuit),
    )
