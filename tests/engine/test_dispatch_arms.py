"""The InferenceSession dispatch matrix, arm by arm.

Every batch sweep resolves to one of three arms — native kernels, a
vectorized numpy executor, or the scalar big-int loop — and may carry a
θ batch. For each (backend policy, format tier, values/partials) cell
this pins the two identities θ batching must keep:

* an n-row θ batch equals the per-row calls stacked, each row equals a
  θ-free call on the circuit whose parameter leaves hold that row, and
  a one-row θ broadcasts exactly like its n-fold repetition;
* θ equal to the tape's own parameter table equals the call without θ,
  bit for bit and in shape (including the zero-row batch).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ac.circuit import ArithmeticCircuit
from repro.arith import FixedPointFormat, FixedPointOverflowError, FloatFormat
from repro.engine import InferenceSession, native_available
from repro.obs.metrics import REGISTRY
from tests.conftest import reparameterized

BACKENDS = [
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="native toolchain unavailable (cffi or C compiler missing)",
        ),
    ),
    "numpy",
]

FORMATS = [
    pytest.param(None, id="f64"),
    pytest.param(FixedPointFormat(1, 15), id="fixed:1:15"),
    # Shared parameter leaves have partials up to 3.0 on sprinkler:
    # fixed(I=1) overflows there (parity is checked), fixed(I=2) does not.
    pytest.param(FixedPointFormat(2, 15), id="fixed:2:15"),
    pytest.param(FloatFormat(10, 15), id="float:10:15"),
    pytest.param(FixedPointFormat(20, 40), id="wide-fixed:20:40"),
    pytest.param(FloatFormat(11, 52), id="wide-float:11:52"),
]

KINDS = ["values", "partials"]

EVIDENCE = [{}, {"Rain": 1}, {"Rain": 0, "Sprinkler": 1}, {"WetGrass": 1}]


def sweep(session, fmt, kind, evidence_batch, theta=None):
    """One batch call of the given kind: a tuple of arrays, or the
    overflow message when the format's range is exceeded."""
    try:
        if fmt is None and kind == "values":
            return (session.evaluate_batch(evidence_batch, theta=theta),)
        if fmt is None:
            return session.partials_batch(evidence_batch, theta=theta)
        if kind == "values":
            return (
                session.evaluate_quantized_batch(
                    fmt, evidence_batch, theta=theta
                ),
            )
        return (
            session._quantized_partials_matrix(
                fmt, evidence_batch, False, theta=theta
            ),
        )
    except FixedPointOverflowError as error:
        return str(error)


def assert_identical(got, want):
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for got_array, want_array in zip(got, want):
        np.testing.assert_array_equal(got_array, want_array, strict=True)


def stacked(per_row):
    """Single-row sweep results concatenated along the lane axis."""
    return tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*per_row))


def theta_rows(session, rows, seed=0):
    # Entries ≤ 0.5 keep every sprinkler value and partial inside the
    # fixed(I=1) range, so the θ cases compare values, not overflows.
    width = len(session.tape.param_values)
    return np.random.default_rng(seed).uniform(0.05, 0.5, (rows, width))


@pytest.fixture(scope="module", params=BACKENDS)
def session(request, sprinkler_binary):
    return InferenceSession(sprinkler_binary, backend=request.param)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fmt", FORMATS)
class TestDispatchArms:
    def test_theta_rows_equal_per_row_calls(self, session, fmt, kind):
        theta = theta_rows(session, len(EVIDENCE))
        got = sweep(session, fmt, kind, EVIDENCE, theta)
        per_row = [
            sweep(session, fmt, kind, [evidence], row[None])
            for evidence, row in zip(EVIDENCE, theta)
        ]
        assert_identical(got, stacked(per_row))

    def test_theta_rows_equal_reparameterized_circuits(
        self, session, fmt, kind
    ):
        theta = theta_rows(session, len(EVIDENCE), seed=6)
        got = sweep(session, fmt, kind, EVIDENCE, theta)
        per_row = [
            sweep(
                InferenceSession(
                    reparameterized(session.circuit, row), backend="numpy"
                ),
                fmt,
                kind,
                [evidence],
            )
            for evidence, row in zip(EVIDENCE, theta)
        ]
        assert_identical(got, stacked(per_row))

    def test_one_theta_row_broadcasts(self, session, fmt, kind):
        row = theta_rows(session, 1, seed=1)
        got = sweep(session, fmt, kind, EVIDENCE, row)
        repeated = np.repeat(row, len(EVIDENCE), axis=0)
        assert_identical(got, sweep(session, fmt, kind, EVIDENCE, repeated))

    def test_one_evidence_row_broadcasts(self, session, fmt, kind):
        theta = theta_rows(session, 3, seed=2)
        got = sweep(session, fmt, kind, [{"Rain": 1}], theta)
        want = sweep(session, fmt, kind, [{"Rain": 1}] * 3, theta)
        assert_identical(got, want)

    def test_own_table_equals_no_theta(self, session, fmt, kind):
        table = np.asarray(session.tape.param_values, dtype=np.float64)
        plain = sweep(session, fmt, kind, EVIDENCE)
        tiled = np.tile(table, (len(EVIDENCE), 1))
        assert_identical(sweep(session, fmt, kind, EVIDENCE, tiled), plain)
        assert_identical(sweep(session, fmt, kind, EVIDENCE, table), plain)

    def test_zero_rows(self, session, fmt, kind):
        width = len(session.tape.param_values)
        plain = sweep(session, fmt, kind, [])
        empty = sweep(session, fmt, kind, [], np.empty((0, width)))
        assert_identical(empty, plain)
        expected = (0,) if kind == "values" else (session.tape.num_nodes, 0)
        assert all(array.shape == expected for array in plain)


class TestThetaBatchDelegation:
    def test_theta_batch_equals_evaluate_batch(self, session):
        theta = theta_rows(session, 5, seed=3)
        got = session.evaluate_theta_batch(theta, {"Rain": 1})
        want = session.evaluate_batch([{"Rain": 1}] * 5, theta=theta)
        np.testing.assert_array_equal(got, want, strict=True)

    def test_theta_batch_zero_rows(self, session):
        width = len(session.tape.param_values)
        got = session.evaluate_theta_batch(np.empty((0, width)))
        assert got.shape == (0,)

    def test_theta_batch_defaults_to_strict_evidence(self, session):
        theta = theta_rows(session, 2, seed=4)
        with pytest.raises(ValueError, match="no indicators"):
            session.evaluate_theta_batch(theta, {"NotAVariable": 1})


def dispatch_count(backend):
    return REGISTRY.get("problp_backend_dispatch_total").labels(backend).value


@pytest.mark.parametrize("fmt", FORMATS)
def test_one_dispatch_per_batch_call(session, fmt):
    """θ or not, every batch call records exactly one dispatch."""
    effective, _ = session.dispatch_plan(fmt=fmt)
    theta = theta_rows(session, len(EVIDENCE), seed=5)
    for kind in KINDS:
        for batch_theta in (None, theta):
            before = dispatch_count(effective)
            sweep(session, fmt, kind, EVIDENCE, batch_theta)
            assert dispatch_count(effective) == before + 1


def test_one_dispatch_per_single_query_call(session):
    """``partials`` and ``marginals`` also record exactly one dispatch —
    the numpy ``marginals`` arm must not re-dispatch through
    ``partials``."""
    effective, _ = session.dispatch_plan()
    for call in (session.partials, session.marginals):
        before = dispatch_count(effective)
        call({"Rain": 1})
        assert dispatch_count(effective) == before + 1


def ternary_sum_circuit():
    """One 3-ary sum over indicator × parameter products (not binary)."""
    circuit = ArithmeticCircuit(dedup=False)
    products = [
        circuit.add_product(
            [circuit.add_indicator("X", state), circuit.add_parameter(0.3)]
        )
        for state in range(3)
    ]
    circuit.set_root(circuit.add_sum(products))
    return circuit


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_binary_quantized_records_no_fallback(backend):
    """A rejected quantized call on an n-ary tape is not a wide-format
    fallback: it raises before any dispatch or fallback counter moves."""
    session = InferenceSession(ternary_sum_circuit(), backend=backend)
    fmt = FixedPointFormat(1, 15)
    dispatches = REGISTRY.get("problp_backend_dispatch_total")
    fallbacks = REGISTRY.get("problp_backend_fallback_total")
    before = [
        dispatches.labels("native").value,
        dispatches.labels("numpy").value,
        fallbacks.labels("wide_format").value,
    ]
    calls = [
        lambda: session.evaluate_quantized(fmt, {}),
        lambda: session.evaluate_quantized_batch(fmt, [{}]),
        lambda: session.quantized_marginals_batch(fmt, [{}]),
        lambda: session.dispatch_plan(fmt=fmt),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="requires a binary circuit"):
            call()
    assert session.backend_fallback_reason is None
    assert [
        dispatches.labels("native").value,
        dispatches.labels("numpy").value,
        fallbacks.labels("wide_format").value,
    ] == before
    # Exact float64 serving still works on the n-ary tape.
    assert session.evaluate_batch([{"X": 1}])[0] == pytest.approx(0.3)
