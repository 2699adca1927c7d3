"""θ-sweep tests: every row bit-identical to a θ-free golden evaluation
of the circuit re-parameterized with that row, typed validation, per-row
zero-evidence attribution, and the native-backend interplay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import FixedPointFormat, FloatFormat
from repro.arith.fixedpoint import FixedPointBackend
from repro.engine import (
    InferenceSession,
    QuantizedTapeEvaluator,
    ThetaShapeError,
    native_available,
    normalize_theta,
    tape_for,
    theta_envelope_max_values,
)
from repro.errors import ZeroEvidenceError
from tests.conftest import (
    golden_theta_forward,
    golden_theta_partials,
    golden_theta_roots,
    mantissas,
    reparameterized,
)

FIXED = FixedPointFormat(8, 12)


def theta_batch(session, rows, seed=0):
    width = len(session.tape.param_values)
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, size=(rows, width))


@pytest.fixture(scope="module")
def session(sprinkler_binary):
    return InferenceSession(sprinkler_binary, backend="numpy")


@pytest.fixture(scope="module")
def asia_session(asia_binary):
    return InferenceSession(asia_binary, backend="numpy")


class TestFloatThetaSweeps:
    def test_forward_bit_identical_to_oracle(self, session, sprinkler_binary):
        theta = theta_batch(session, 17)
        for evidence in ({}, {"Rain": 1}, {"Rain": 0, "Sprinkler": 1}):
            got = session.evaluate_theta_batch(theta, evidence)
            want = golden_theta_forward(sprinkler_binary, theta, evidence)
            assert got.shape == (17,)
            assert (got == want).all()

    def test_forward_asia(self, asia_session, asia_binary):
        theta = theta_batch(asia_session, 9, seed=3)
        got = asia_session.evaluate_theta_batch(theta, {"Asia": 1})
        want = golden_theta_forward(asia_binary, theta, {"Asia": 1})
        assert (got == want).all()

    def test_backward_bit_identical_to_oracle(self, session, sprinkler_binary):
        theta = theta_batch(session, 11, seed=1)
        values, partials = session.partials_batch([{}], theta=theta)
        ref_values, ref_partials = golden_theta_partials(sprinkler_binary, theta, {})
        assert (values == ref_values).all()
        assert (partials == ref_partials).all()

    def test_zip_theta_rows_with_evidence_rows(self, session, sprinkler_binary):
        theta = theta_batch(session, 4, seed=2)
        batch = [{"Rain": 1}, {}, {"Sprinkler": 0}, {"Rain": 0}]
        got = session.evaluate_batch(batch, theta=theta)
        want = np.asarray(
            [
                golden_theta_forward(sprinkler_binary, row[None], evidence)[0]
                for row, evidence in zip(theta, batch)
            ]
        )
        assert (got == want).all()

    def test_single_theta_row_broadcasts_over_evidence(self, session):
        theta = theta_batch(session, 1, seed=4)
        batch = [{"Rain": 1}, {}, {"Rain": 0}]
        got = session.evaluate_batch(batch, theta=theta)
        tiled = session.evaluate_batch(batch, theta=np.repeat(theta, 3, axis=0))
        assert (got == tiled).all()

    def test_own_table_reproduces_plain_batch(self, session):
        # θ == the tape's own deduplicated table must be a no-op.
        batch = [{"Rain": 1}, {}, {"Sprinkler": 1}]
        theta = session.tape.param_values[None, :]
        assert (
            session.evaluate_batch(batch, theta=theta)
            == session.evaluate_batch(batch)
        ).all()

    def test_marginals_batch_theta(self, session, sprinkler_binary):
        theta = theta_batch(session, 6, seed=5)
        marginals = session.marginals_batch([{}], theta=theta)
        _, ref_partials = golden_theta_partials(sprinkler_binary, theta, {})
        index = session.marginal_index
        want = index.posteriors(ref_partials)
        for variable, got in marginals.items():
            assert (got == want[variable]).all()


class TestQuantizedThetaSweeps:
    def test_fixed_forward_bit_identical(self, session, sprinkler_binary):
        theta = theta_batch(session, 13, seed=6)
        got = session.evaluate_quantized_batch(FIXED, [{}], theta=theta)
        words = mantissas(
            golden_theta_roots(sprinkler_binary, FixedPointBackend(FIXED), theta, {})
        )
        assert (got == words * 2.0 ** (-FIXED.fraction_bits)).all()

    def test_fixed_backward_bit_identical(self, session, sprinkler_binary):
        theta = theta_batch(session, 7, seed=7)
        executor = session._vector_executor(FIXED)
        values, partials = executor.partials_batch_words(
            [{}] * 7, param_words=executor.encode_theta(theta)
        )
        backend = FixedPointBackend(FIXED)
        for lane, row in enumerate(theta):
            golden = QuantizedTapeEvaluator(
                tape_for(reparameterized(sprinkler_binary, row))
            ).partials(backend, {})
            ref_values, ref_partials = map(mantissas, golden)
            assert (values[:, lane] == ref_values).all()
            assert (partials[:, lane] == ref_partials).all()

    def test_fixed_marginals_theta(self, session):
        theta = theta_batch(session, 5, seed=8)
        marginals = session.quantized_marginals_batch(
            FIXED, [{}], theta=theta, joint=True
        )
        for variable, joints in marginals.items():
            assert joints.shape[1] == 5
            assert (joints >= 0).all()

    def test_wide_fixed_falls_back_to_scalar(self, session, sprinkler_binary):
        wide = FixedPointFormat(20, 40)
        assert not wide.fits_int64_products
        theta = theta_batch(session, 4, seed=9)
        got = session.evaluate_quantized_batch(wide, [{}], theta=theta)
        words = mantissas(
            golden_theta_roots(sprinkler_binary, FixedPointBackend(wide), theta, {})
        )
        assert (got == words * 2.0 ** (-wide.fraction_bits)).all()

    def test_float_format_theta_matches_static_table(self, session):
        # θ == the tape's own table through the float-format scalar
        # fallback must reproduce the static quantized batch bit-for-bit.
        fmt = FloatFormat(8, 6)
        batch = [{"Rain": 1}, {}]
        theta = session.tape.param_values[None, :]
        got = session.evaluate_quantized_batch(fmt, batch, theta=theta)
        want = session.evaluate_quantized_batch(fmt, batch)
        assert (got == want).all()


class TestThetaValidation:
    def test_wrong_width(self, session):
        width = len(session.tape.param_values)
        with pytest.raises(ThetaShapeError, match="width"):
            session.evaluate_theta_batch(np.ones((3, width + 1)))

    def test_wrong_rank(self, session):
        width = len(session.tape.param_values)
        with pytest.raises(ThetaShapeError, match="matrix"):
            session.evaluate_theta_batch(np.ones((2, 2, width)))

    def test_nan_rejected(self, session):
        width = len(session.tape.param_values)
        theta = np.full((2, width), 0.5)
        theta[1, 0] = np.nan
        with pytest.raises(ThetaShapeError, match="non-finite"):
            session.evaluate_theta_batch(theta)

    def test_negative_rejected(self, session):
        width = len(session.tape.param_values)
        theta = np.full((2, width), 0.5)
        theta[0, -1] = -0.25
        with pytest.raises(ThetaShapeError, match="negative"):
            session.evaluate_theta_batch(theta)

    def test_non_numeric_rejected(self, session):
        with pytest.raises(ThetaShapeError, match="numeric"):
            session.evaluate_theta_batch([["a", "b"]])

    def test_zip_length_mismatch(self, session):
        theta = theta_batch(session, 3)
        with pytest.raises(ThetaShapeError, match="zip"):
            session.evaluate_batch([{}, {}], theta=theta)

    def test_non_contiguous_accepted(self, session):
        theta = theta_batch(session, 8, seed=10)
        fortran = np.asfortranarray(theta)
        strided = theta_batch(session, 16, seed=10)[::2]
        assert not fortran.flags["C_CONTIGUOUS"]
        want = session.evaluate_theta_batch(theta, {"Rain": 1})
        assert (session.evaluate_theta_batch(fortran, {"Rain": 1}) == want).all()
        got_strided = session.evaluate_theta_batch(strided, {"Rain": 1})
        assert got_strided.shape == want.shape

    def test_normalize_returns_contiguous_float64(self, session):
        theta = np.asfortranarray(theta_batch(session, 3, seed=11))
        matrix = normalize_theta(session.tape, theta)
        assert matrix.flags["C_CONTIGUOUS"]
        assert matrix.dtype == np.float64
        assert (matrix == theta).all()

    def test_row_vector_promoted(self, session):
        width = len(session.tape.param_values)
        got = session.evaluate_theta_batch(np.full(width, 0.5))
        assert got.shape == (1,)


class TestPerRowZeroEvidence:
    def test_zero_theta_row_names_the_lane(self, session):
        # Row 1 zeroes every parameter: its lane has zero evidence
        # probability, and the error must attribute exactly that lane —
        # the per-row analogue of the micro-batcher's per-request
        # fallback attribution.
        width = len(session.tape.param_values)
        theta = np.full((3, width), 0.5)
        theta[1] = 0.0
        with pytest.raises(ZeroEvidenceError) as excinfo:
            session.marginals_batch([{}], theta=theta)
        message = str(excinfo.value)
        assert "batch instance" in message
        assert "[1]" in message

    def test_healthy_rows_unaffected_as_joints(self, session):
        width = len(session.tape.param_values)
        theta = np.full((3, width), 0.5)
        theta[1] = 0.0
        joints = session.marginals_batch([{}], theta=theta, joint=True)
        for matrix in joints.values():
            assert (matrix[:, 1] == 0.0).all()
            assert (matrix[:, [0, 2]] > 0.0).all()


class TestNativeInterplay:
    """θ batches ride the runtime-parameter C kernels: native sessions
    serve them bit-identically with no fallback recorded."""

    @pytest.mark.skipif(
        not native_available(), reason="native toolchain unavailable"
    )
    @pytest.mark.parametrize("policy", ["native", "auto"])
    def test_theta_served_natively_bit_identical(
        self, sprinkler_binary, policy
    ):
        session = InferenceSession(sprinkler_binary, backend=policy)
        oracle = InferenceSession(sprinkler_binary, backend="numpy")
        theta = theta_batch(oracle, 6, seed=12)
        got = session.evaluate_theta_batch(theta, {"Rain": 1})
        want = oracle.evaluate_theta_batch(theta, {"Rain": 1})
        assert (got == want).all()
        assert session.backend == "native"
        assert session.backend_fallback_reason is None

    def test_numpy_policy_reports_no_reason(self, session):
        theta = theta_batch(session, 2, seed=14)
        session.evaluate_theta_batch(theta)
        assert session.backend_fallback_reason is None


class TestThetaEnvelope:
    def test_envelope_bounds_every_row(self, session, sprinkler_binary):
        theta = theta_batch(session, 25, seed=15)
        envelope = theta_envelope_max_values(session.tape, theta)
        root = session.tape.require_root()
        # The root envelope dominates the no-evidence value of every row.
        values = session.evaluate_theta_batch(theta)
        assert (values <= envelope[root] + 1e-12).all()

    def test_envelope_of_own_table_matches_analysis(self, session):
        envelope = theta_envelope_max_values(
            session.tape, session.tape.param_values[None, :]
        )
        max_log2 = session.analysis.max_log2
        want = np.asarray(
            [
                0.0 if value == float("-inf") else 2.0 ** max(value, -500.0)
                for value in max_log2
            ]
        )
        assert (envelope == want).all()

    def test_empty_envelope_rejected(self, session):
        width = len(session.tape.param_values)
        with pytest.raises(ThetaShapeError):
            theta_envelope_max_values(session.tape, np.empty((0, width)))
