"""Differential test: the batch encoder against its per-row references.

``EvidenceEncoder.encode`` scatters a whole batch through one CSR table.
Every column it writes must equal ``encode_one`` of that row and the
circuit's own :meth:`ArithmeticCircuit.indicator_assignment`, for any
mix of sparse, dense, repeated and empty rows, negative, unknown and
beyond-int64 states, and evidence on variables the circuit has no indicators for.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_network
from repro.bn.networks import alarm_network, random_network
from repro.engine import EvidenceEncoder

UNKNOWN = ("NotAVariable", "zz_missing")
NETWORKS = ("alarm", "random")


@lru_cache(maxsize=None)
def encoder_and_circuit(name):
    network = (
        alarm_network() if name == "alarm"
        else random_network(9, max_cardinality=4, seed=7)
    )
    circuit = compile_network(network).circuit
    return EvidenceEncoder.for_circuit(circuit), circuit


@st.composite
def evidence_batches(draw, encoder):
    """(batch, strict): 0–256 rows drawn from a small pool of dicts, so
    the same dict object repeats across columns."""
    variables = list(encoder.variables)
    top = max(state for _, state in encoder.keys)
    # Negative, valid and past-the-last states alike, and states beyond
    # int64 (they too match no indicator).
    state = st.one_of(
        st.integers(min_value=-3, max_value=top + 3),
        st.sampled_from([2**63, -(2**63) - 1, 2**70]),
    )
    known = st.sampled_from(variables)
    with_unknown = st.sampled_from(variables + list(UNKNOWN))
    sparse = st.dictionaries(
        draw(st.sampled_from([known, with_unknown])), state, max_size=3
    )
    dense = st.fixed_dictionaries({variable: state for variable in variables})
    row = st.one_of(st.just({}), sparse, dense)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    size = draw(st.integers(min_value=0, max_value=256))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=size,
            max_size=size,
        )
    )
    return [pool[pick] for pick in picks], draw(st.booleans())


def expected_column(circuit, encoder, evidence):
    """``indicator_assignment`` over the known part of one row."""
    known = {v: s for v, s in evidence.items() if v in encoder.variables}
    reference = circuit.indicator_assignment(known)
    return np.array([reference[key] == 1.0 for key in encoder.keys])


@pytest.mark.parametrize("name", NETWORKS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_encode_matches_per_row_references(name, data):
    encoder, circuit = encoder_and_circuit(name)
    batch, strict = data.draw(evidence_batches(encoder))
    unknown = sorted(
        {v for row in batch for v in row if v not in encoder.variables}
    )
    if strict and unknown:
        message = (
            "evidence on variables with no indicators in this circuit: "
            f"{unknown}"
        )
        with pytest.raises(ValueError) as raised:
            encoder.encode(batch, strict=True)
        assert str(raised.value) == message
        return
    matrix = encoder.encode(batch, strict=strict)
    assert matrix.shape == (encoder.num_indicators, len(batch))
    assert matrix.dtype == bool
    for column, evidence in enumerate(batch):
        np.testing.assert_array_equal(
            matrix[:, column], encoder.encode_one(evidence, strict=strict)
        )
        np.testing.assert_array_equal(
            matrix[:, column], expected_column(circuit, encoder, evidence)
        )


@pytest.mark.parametrize("name", NETWORKS)
def test_unknown_variable_message_is_unchanged(name):
    encoder, circuit = encoder_and_circuit(name)
    variable = encoder.variables[0]
    batch = [{UNKNOWN[1]: 0}, {variable: 0, UNKNOWN[0]: 1}]
    message = (
        "evidence on variables with no indicators in this circuit: "
        f"{sorted(UNKNOWN)}"
    )
    with pytest.raises(ValueError) as raised:
        encoder.encode(batch, strict=True)
    assert str(raised.value) == message
    both = {UNKNOWN[0]: 0, UNKNOWN[1]: 0}
    for encode_row in (encoder.encode_one, circuit.indicator_assignment):
        with pytest.raises(ValueError) as raised:
            encode_row(both)
        assert str(raised.value) == message


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("strict", [True, False])
def test_zero_rows(name, strict):
    encoder, _ = encoder_and_circuit(name)
    matrix = encoder.encode([], strict=strict)
    assert matrix.shape == (encoder.num_indicators, 0)
    assert matrix.dtype == bool
