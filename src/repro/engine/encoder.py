"""Vectorized evidence → indicator-matrix encoding.

Every evaluator needs the same preprocessing step: turn an evidence
assignment (or a whole batch of them) into the 0/1 values of the λ
leaves. The seed implementations each re-derived it with an
O(batch × indicators) pure-Python double loop (``evaluate_batch``)
or a per-query dict
(``indicator_assignment``). :class:`EvidenceEncoder` does it once,
vectorized per *variable*: one ``np.fromiter`` gather of the observed
states plus one broadcast comparison yields the whole
``(num_indicators, batch)`` activity matrix.

Semantics match :meth:`ArithmeticCircuit.indicator_assignment`: an
indicator is active (1) when its variable is unobserved or observed in
its state, inactive (0) otherwise. ``strict=True`` rejects evidence on
variables without indicators (the scalar evaluators' behavior);
``strict=False`` ignores it (the seed batch evaluators' behavior).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: Sentinel for "variable unobserved" in the gathered state vectors.
_UNOBSERVED = -1
#: Sentinel for "observed in a state no indicator matches". Indicator
#: states are non-negative (Node validation), so any negative evidence
#: value means "matches nothing" — it must zero the variable's
#: indicators, not read as unobserved.
_INVALID = -2


class EvidenceEncoder:
    """Encode evidence batches against a fixed indicator table."""

    def __init__(self, indicator_keys: Sequence[tuple[str, int]]) -> None:
        self.keys = tuple((str(v), int(s)) for v, s in indicator_keys)
        self.num_indicators = len(self.keys)
        self.variables = tuple(sorted({v for v, _ in self.keys}))
        self._known = frozenset(self.variables)
        # Per variable: the rows of the indicator matrix it owns and the
        # state each row tests for.
        self._var_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for variable in self.variables:
            rows = [i for i, (v, _) in enumerate(self.keys) if v == variable]
            states = [self.keys[i][1] for i in rows]
            self._var_rows[variable] = (
                np.asarray(rows, dtype=np.intp),
                np.asarray(states, dtype=np.int64),
            )

    @classmethod
    def for_tape(cls, tape) -> "EvidenceEncoder":
        return cls(tape.indicator_keys)

    @classmethod
    def for_circuit(cls, circuit) -> "EvidenceEncoder":
        from .tape import tape_for

        return cls.for_tape(tape_for(circuit))

    # ------------------------------------------------------------------
    def _check_known(
        self, evidence_batch: Sequence[Mapping[str, int]]
    ) -> None:
        unknown = {
            variable
            for evidence in evidence_batch
            for variable in evidence
            if variable not in self._known
        }
        if unknown:
            raise ValueError(
                f"evidence on variables with no indicators in this circuit: "
                f"{sorted(unknown)}"
            )

    def encode(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
    ) -> np.ndarray:
        """Boolean activity matrix of shape ``(num_indicators, batch)``.

        ``matrix[i, b]`` is True iff indicator ``keys[i]`` has value 1
        under ``evidence_batch[b]``.
        """
        if strict:
            self._check_known(evidence_batch)
        batch = len(evidence_batch)
        matrix = np.ones((self.num_indicators, batch), dtype=bool)
        if batch == 0:
            return matrix
        for variable, (rows, states) in self._var_rows.items():

            def gather(evidence):
                if variable not in evidence:
                    return _UNOBSERVED
                value = int(evidence[variable])
                return value if value >= 0 else _INVALID

            observed = np.fromiter(
                (gather(evidence) for evidence in evidence_batch),
                dtype=np.int64,
                count=batch,
            )
            if not (observed != _UNOBSERVED).any():
                continue  # variable unobserved everywhere: all ones
            matrix[rows] = (observed == _UNOBSERVED) | (
                observed == states[:, None]
            )
        return matrix

    def encode_one(
        self, evidence: Mapping[str, int] | None, strict: bool = True
    ) -> np.ndarray:
        """Boolean activity vector of shape ``(num_indicators,)``.

        Bit-identical to ``encode([evidence])[:, 0]`` but O(observed
        variables) instead of O(all variables) — this sits on the
        batch-size-1 serving hot path, where evidence is sparse.
        """
        if not evidence:
            return np.ones(self.num_indicators, dtype=bool)
        if strict:
            self._check_known([evidence])
        active = np.ones(self.num_indicators, dtype=bool)
        for variable, value in evidence.items():
            rows_states = self._var_rows.get(variable)
            if rows_states is None:
                continue
            rows, states = rows_states
            # Negative evidence matches no indicator (states are ≥ 0),
            # zeroing the variable's rows like the batch encoder.
            active[rows] = states == int(value)
        return active
