"""Vectorized evidence → indicator-matrix encoding.

Every evaluator needs the same preprocessing step: turn an evidence
assignment (or a whole batch of them) into the 0/1 values of the λ
leaves. The seed implementations each re-derived it with an
O(batch × indicators) pure-Python double loop (``evaluate_batch``)
or a per-query dict
(``indicator_assignment``). :class:`EvidenceEncoder` does it once, in
time that scales with the *observed* (variable, value) entries: one
Python pass flattens a batch's entries, and one scatter through a CSR
table (per-variable ``row_ptr`` into flat indicator rows and states)
writes every observed variable's rows of the ``(num_indicators, batch)``
activity matrix, with a fixed number of numpy calls per batch.

Semantics match :meth:`ArithmeticCircuit.indicator_assignment`: an
indicator is active (1) when its variable is unobserved or observed in
its state, inactive (0) otherwise. Indicator states are non-negative
(Node validation), so a negative or unknown evidence state zeroes the
variable's indicators. ``strict=True`` rejects evidence on variables
without indicators (the scalar evaluators' behavior); ``strict=False``
ignores it (the seed batch evaluators' behavior).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


class EvidenceEncoder:
    """Encode evidence batches against a fixed indicator table."""

    def __init__(self, indicator_keys: Sequence[tuple[str, int]]) -> None:
        self.keys = tuple((str(v), int(s)) for v, s in indicator_keys)
        self.num_indicators = len(self.keys)
        self.variables = tuple(sorted({v for v, _ in self.keys}))
        #: Variable → its position in ``variables`` (its CSR row).
        self._position = {v: i for i, v in enumerate(self.variables)}
        # The CSR table: variable i owns the matrix rows
        # ``_flat_rows[_row_ptr[i]:_row_ptr[i + 1]]``, each testing for
        # the state at the same place in ``_flat_states``.
        owner = np.asarray(
            [self._position[v] for v, _ in self.keys], dtype=np.intp
        )
        self._flat_rows = np.argsort(owner, kind="stable")
        self._flat_states = np.asarray(
            [s for _, s in self.keys], dtype=np.int64
        )[self._flat_rows]
        self._row_ptr = np.zeros(len(self.variables) + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(owner, minlength=len(self.variables)),
            out=self._row_ptr[1:],
        )
        #: Per variable, views of its CSR slice (``encode_one``).
        self._var_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {
            variable: (
                self._flat_rows[self._row_ptr[i]:self._row_ptr[i + 1]],
                self._flat_states[self._row_ptr[i]:self._row_ptr[i + 1]],
            )
            for i, variable in enumerate(self.variables)
        }

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
            if variable not in self._position
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
        # One pass flattens the observed entries: the CSR row of each
        # known variable, its value and its batch column.
        position = self._position
        variables: list[int] = []
        values: list[int] = []
        columns: list[int] = []
        for column, evidence in enumerate(evidence_batch):
            for variable, value in evidence.items():
                row = position.get(variable)
                if row is not None:
                    variables.append(row)
                    values.append(int(value))
                    columns.append(column)
        if not variables:
            return matrix
        # One scatter: expand every entry to its variable's CSR slice.
        size = len(variables)
        entries = np.fromiter(variables, dtype=np.intp, count=size)
        starts = self._row_ptr[entries]
        counts = self._row_ptr[entries + 1] - starts
        ends = np.cumsum(counts)
        entry = np.repeat(np.arange(size), counts)
        flat = np.arange(ends[-1]) + (starts - ends + counts)[entry]
        columns_of = np.fromiter(columns, dtype=np.intp, count=size)
        try:
            values_of = np.fromiter(values, dtype=np.int64, count=size)
        except OverflowError:
            # A state beyond int64 matches no indicator, as in encode_one:
            # -1 stands in for it (states are ≥ 0).
            values_of = np.fromiter(
                (value if -(2**63) <= value < 2**63 else -1 for value in values),
                dtype=np.int64,
                count=size,
            )
        matrix[self._flat_rows[flat], columns_of[entry]] = (
            self._flat_states[flat] == values_of[entry]
        )
        return matrix

    def encode_one(
        self, evidence: Mapping[str, int] | None, strict: bool = True
    ) -> np.ndarray:
        """Boolean activity vector of shape ``(num_indicators,)``.

        Bit-identical to ``encode([evidence])[:, 0]`` without the batch
        scatter's fixed numpy calls: one slice assignment per observed
        variable. This sits on the batch-size-1 serving hot path, where
        evidence is sparse.
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
