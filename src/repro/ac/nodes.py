"""Node definitions for arithmetic circuits.

An arithmetic circuit (AC) is a rooted DAG whose internal nodes are
additions and multiplications (plus maximizations for MPE circuits) and
whose leaves are network parameters ``θ`` and evidence indicators ``λ``
(Figure 1b of the paper). Nodes are stored in an arena inside
:class:`~repro.ac.circuit.ArithmeticCircuit`; the classes here are the
immutable node records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class OpType(Enum):
    """The kinds of AC nodes."""

    SUM = "sum"
    PRODUCT = "product"
    MAX = "max"
    PARAMETER = "parameter"
    INDICATOR = "indicator"

    @property
    def is_leaf(self) -> bool:
        return self in (OpType.PARAMETER, OpType.INDICATOR)

    @property
    def is_operator(self) -> bool:
        return not self.is_leaf


#: Operator types that the hardware generator can emit.
HARDWARE_OPS = (OpType.SUM, OpType.PRODUCT, OpType.MAX)


@dataclass(frozen=True)
class Node:
    """A single AC node.

    Exactly one of the payload groups is populated, depending on ``op``:

    * operators (``SUM`` / ``PRODUCT`` / ``MAX``): ``children`` holds arena
      indices, all strictly smaller than this node's own index (the arena
      is topologically ordered by construction);
    * ``PARAMETER``: ``value`` holds the real number, ``label`` an optional
      human-readable name such as ``"θ(B=b1|A=a0)"``;
    * ``INDICATOR``: ``variable`` and ``state`` identify the λ variable.
    """

    op: OpType
    children: tuple[int, ...] = ()
    value: float | None = None
    variable: str | None = None
    state: int | None = None
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op.is_operator:
            if len(self.children) < 1:
                raise ValueError(f"{self.op.value} node needs children")
            if self.value is not None or self.variable is not None:
                raise ValueError(f"{self.op.value} node cannot carry a payload")
        elif self.op is OpType.PARAMETER:
            if self.children:
                raise ValueError("parameter node cannot have children")
            if self.value is None:
                raise ValueError("parameter node needs a value")
            if not (math.isfinite(self.value) and self.value >= 0.0):
                raise ValueError(
                    f"AC parameters must be non-negative finite numbers, "
                    f"got {self.value!r}"
                )
        elif self.op is OpType.INDICATOR:
            if self.children:
                raise ValueError("indicator node cannot have children")
            if self.variable is None or self.state is None:
                raise ValueError("indicator node needs a variable and state")
            if self.state < 0:
                raise ValueError("indicator state must be non-negative")

    @property
    def is_leaf(self) -> bool:
        return self.op.is_leaf

    def describe(self) -> str:
        """Short human-readable rendering used in dumps and error messages."""
        if self.op is OpType.PARAMETER:
            return self.label or f"θ={self.value:g}"
        if self.op is OpType.INDICATOR:
            return f"λ({self.variable}={self.state})"
        symbol = {"sum": "+", "product": "*", "max": "max"}[self.op.value]
        return f"{symbol}{list(self.children)}"
