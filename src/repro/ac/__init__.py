"""Arithmetic circuits: the computation model ProbLP analyzes.

An AC is a rooted DAG of sums and products (plus max for MPE) over network
parameters θ and evidence indicators λ. This package provides the circuit
container, evaluators (exact, batched and quantized), structural
transformations (binary decomposition), validation and serialization.
"""

from .circuit import ArithmeticCircuit, CircuitStats, topological_check
from .derivatives import (
    ZeroEvidenceError,
    conditional_probability,
    joint_marginals,
    partial_derivatives,
    posterior_marginals,
)
from .dot import circuit_to_dot, save_dot
from .evaluate import (
    QuantizedBackend,
    evaluate_batch,
    evaluate_quantized,
    evaluate_quantized_values,
    evaluate_real,
    evaluate_values,
)
from .io import circuit_from_dict, circuit_to_dict, load_circuit, save_circuit
from .nodes import HARDWARE_OPS, Node, OpType
from .transform import TransformResult, binarize, prune_unreachable
from .validate import (
    CircuitError,
    indicator_support,
    is_decomposable,
    is_smooth,
    validate_circuit,
)

__all__ = [
    "ArithmeticCircuit",
    "CircuitError",
    "CircuitStats",
    "HARDWARE_OPS",
    "Node",
    "OpType",
    "QuantizedBackend",
    "TransformResult",
    "ZeroEvidenceError",
    "binarize",
    "circuit_from_dict",
    "circuit_to_dict",
    "circuit_to_dot",
    "conditional_probability",
    "evaluate_batch",
    "evaluate_quantized",
    "evaluate_quantized_values",
    "evaluate_real",
    "evaluate_values",
    "indicator_support",
    "is_decomposable",
    "is_smooth",
    "joint_marginals",
    "load_circuit",
    "partial_derivatives",
    "posterior_marginals",
    "prune_unreachable",
    "save_circuit",
    "save_dot",
    "topological_check",
    "validate_circuit",
]
