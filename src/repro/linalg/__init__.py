"""Linear-algebra substrate: embedding, unitary metrics, decompositions."""

from repro.linalg.embed import (
    apply_gate_to_matrix,
    apply_gate_to_state,
    apply_gate_to_states,
    embed_unitary,
)
from repro.linalg.su2 import zyz_decompose
from repro.linalg.unitary import hs_distance, hs_inner, is_unitary
from repro.linalg.weyl import (
    MAGIC,
    decompose_tensor_product,
    estimated_cnot_class,
    is_tensor_product,
    magic_rep,
)

__all__ = [
    "apply_gate_to_state",
    "apply_gate_to_states",
    "apply_gate_to_matrix",
    "embed_unitary",
    "hs_inner",
    "hs_distance",
    "is_unitary",
    "zyz_decompose",
    "MAGIC",
    "magic_rep",
    "is_tensor_product",
    "decompose_tensor_product",
    "estimated_cnot_class",
]
