"""Linear-algebra substrate: embedding, unitary metrics, decompositions."""

from repro.linalg.embed import (
    apply_gate_to_matrix,
    apply_gate_to_state,
    apply_gate_to_states,
    embed_unitary,
)
from repro.linalg.su2 import u3_params, zyz_decompose, zyz_reconstruct
from repro.linalg.unitary import (
    closest_unitary,
    equal_up_to_global_phase,
    fidelity_from_distance,
    global_phase_between,
    hs_cost,
    hs_distance,
    hs_inner,
    is_unitary,
)
from repro.linalg.weyl import (
    MAGIC,
    decompose_tensor_product,
    estimated_cnot_class,
    is_tensor_product,
    magic_rep,
    makhlin_invariants,
)

__all__ = [
    "apply_gate_to_state",
    "apply_gate_to_states",
    "apply_gate_to_matrix",
    "embed_unitary",
    "hs_inner",
    "hs_distance",
    "hs_cost",
    "is_unitary",
    "equal_up_to_global_phase",
    "closest_unitary",
    "global_phase_between",
    "fidelity_from_distance",
    "zyz_decompose",
    "zyz_reconstruct",
    "u3_params",
    "MAGIC",
    "magic_rep",
    "makhlin_invariants",
    "is_tensor_product",
    "decompose_tensor_product",
    "estimated_cnot_class",
]
