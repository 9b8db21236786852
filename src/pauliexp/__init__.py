"""Matrix exponentials of sparse Pauli-basis Hamiltonians.

An n-qubit Hamiltonian given as a sparse real combination of Pauli strings
is exponentiated by closing its support under string composition and
reducing exp(-beta H) to a (1 + tau)-dimensional Hermitian linear-algebra
problem, where tau is the closure size. A dense brute-force oracle is
included for verification.
"""

from .errors import (
    ClosureExplosion,
    ContourError,
    FormatError,
    PauliExpError,
    SingularSystem,
)
from .pauli import (
    MAX_QUBITS,
    PauliString,
    Phase,
    commutes,
    compose,
    format_string,
    parse_string,
    phase,
    structure_constant,
)
from .hamiltonian import (
    ClosedTermSet,
    DEFAULT_CLOSURE_CAP,
    PauliExpansion,
    SparseHamiltonian,
    close,
    close_codes,
    load_hamiltonian,
    parse_hamiltonian,
    pauli_decompose,
)
from .resolvent import (
    StructureMatrix,
    build_structure_matrix,
    characteristic_poly_at,
    gershgorin_bounds,
    resolvent_at,
)
from .engine import (
    ContourSpec,
    Reduced,
    exp_anticommuting,
    exp_contour,
    exp_pauli,
    exp_spectral,
    gibbs_state,
    is_pairwise_anticommuting,
    multiply_expansions,
    partition_function,
)
from .dense import (
    CompareResult,
    DENSE_CAP_DEFAULT,
    compare,
    dense_exp,
    embed,
    pauli_matrix,
    read_dense,
    reconstruct_dense,
    write_dense,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS",
    "DEFAULT_CLOSURE_CAP",
    "DENSE_CAP_DEFAULT",
    "PauliString",
    "Phase",
    "SparseHamiltonian",
    "PauliExpansion",
    "ClosedTermSet",
    "StructureMatrix",
    "Reduced",
    "ContourSpec",
    "CompareResult",
    "PauliExpError",
    "ClosureExplosion",
    "SingularSystem",
    "ContourError",
    "FormatError",
    "compose",
    "phase",
    "commutes",
    "structure_constant",
    "parse_string",
    "format_string",
    "close",
    "close_codes",
    "parse_hamiltonian",
    "load_hamiltonian",
    "pauli_decompose",
    "build_structure_matrix",
    "resolvent_at",
    "characteristic_poly_at",
    "gershgorin_bounds",
    "exp_pauli",
    "exp_spectral",
    "exp_contour",
    "exp_anticommuting",
    "is_pairwise_anticommuting",
    "partition_function",
    "gibbs_state",
    "multiply_expansions",
    "pauli_matrix",
    "reconstruct_dense",
    "dense_exp",
    "compare",
    "embed",
    "write_dense",
    "read_dense",
    "__version__",
]
