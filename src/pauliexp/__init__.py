"""Matrix exponentials of sparse Pauli-basis Hamiltonians.

An n-qubit Hamiltonian given as a sparse real combination of Pauli strings
is exponentiated by closing its support under string composition, where
tau is the closure size: the default sector path splits the closure's GF(2)
span into s anticommuting pairs and c central strings and diagonalizes 2^c
Hermitian blocks of size 2^s; the reference spectral path diagonalizes one
(1 + tau)-dimensional structure matrix. A dense brute-force oracle is
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
)
from .hamiltonian import (
    DEFAULT_CLOSURE_CAP,
    PauliExpansion,
    SparseHamiltonian,
    close,
    close_codes,
    load_hamiltonian,
    parse_hamiltonian,
)
from .resolvent import (
    build_structure_matrix,
    characteristic_poly_at,
    resolvent_at,
)
from .engine import (
    Reduced,
    exp_anticommuting,
    exp_contour,
    exp_pauli,
    exp_spectral,
    gibbs_state,
    is_pairwise_anticommuting,
    partition_function,
)
from .dense import (
    CompareResult,
    DENSE_CAP_DEFAULT,
    compare,
    dense_exp,
    embed,
    pauli_decompose,
    pauli_matrix,
    read_dense,
    reconstruct_dense,
)

__version__ = "0.1.0"
