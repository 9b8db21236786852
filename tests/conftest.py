import numpy as np
import pytest
from pathlib import Path

from pauliexp import PauliString, SparseHamiltonian, close_codes, commutes

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def make_closed_hamiltonian(rng, n: int, rank: int) -> SparseHamiltonian:
    """Random Hamiltonian whose support is a full closed set of 2**rank - 1
    codes, coefficients uniform in [-1, 1]."""
    while True:
        gens = rng.integers(1, 4**n, size=rank, dtype=np.uint64)
        ts = close_codes(n, gens, cap=4 * 2**rank)
        if len(ts) == 2**rank - 1:
            break
    vals = rng.uniform(-1.0, 1.0, size=len(ts))
    return SparseHamiltonian(n, {int(c): float(v) for c, v in zip(ts.codes, vals)})


def anticommuting_family(rng, n: int, target: int) -> list[int]:
    """Greedy brute-force search for pairwise anticommuting codes."""
    fam: list[int] = []
    for c in rng.permutation(np.arange(1, 4**n, dtype=np.uint64)):
        p = PauliString(n, int(c))
        if all(not commutes(p, PauliString(n, f)) for f in fam):
            fam.append(int(c))
            if len(fam) == target:
                break
    return fam


@pytest.fixture
def closed_hamiltonian_factory():
    return make_closed_hamiltonian


@pytest.fixture
def anticommuting_family_factory():
    return anticommuting_family
