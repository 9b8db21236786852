import numpy as np
import pytest
from pathlib import Path

from pauliexp import PauliString, commutes
from pauliexp.hamiltonian import random_closed_hamiltonian

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


make_closed_hamiltonian = random_closed_hamiltonian


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
def anticommuting_family_factory():
    return anticommuting_family
