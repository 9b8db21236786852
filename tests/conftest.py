import numpy as np
import pytest
from pathlib import Path

from pauliexp import PauliExpansion
from pauliexp.pauli import parse_codes, phase_exponents

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def coeff_dict(obj) -> dict:
    """{code: coefficient} of the arrays of a SparseHamiltonian or PauliExpansion."""
    return dict(zip(obj.codes.tolist(), obj.values.tolist()))


def read_expansion(doc: dict) -> tuple[PauliExpansion, complex | None]:
    """(expansion, beta or None) of a dict in expansion_to_dict's form, such
    as a parsed pauli-json document."""
    codes = parse_codes([entry["pauli"] for entry in doc["coeffs"]], doc["n"])
    values = [complex(entry["re"], entry["im"]) for entry in doc["coeffs"]]
    beta = complex(doc["beta"]["re"], doc["beta"]["im"]) if "beta" in doc else None
    return PauliExpansion(doc["n"], codes, values), beta


def anticommuting_family(rng, n: int, target: int) -> list[int]:
    """Greedy brute-force search for pairwise anticommuting codes."""
    fam: list[int] = []
    for c in rng.permutation(np.arange(1, 4**n, dtype=np.uint64)):
        # two strings anticommute exactly when their phase exponent is odd
        if (phase_exponents(c, np.array(fam, dtype=np.uint64)) & 1).all():
            fam.append(int(c))
            if len(fam) == target:
                break
    return fam


@pytest.fixture
def anticommuting_family_factory():
    return anticommuting_family
