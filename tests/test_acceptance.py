"""End-to-end acceptance gate.

One test per numbered criterion; each prints a `criterion NN: PASS (...)`
line with the measured figure (run with -s or -rA to see them, or rely on
the per-test PASSED/FAILED line from -v).
"""

import math
import time

import numpy as np
import pytest

from pauliexp import (
    SparseHamiltonian,
    build_structure_matrix,
    characteristic_poly_at,
    dense_exp,
    embed,
    exp_anticommuting,
    exp_contour,
    exp_spectral,
    partition_function,
    pauli_decompose,
    reconstruct_dense,
)
from pauliexp.cli import main
from pauliexp.hamiltonian import close_codes, random_closed_hamiltonian

from conftest import FIXTURES, anticommuting_family, coeff_dict

# codes for the 3-qubit cyclic triple XYZ, YZX, ZXY
TRIPLE_CODES = (27, 45, 54)
# codes for the 4-qubit 7-term example: 0123 0213 0330 1023 1100 1230 1313
SEVEN_CODES = (27, 39, 60, 75, 80, 108, 119)


def report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def max_coeff_diff(a, b) -> float:
    da, db = coeff_dict(a), coeff_dict(b)
    return max(abs(da.get(k, 0) - db.get(k, 0)) for k in da.keys() | db.keys() | {0})


def seven_term(hs) -> SparseHamiltonian:
    return SparseHamiltonian(4, SEVEN_CODES, hs)


def mu_nu(hs) -> tuple[float, float]:
    _, h2, h3, h4, h5, h6, h7 = hs
    mu = h2**2 + h3**2 + h4**2 + h5**2 + h6**2 + h7**2
    nu = 2 * h2 * h3 + 2 * h4 * h5 - 2 * h6 * h7
    return mu, nu


@pytest.fixture(scope="module")
def closed_cases() -> list[SparseHamiltonian]:
    # 50 Hamiltonians with fully closed support, n cycling 2..6,
    # shapes (1, 0), (1, 1), (2, 0) so tau in {3, 7, 15} <= 30
    rng = np.random.default_rng(404)
    return [random_closed_hamiltonian(rng, 2 + i % 5, *((1, 0), (1, 1), (2, 0))[i % 3])
            for i in range(50)]


def test_criterion_01_anticommuting_triple_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        h = SparseHamiltonian(3, TRIPLE_CODES, [a, b, c])
        p = math.sqrt(a * a + b * b + c * c)
        for t in rng.uniform(0.1, 3.0, size=10):
            got = coeff_dict(exp_spectral(h, 1j * t))
            scale = -1j * math.sin(p * t) / p
            want = {0: complex(math.cos(p * t)), 27: scale * a,
                    45: scale * b, 54: scale * c}
            keys = set(got) | set(want)
            worst = max(worst,
                        max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"max abs err {worst:.2e} over 200 cases in {elapsed:.2f}s")


def test_criterion_02_seven_term_partition_and_spectrum():
    rng = np.random.default_rng(202)
    worst_z = 0.0
    worst_eig = 0.0
    for _ in range(20):
        hs = rng.uniform(-1.5, 1.5, size=7)
        h1 = hs[0]
        mu, nu = mu_nu(hs)
        lo, hi = math.sqrt(mu - nu), math.sqrt(mu + nu)
        ham = seven_term(hs)
        for beta in (0.1, 1.0, 5.0):
            z_norm, _ = partition_function(ham, beta)
            want = (0.5 * math.exp(beta * h1) * math.cosh(beta * lo)
                    + 0.5 * math.exp(-beta * h1) * math.cosh(beta * hi))
            worst_z = max(worst_z, abs(z_norm - want) / abs(want))
        got_eigs = np.sort(np.linalg.eigvalsh(build_structure_matrix(ham)))
        want_eigs = np.sort(np.repeat([-h1 - lo, -h1 + lo, h1 - hi, h1 + hi], 2))
        worst_eig = max(worst_eig, float(np.abs(got_eigs - want_eigs).max()))
    assert worst_z <= 1e-10
    assert worst_eig <= 1e-10
    report(2, f"partition rel err {worst_z:.2e}, "
              f"eigenvalue pairing err {worst_eig:.2e} over 20 coefficient sets")


def test_criterion_03_determinant_factorization():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(5):
        hs = rng.uniform(-1.0, 1.0, size=7)
        h1 = hs[0]
        mu, nu = mu_nu(hs)
        sm = build_structure_matrix(seven_term(hs))
        for _ in range(50):
            # all roots are real, so |Im z| >= 0.5 keeps the factored form
            # well away from zero and the relative error meaningful
            z = complex(rng.uniform(-3.0, 3.0),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
            got = characteristic_poly_at(sm, z)
            want = (((z + h1) ** 2 - mu + nu) ** 2
                    * ((z - h1) ** 2 - mu - nu) ** 2)
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-8
    report(3, f"det identity rel err {worst:.2e} at 250 complex points")


def test_criterion_04_dense_oracle_agreement(closed_cases):
    t0 = time.perf_counter()
    worst = 0.0
    for ham in closed_cases:
        m = reconstruct_dense(ham)
        for beta in (1.0, 1j):
            got = reconstruct_dense(exp_spectral(ham, beta))
            want = dense_exp(m, beta)
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    report(4, f"entrywise err {worst:.2e} over 50 Hamiltonians x 2 betas "
              f"in {elapsed:.1f}s")


def test_criterion_05_unitarity(closed_cases):
    worst = 0.0
    for ham in closed_cases:
        u = reconstruct_dense(exp_spectral(ham, 1j))
        d = u.conj().T @ u - np.eye(u.shape[0])
        worst = max(worst, float(np.abs(d).sum(axis=1).max()))
    assert worst <= 1e-10
    report(5, f"max row-sum norm of U^H U - I is {worst:.2e} over 50 cases")


def test_criterion_06_anticommuting_closed_form():
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(20):
        n = 2 + (i % 3)
        fam = anticommuting_family(rng, n, target=3 + (i % 3))
        assert len(fam) >= 2
        coeffs = rng.uniform(-1.0, 1.0, size=len(fam))
        ham = SparseHamiltonian(n, *zip(*sorted(zip(fam, coeffs))))
        beta = complex(rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0))
        worst = max(worst,
                    max_coeff_diff(exp_anticommuting(ham, beta),
                                   exp_spectral(ham, beta)))
    assert worst <= 1e-12
    report(6, f"closed form vs spectral err {worst:.2e} over 20 families")


def test_criterion_07_contour_convergence():
    ham = random_closed_hamiltonian(np.random.default_rng(707), 5, 1, 1)
    assert ham.codes.size == 7
    beta = 1.0
    ref = exp_spectral(ham, beta)
    eigs = np.linalg.eigvalsh(build_structure_matrix(ham))
    # circle with convergence factor 0.8, so quadrature error shrinks by
    # orders of magnitude per doubling without bottoming out before M=128
    radius = float(np.abs(eigs).max()) / 0.8
    errs = []
    for nodes in (16, 32, 64, 128):
        errs.append(max_coeff_diff(exp_contour(ham, beta, nodes=nodes, center=0.0,
                                               radius=radius), ref))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[3] <= 1e-8
    report(7, "errors " + " > ".join(f"{e:.1e}" for e in errs) + " at M=16..128")


def test_criterion_08_qutrit_embedding_golden():
    m3 = np.array([[2.0, 0.0, 0.0],
                   [0.0, 0.0, -4.0j],
                   [0.0, 4.0j, -2.0]], dtype=complex)
    h = pauli_decompose(embed(m3))
    assert isinstance(h, SparseHamiltonian)
    want = {6: -2.0, 9: 2.0, 12: 1.0, 15: 1.0}
    got = coeff_dict(h)
    assert set(got) == set(want)
    worst = max(abs(got[k] - v) for k, v in want.items())
    assert worst <= 1e-14
    assert h.identity_offset == 0.0
    report(8, f"qutrit terms match XY:-2 YX:2 ZI:1 ZZ:1, err {worst:.1e}")


def tau7_pattern(n: int) -> SparseHamiltonian:
    """The closure of three generators spanning all n qubits, all-X, all-Z and
    X on the first qubit: tau 7 at every n >= 2."""
    codes = close_codes(n, [int("1" * n, 4), int("3" * n, 4), 1 << (2 * (n - 1))])
    return SparseHamiltonian(n, codes, np.random.default_rng(7).uniform(-1.0, 1.0, codes.size))


def best_time(fn, repeats: int, warmup: bool) -> float:
    """The shortest wall time of `repeats` calls of fn, after one untimed call if `warmup`."""
    if warmup:
        fn()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_09_scaling():
    spectral = {}
    for n in (4, 12):
        h = tau7_pattern(n)
        assert h.codes.size == 7
        spectral[n] = best_time(lambda: exp_spectral(h, 1.0), 9, warmup=True)
    spectral_ratio = max(spectral.values()) / min(spectral.values())
    assert spectral_ratio < 2.0

    dense = {}
    for n in (6, 12):
        h = tau7_pattern(n)
        # a 4096 x 4096 eigh is slow, so one call and no warm-up
        dense[n] = best_time(lambda: dense_exp(reconstruct_dense(h, 12), 1.0), 1, warmup=False)
    dense_ratio = dense[12] / dense[6]
    assert dense_ratio >= 100.0
    report(9, f"tau=7 spectral n=4 vs n=12 ratio {spectral_ratio:.2f}x; "
              f"dense n=12/n=6 ratio {dense_ratio:.0f}x")


def test_criterion_10_closure_explosion_exit_code(capsys):
    code = main(["exp", "-i", str(FIXTURES / "xy_n6.txt"),
                 "--beta", "1", "--closure-cap", "512"])
    err = capsys.readouterr().err
    assert code == 2
    assert "closure" in err
    report(10, "n=6 XY-style input with cap 512 exits 2 with a closure message")
