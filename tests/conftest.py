import numpy as np
import pytest
import scipy.linalg

from halfspace import Grid, build_poisson_kernel, build_system, kernels


@pytest.fixture(scope="session")
def lap2():
    return build_system("laplacian", n=2)


@pytest.fixture(scope="session")
def lap3():
    return build_system("laplacian", n=3)


@pytest.fixture(scope="session")
def lame2():
    return build_system("lame", n=2, mu=1.0, lam=1.0)


@pytest.fixture(scope="session")
def lame3():
    return build_system("lame", n=3, mu=1.0, lam=1.0)


@pytest.fixture(scope="session")
def lame3_complex():
    return build_system("lame", n=3, mu=1 + 0.3j, lam=2 - 0.5j)


@pytest.fixture(scope="session")
def random_lh3():
    """Seeded complex, non-symmetric M = 3 tensor in n = 3 with a
    Legendre-Hadamard margin of about 0.29; unlike Lame's, its solvents'
    eigenvalues spread, so large heights take the divided differences of
    the Schur form rather than its series."""
    rng = np.random.default_rng(1)
    a = np.einsum("ab,rs->abrs", np.eye(3), np.eye(3)).astype(complex)
    a = a + 0.3 * (rng.standard_normal((3, 3, 3, 3))
                   + 1j * rng.standard_normal((3, 3, 3, 3)))
    return build_system("raw", tensor=a)


@pytest.fixture(scope="session")
def per_node_symbol():
    """(system, xi, t) -> (Khat, d/dt Khat), each (B, M, M), from direct
    per-node solves by ``kernels._solvent_stacks``, not from the system's
    solvent table, and ``scipy.linalg.expm`` of i t |xi| G, not the
    package's exponential: the reference for every system class."""
    def evaluate(system, xi, t):
        norms = np.linalg.norm(xi, axis=1)
        g = np.zeros((len(xi), system.M, system.M), dtype=complex)
        g[norms > 0] = kernels._solvent_stacks(
            system, xi[norms > 0] / norms[norms > 0, None])
        k = scipy.linalg.expm(1j * t * norms[:, None, None] * g)
        return k, 1j * norms[:, None, None] * (g @ k)
    return evaluate


@pytest.fixture(scope="session")
def complex_scalar():
    # non-symmetric complex scalar operator, genuinely elliptic
    return build_system("scalar", A=[[1.0, 0.4 + 0.2j], [-0.1j, 1.0]])


@pytest.fixture(scope="session")
def lap2_kernel(lap2):
    return build_poisson_kernel(lap2, N=4096)


@pytest.fixture(scope="session")
def lame2_kernel(lame2):
    return build_poisson_kernel(lame2, N=4096)


@pytest.fixture(scope="session")
def lap3_kernel(lap3):
    return build_poisson_kernel(lap3, N=256)


@pytest.fixture(scope="session")
def lame3_small_kernel(lame3_complex):
    return build_poisson_kernel(lame3_complex, N=32, normalization_tol=None)


@pytest.fixture(scope="session")
def grid_mid():
    return Grid(n=2, N=1024, h=0.125)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
