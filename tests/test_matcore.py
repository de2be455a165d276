"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from nikoopman import matcore
from nikoopman.tolerances import TOL


def rand_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def reconstruct(e):
    """V diag(lambda) V' of a SymEig."""
    return (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------


def test_sym_eig_diagonal():
    e = matcore.sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(e.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(e.eigenvectors), np.eye(2))


def test_sym_eig_exchange_matrix():
    e = matcore.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(e.eigenvalues, [1.0, -1.0])
    s = 1.0 / np.sqrt(2.0)
    # eigenvectors defined up to sign
    assert np.allclose(np.abs(e.eigenvectors[:, 0]), [s, s])
    assert np.allclose(np.abs(e.eigenvectors[:, 1]), [s, s])
    assert np.isclose(e.eigenvectors[0, 1] * e.eigenvectors[1, 1], -0.5)


def test_sym_eig_reconstruction_5x5():
    rng = np.random.default_rng(0)
    a = rand_symmetric(rng, 5)
    e = matcore.sym_eig(a)
    assert np.linalg.norm(reconstruct(e) - a) <= 1e-8 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [2, 5, 10, 20])
def test_sym_eig_properties_random(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rand_symmetric(rng, n)
        e = matcore.sym_eig(a)
        assert np.all(np.diff(e.eigenvalues) <= 1e-12)  # descending
        v = e.eigenvectors
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= TOL.eig_orthonormal
        err = np.linalg.norm(reconstruct(e) - a)
        assert err <= TOL.eig_reconstruct * np.linalg.norm(a)


def test_sym_eig_rejects_non_square():
    with pytest.raises(matcore.NonSquareError):
        matcore.sym_eig(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# psd_project
# ---------------------------------------------------------------------------


def test_psd_project_clamps_diagonal():
    assert np.allclose(matcore.psd_project(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]))


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 4))
    a = g @ g.T
    assert np.linalg.norm(matcore.psd_project(a) - a) <= 1e-10


def test_psd_project_exchange_matrix():
    # eigenvalues 1 and -1; clamping -1 leaves 0.5 * ones
    out = matcore.psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_psd_project_idempotent_and_in_cone():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rand_symmetric(rng, 6)
        p = matcore.psd_project(a)
        assert np.linalg.norm(matcore.psd_project(p) - p) <= 1e-10
        min_eig = matcore.sym_eig(p).eigenvalues[-1]
        assert min_eig >= -TOL.psd_coneward * np.linalg.norm(a)


@pytest.mark.parametrize("n", [2, 5, 16, 36])
def test_psd_project_reads_lower_triangle_only(n):
    # the contract of syevd(lower=1): the strict upper triangle is never read
    rng = np.random.default_rng(n)
    a = rand_symmetric(rng, n)
    scribbled = a.copy()
    iu = np.triu_indices(n, 1)
    scribbled[iu] = rng.normal(size=iu[0].size)
    assert np.array_equal(matcore.psd_project(scribbled), matcore.psd_project(a))


def test_psd_project_frobenius_nearest_blend_oracle():
    # Brute force: blends (1-t) * projection + t * candidate stay inside the
    # cone, so no blend may come closer to the input than the projection.
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(10):
        a = rand_symmetric(rng, 2)
        p = matcore.psd_project(a)
        d_star = np.linalg.norm(a - p)
        best = np.inf
        for _ in range(50):
            g = rng.normal(size=(2, 2))
            y = g @ g.T
            for t in ts:
                best = min(best, np.linalg.norm(a - ((1.0 - t) * p + t * y)))
        assert best >= d_star - 1e-6


# ---------------------------------------------------------------------------
# pinv
# ---------------------------------------------------------------------------


def test_pinv_identity():
    assert np.allclose(matcore.pinv(np.eye(3)), np.eye(3))


def test_pinv_rank_deficient_diagonal():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(matcore.pinv(a), a)


def test_pinv_full_row_rank_penrose():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 7))
    api = matcore.pinv(a)
    assert np.linalg.norm(a @ api @ a - a) <= TOL.penrose


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
def test_pinv_penrose_identities_all_ranks(shape):
    m, n = shape
    rng = np.random.default_rng(m * 10 + n)
    for rank in range(1, min(m, n) + 1):
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        p = matcore.pinv(a)
        assert np.linalg.norm(a @ p @ a - a) <= TOL.penrose
        assert np.linalg.norm(p @ a @ p - p) <= TOL.penrose
        assert np.linalg.norm((a @ p).T - a @ p) <= TOL.penrose
        assert np.linalg.norm((p @ a).T - p @ a) <= TOL.penrose


# ---------------------------------------------------------------------------
# solve / csolve
# ---------------------------------------------------------------------------


def test_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(matcore.solve(np.eye(2), b), b)


def test_solve_diagonal():
    out = matcore.solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
    assert np.allclose(out, [[1.0], [2.0]])


def test_solve_residual_random():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    b = rng.normal(size=(6, 2))
    x = matcore.solve(a, b)
    res = np.linalg.norm(a @ x - b)
    assert res <= TOL.solve_residual * np.linalg.norm(a) * max(np.linalg.norm(x), 1.0)


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(matcore.SingularMatrixError):
        matcore.solve(a, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite(bad):
    for f in (matcore.solve, matcore.csolve):
        with pytest.raises(ValueError, match="must be finite"):
            f([[1.0, 0.0], [0.0, bad]], np.ones(2))
        with pytest.raises(ValueError, match="must be finite"):
            f(np.eye(2), [1.0, bad])


def test_solve_rejects_non_square():
    with pytest.raises(matcore.NonSquareError):
        matcore.solve(np.ones((2, 3)), np.ones(2))


def test_csolve_hand_value():
    a = np.array([[1.0 + 1.0j]])
    b = np.array([[1.0 + 0.0j]])
    assert np.allclose(matcore.csolve(a, b), [[0.5 - 0.5j]])


def test_csolve_residual_random():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    b = rng.normal(size=(5,)) + 1j * rng.normal(size=(5,))
    x = matcore.csolve(a, b)
    assert np.linalg.norm(a @ x - b) <= TOL.solve_residual * np.linalg.norm(a) * max(
        np.linalg.norm(x), 1.0
    )

