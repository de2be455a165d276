"""Dense linear-algebra kernels used throughout the package.

Matrices are plain 2-D numpy arrays (float64 real, complex128 complex),
row-major.  The helpers here wrap numpy/scipy LAPACK routines behind the
small set of operations the identification pipeline needs: symmetric
eigendecomposition, PSD cone projection, pseudoinverse and linear solves with
explicit singularity detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tolerances import TOL


class NonSquareError(ValueError):
    """A square matrix was required."""


class NotConvergedError(RuntimeError):
    """The underlying eigensolver failed to converge."""


class SingularMatrixError(ValueError):
    """Linear system singular to working precision."""


def _square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.atleast_2d(np.asarray(a))
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    return a


# LAPACK's divide-and-conquer symmetric eigensolver, called directly on the
# lower triangle: the routine and triangle np.linalg.eigh uses, without its
# wrapper overhead
_SYEVD = scipy.linalg.get_lapack_funcs("syevd", dtype=np.float64)


@dataclass(frozen=True)
class SymEig:
    """Spectral decomposition of a symmetric matrix.

    Attributes:
        eigenvalues: Real eigenvalues sorted descending.
        eigenvectors: Orthonormal eigenvectors, one per column, matching
            the eigenvalue order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a: np.ndarray) -> SymEig:
    """Full eigendecomposition of a symmetric matrix.

    The input is symmetrized as (a + a')/2 first, so mildly asymmetric
    inputs (round-off level) are accepted.

    Raises:
        NonSquareError: if ``a`` is not square.
        NotConvergedError: if LAPACK fails to converge.
    """
    a = _square(np.asarray(a, dtype=float))
    w, v, info = _SYEVD(0.5 * (a + a.T), lower=1)
    if info != 0:
        raise NotConvergedError(f"syevd did not converge (info = {info})")
    return SymEig(w[::-1].copy(), v[:, ::-1].copy())


def psd_project(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive-semidefinite matrix to a symmetric ``a``.

    Only the lower triangle of ``a`` is read, as LAPACK ``syevd`` reads it:
    the result is the projection of the symmetric matrix that triangle
    defines, so callers pass an exactly symmetric ``a``.  Clips negative
    eigenvalues at zero and reassembles an exactly symmetric result.

    Raises:
        NonSquareError: if ``a`` is not square.
        NotConvergedError: if LAPACK fails to converge.
    """
    a = _square(np.asarray(a, dtype=float))
    w, v, info = _SYEVD(a, lower=1)
    if info != 0:
        raise NotConvergedError(f"syevd did not converge (info = {info})")
    # descending eigenvalue order, the summation order of the reassembly
    v = v[:, ::-1].copy()
    out = np.dot(v * np.maximum(w[::-1], 0.0), v.T)
    return 0.5 * (out + out.T)


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``TOL.pinv_rcond`` times the largest are treated as
    zero.
    """
    return np.linalg.pinv(np.atleast_2d(np.asarray(a, dtype=float)), rcond=TOL.pinv_rcond)


def pivot_floor(a_norm):
    """LU pivot below which a matrix counts as singular to working precision.

    ``a_norm`` is the matrix's infinity norm, a scalar or an array of them;
    the floor is ``TOL.solve_pivot * max(a_norm, tiny)``, elementwise.
    """
    return TOL.solve_pivot * np.maximum(a_norm, np.finfo(float).tiny)


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:  # empty system: solution is the (empty) rhs
        return b.copy()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("linear system must be finite: a or b holds an inf or a NaN")
    # one LAPACK gesv call: its solve does not depend on the BLAS thread count,
    # where a separate getrs call at OpenBLAS's default count does
    gesv = scipy.linalg.get_lapack_funcs("gesv", (a, b))
    lu, _, x, _ = gesv(a, b)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < pivot_floor(np.linalg.norm(a, np.inf)):
        raise SingularMatrixError(
            f"matrix singular to working precision (min pivot {pivots.min():.3e})"
        )
    return x


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for real square ``a`` via partial-pivot LU.

    Raises:
        SingularMatrixError: an LU pivot below :func:`pivot_floor`.
        ValueError: ``a`` or ``b`` is not finite.
    """
    a = _square(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    return _lu_solve(a, b)


def csolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex counterpart of :func:`solve`."""
    a = _square(np.asarray(a, dtype=complex))
    b = np.asarray(b, dtype=complex)
    return _lu_solve(a, b)

