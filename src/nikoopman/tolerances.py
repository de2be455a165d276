"""Shared numeric tolerances.

Every tolerance used by the kernels, the solver and the test suite lives in
one record so they cannot drift apart.  The values are fixed.  The
environment variable ``NIKOOPMAN_TOL_SCALE``, which once scaled them, is not
supported: a non-empty setting of it fails the import with a ``ValueError``,
so a stale setting is never silently ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared between library code and tests."""

    # dense kernels
    eig_reconstruct: float = 1e-8  # ||V L V' - A||_F <= tol * ||A||_F
    eig_orthonormal: float = 1e-9  # ||V'V - I||_F
    psd_coneward: float = 1e-10  # min eig of projection >= -tol * ||A||_F
    pinv_rcond: float = 1e-10
    penrose: float = 1e-8
    solve_residual: float = 1e-8  # ||Ax - b|| <= tol * ||A|| * ||x||
    solve_pivot: float = 1e-12  # singularity threshold, relative to ||A||_inf

    # model transforms and NI checks
    ni_freq: float = 1e-8  # grid NI verdict: min eig of j(G - G*) >= -tol
    ni_residual: float = 1e-6  # discrete LMI certificate tolerance

    # identification
    admm_rel: float = 1e-7  # solve_ni primal/dual residual stop, relative
    barrier_gap: float = 1e-9  # barrier-method stop: gap bound m/t over the objective
    bound_active_rel: float = 1e-3  # completion trace bound active: R - tr P <= tol * R
    rank_rel: float = 1e-10  # Gram eigenvalue threshold for full row rank

    # reporting
    stability_margin: float = 1e-6  # spectral-radius verdict dead band
    dissipation_rel: float = 1e-3  # storage-inequality slack, relative


if os.environ.get("NIKOOPMAN_TOL_SCALE"):
    raise ValueError(
        "NIKOOPMAN_TOL_SCALE is not supported: tolerances are fixed in nikoopman.Tolerances; "
        "unset the variable"
    )

TOL = Tolerances()
