"""Shared numeric tolerances.

Every tolerance used by the kernels, the solver and the test suite lives in
one record so they cannot drift apart.  The environment variable
``NIKOOPMAN_TOL_SCALE`` multiplies all of them, which lets CI loosen the
whole suite uniformly on slow or exotic platforms.  It must be a positive
finite number; anything else fails the import with a ``ValueError``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields


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


def scaled_tolerances(scale: float) -> Tolerances:
    """Return a :class:`Tolerances` record with every entry multiplied."""
    if scale <= 0:
        raise ValueError(f"tolerance scale must be positive, got {scale}")
    return Tolerances(**{f.name: f.default * scale for f in fields(Tolerances)})


def _env_scale() -> float:
    raw = os.environ.get("NIKOOPMAN_TOL_SCALE", "")
    if not raw:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"NIKOOPMAN_TOL_SCALE must be a positive finite number, got {raw!r}")
    return scale


TOL = scaled_tolerances(_env_scale())
