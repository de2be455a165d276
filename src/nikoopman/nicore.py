"""Negative-imaginary model machinery.

A square LTI system G(s) = C (sI - A)^-1 B + D is negative imaginary (NI)
when j (G(jw) - G(jw)*) >= 0 for w > 0; for SISO systems this is the phase
staying inside (-180 deg, 0 deg).  The state-space certificate is a real
P > 0 with A P + P A' <= 0 and B = -A P C'.  This module provides

* the bilinear map between discrete and continuous realizations that
  transports that certificate to A_d P A_d' - P <= 0 and the matching B_d
  equality,
* residual evaluation of those discrete conditions for a given P,
* grid-based frequency-domain NI checks,
* the strictly-NI positive-position-feedback (PPF) controller
  K / (s^2 + 2 zeta w s + w^2) and the positive-feedback interconnection
  with its DC-gain coupling number lambda_max(G(0) Gbar(0)).

Grid checks are necessary conditions evaluated on a finite grid; the LMI
residual path is the certificate of record.  Reports carry both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matcore
from .lifting import LiftingDictionary
from .matcore import SingularMatrixError
from .tolerances import TOL


class SingularAtMinusOneError(ValueError):
    """I + A_d is singular (A_d has an eigenvalue at -1)."""


class PoleOnGridError(ValueError):
    """A grid frequency coincides with a pole of the model."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(f"frequency grid hits a pole at omega = {omega:g} rad/s")


class IllPosedLoopError(ValueError):
    """The feedback interconnection has a singular algebraic loop."""


@dataclass(frozen=True)
class DiscreteLinearModel:
    """Lifted discrete-time model psi+ = A psi + B u, y = C psi + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    T: float
    dictionary: LiftingDictionary | None = None

    def __post_init__(self):
        _check_dims(self)
        if self.T <= 0:
            raise ValueError(f"sampling time must be positive, got {self.T}")

    @property
    def order(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ContinuousLinearModel:
    """Continuous realization xdot = A x + B u, y = C x + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        _check_dims(self)

    @property
    def order(self) -> int:
        return self.A.shape[0]


def _check_dims(mdl) -> None:
    for name in ("A", "B", "C", "D"):
        object.__setattr__(mdl, name, np.atleast_2d(np.asarray(getattr(mdl, name), dtype=float)))
    n = mdl.A.shape[0]
    if mdl.A.shape != (n, n):
        raise ValueError(f"A must be square, got {mdl.A.shape}")
    if mdl.B.shape[0] != n or mdl.C.shape[1] != n:
        raise ValueError("B/C dimensions inconsistent with A")
    if mdl.D.shape != (mdl.C.shape[0], mdl.B.shape[1]):
        raise ValueError("D dimensions inconsistent with B/C")


@dataclass(frozen=True)
class PpfController:
    """Positive-position-feedback controller K / (s^2 + 2 zeta w s + w^2).

    Positive gain, damping and natural frequency make it strictly NI.
    """

    K: float = 0.5
    zeta: float = 0.7
    omega: float = 2.0

    def __post_init__(self):
        if min(self.K, self.zeta, self.omega) <= 0:
            raise ValueError("PPF parameters must all be positive")


# ---------------------------------------------------------------------------
# bilinear transform
# ---------------------------------------------------------------------------


def to_continuous(d: DiscreteLinearModel) -> ContinuousLinearModel:
    """Bilinear image of a discrete model.

    A = (1/T)(I + A_d)^-1 (A_d - I),  B = (1/sqrt T)(I + A_d)^-1 B_d,
    C = (1/sqrt T) C_d (I + A_d)^-1,  D = D_d - C_d (I + A_d)^-1 B_d.
    """
    n = d.order
    eye = np.eye(n)
    try:
        m_inv_ad = matcore.solve(eye + d.A, np.hstack([d.A - eye, d.B]))
    except SingularMatrixError as exc:
        raise SingularAtMinusOneError("I + A_d is singular (eigenvalue at -1)") from exc
    A = m_inv_ad[:, :n] / d.T
    B = m_inv_ad[:, n:] / np.sqrt(d.T)
    c_minv = matcore.solve((eye + d.A).T, d.C.T).T
    C = c_minv / np.sqrt(d.T)
    D = d.D - c_minv @ d.B
    return ContinuousLinearModel(A=A, B=B, C=C, D=D)


def to_discrete(c: ContinuousLinearModel, T: float) -> DiscreteLinearModel:
    """Exact algebraic inverse of :func:`to_continuous`.

    A_d = (I - T A)^-1 (I + T A); B_d, C_d, D_d follow from the forward map.
    """
    if T <= 0:
        raise ValueError(f"sampling time must be positive, got {T}")
    n = c.order
    eye = np.eye(n)
    Ad = matcore.solve(eye - T * c.A, eye + T * c.A)
    Bd = np.sqrt(T) * (eye + Ad) @ c.B
    Cd = np.sqrt(T) * c.C @ (eye + Ad)
    Dd = c.D + T * c.C @ (eye + Ad) @ c.B
    return DiscreteLinearModel(A=Ad, B=Bd, C=Cd, D=Dd, T=T)


# ---------------------------------------------------------------------------
# NI residuals and frequency checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NiResiduals:
    """Numeric evidence for the discrete NI certificate with a given P.

    lyap_max_eig: lambda_max(A_d P A_d' - P); must be <= tol.
    b_eq_gap: Frobenius gap in the B_d equality; enforced in strict mode.
    p_min_eig: lambda_min(P); must be >= -tol.
    """

    lyap_max_eig: float
    b_eq_gap: float
    p_min_eig: float
    certified: bool


def discrete_ni_residuals(
    mdl: DiscreteLinearModel,
    P: np.ndarray,
    tol: float = TOL.ni_residual,
    strict: bool = False,
) -> NiResiduals:
    """Evaluate the discrete NI conditions for a candidate certificate P."""
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    if P.shape != mdl.A.shape:
        raise ValueError(f"P shape {P.shape} does not match A {mdl.A.shape}")
    lyap = mdl.A @ P @ mdl.A.T - P
    lyap_max = float(matcore.sym_eig(lyap).eigenvalues[0])
    p_min = float(matcore.sym_eig(P).eigenvalues[-1])
    b_target = -(1.0 / mdl.T) * (mdl.A - np.eye(mdl.order)) @ P @ matcore.solve(
        (np.eye(mdl.order) + mdl.A).T, mdl.C.T
    )
    b_gap = float(np.linalg.norm(mdl.B - b_target))
    certified = lyap_max <= tol and p_min >= -tol and (not strict or b_gap <= tol)
    return NiResiduals(lyap_max_eig=lyap_max, b_eq_gap=b_gap, p_min_eig=p_min, certified=certified)


def default_frequency_grid(
    w_min: float = 1e-2, w_max: float = 1e2, n_points: int = 200
) -> np.ndarray:
    """Logarithmic frequency grid in rad/s."""
    return np.logspace(np.log10(w_min), np.log10(w_max), n_points)


FREQ_CHUNK = 32  # frequencies per block of (jw I - A) and of C X + D; bounds their memory


def freq_response(c: ContinuousLinearModel, omegas: np.ndarray) -> np.ndarray:
    """G(jw) = C (jw I - A)^-1 B + D on a grid; shape (len(omegas), l, m).

    The systems (jw I - A) are built in blocks of at most ``FREQ_CHUNK``
    frequencies and each is solved by LAPACK getrf/getrs directly, without the
    per-call checks of the scipy wrappers; C X + D is formed for each block in
    one stacked product.  A frequency is on a pole when the smallest LU pivot
    is below ``TOL.solve_pivot * ||jw I - A||_inf``, the test of
    :func:`matcore.csolve`.

    Raises:
        PoleOnGridError: some jw is an eigenvalue of A (the first such w in
            grid order).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = c.order
    out = np.empty((omegas.size, c.C.shape[0], c.B.shape[1]), dtype=complex)
    if n == 0 or not np.any(c.C) or not np.any(c.B):
        out[:] = c.D
        return out
    eye = np.eye(n)
    B = c.B.astype(complex)
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (B,))
    X = np.empty((FREQ_CHUNK, n, B.shape[1]), dtype=complex)
    for k0 in range(0, omegas.size, FREQ_CHUNK):
        w = omegas[k0 : k0 + FREQ_CHUNK]
        M = (1j * w)[:, None, None] * eye - c.A
        # csolve's pivot threshold, from ||jw I - A||_inf before factorizing
        pivot_min = TOL.solve_pivot * np.maximum(
            np.linalg.norm(M, np.inf, axis=(1, 2)), np.finfo(float).tiny
        )
        for k in range(w.size):
            lu, piv, _ = getrf(M[k], overwrite_a=True)
            if np.abs(lu.diagonal()).min() < pivot_min[k]:
                raise PoleOnGridError(float(w[k]))
            X[k], _ = getrs(lu, piv, B)
        out[k0 : k0 + w.size] = c.C @ X[: w.size] + c.D
    return out


def dc_gain(c: ContinuousLinearModel) -> np.ndarray:
    """G(0) = D - C A^-1 B (D alone for a static model)."""
    if c.order == 0 or not np.any(c.C) or not np.any(c.B):
        return c.D.copy()
    return c.D - c.C @ matcore.solve(c.A, c.B)


@dataclass(frozen=True)
class FrequencyNiCheck:
    """Grid minimum of lambda_min(j (G - G*)) and its location."""

    min_eig_over_grid: float
    worst_omega: float
    is_ni: bool


def ni_frequency_check(
    c: ContinuousLinearModel,
    omegas: np.ndarray | None = None,
    tol: float = TOL.ni_freq,
) -> FrequencyNiCheck:
    """Grid-based NI test: lambda_min(j(G(jw) - G(jw)*)) >= -tol for all w > 0.

    For SISO models the tested quantity reduces to -2 Im G(jw), so the
    verdict matches the phase-in-(-180, 0) reading.  Necessary, not
    sufficient: a finite grid cannot prove the property.
    """
    if c.B.shape[1] != c.C.shape[0]:
        raise ValueError("NI check requires a square model (l == m)")
    if omegas is None:
        omegas = default_frequency_grid()
    omegas = np.asarray(omegas, dtype=float)
    omegas = omegas[omegas > 0]
    if omegas.size == 0:
        raise ValueError("NI check needs a grid with at least one positive frequency")
    G = freq_response(c, omegas)
    # j(G - G*) is Hermitian; take its real eigenvalues, one stacked call
    eig_min = np.linalg.eigvalsh(1j * (G - G.conj().transpose(0, 2, 1))).min(axis=1)
    k = int(np.argmin(eig_min))
    worst, worst_w = float(eig_min[k]), float(omegas[k])
    return FrequencyNiCheck(min_eig_over_grid=worst, worst_omega=worst_w, is_ni=worst >= -tol)


# ---------------------------------------------------------------------------
# PPF controller and positive feedback
# ---------------------------------------------------------------------------


def ppf_realize(ctrl: PpfController) -> ContinuousLinearModel:
    """Controllable-canonical realization of the PPF controller; DC gain K/w^2."""
    A = np.array([[0.0, 1.0], [-ctrl.omega**2, -2.0 * ctrl.zeta * ctrl.omega]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[ctrl.K, 0.0]])
    D = np.zeros((1, 1))
    return ContinuousLinearModel(A=A, B=B, C=C, D=D)


@dataclass(frozen=True)
class PositiveFeedback:
    """Closed positive-feedback loop and its DC-gain coupling number."""

    model: ContinuousLinearModel
    dc_gain_lambda_max: float


def positive_feedback(
    plant: ContinuousLinearModel, ctrl: ContinuousLinearModel
) -> PositiveFeedback:
    """Close the loop u = ybar + r around the plant with controller input y.

    Returns the r -> y realization together with
    lambda_max(G(0) Gbar(0)), the coupling number whose being < 1 is the
    NI/SNI internal-stability condition.

    Raises:
        IllPosedLoopError: I - D Dbar singular (algebraic loop).
    """
    n, nb = plant.order, ctrl.order
    l, m = plant.C.shape[0], plant.B.shape[1]
    if ctrl.B.shape[1] != l or ctrl.C.shape[0] != m:
        raise ValueError("controller I/O dimensions must mirror the plant")
    loop = np.eye(l) - plant.D @ ctrl.D
    try:
        E = matcore.solve(loop, np.eye(l))
    except SingularMatrixError as exc:
        raise IllPosedLoopError("I - D Dbar is singular") from exc
    # y = E (C x + D Cbar xbar + D r)
    A_cl = np.block(
        [
            [plant.A + plant.B @ ctrl.D @ E @ plant.C, plant.B @ ctrl.C + plant.B @ ctrl.D @ E @ plant.D @ ctrl.C],
            [ctrl.B @ E @ plant.C, ctrl.A + ctrl.B @ E @ plant.D @ ctrl.C],
        ]
    )
    B_cl = np.vstack([plant.B + plant.B @ ctrl.D @ E @ plant.D, ctrl.B @ E @ plant.D])
    C_cl = np.hstack([E @ plant.C, E @ plant.D @ ctrl.C])
    D_cl = E @ plant.D
    g0 = dc_gain(plant) @ dc_gain(ctrl)
    if g0.shape == (1, 1):
        lam = float(g0[0, 0])
    else:
        lam = float(np.max(np.linalg.eigvals(g0).real))
    closed = ContinuousLinearModel(A=A_cl, B=B_cl, C=C_cl, D=D_cl)
    return PositiveFeedback(model=closed, dc_gain_lambda_max=lam)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json_dict(
    mdl: DiscreteLinearModel,
    solver: dict | None = None,
    config: dict | None = None,
    continuous: ContinuousLinearModel | None = None,
) -> dict:
    """JSON payload for a discrete model (row-major arrays).

    Optional blocks: ``solver`` diagnostics (including the certificate P),
    the resolved run ``config`` and a ``continuous`` realization.
    """
    out = {
        "T": mdl.T,
        "A": mdl.A.tolist(),
        "B": mdl.B.tolist(),
        "C": mdl.C.tolist(),
        "D": mdl.D.tolist(),
        "dict": mdl.dictionary.to_json_dict() if mdl.dictionary is not None else None,
    }
    if solver is not None:
        out["solver"] = solver
    if config is not None:
        out["config"] = config
    if continuous is not None:
        out["continuous"] = {
            "A": continuous.A.tolist(),
            "B": continuous.B.tolist(),
            "C": continuous.C.tolist(),
            "D": continuous.D.tolist(),
        }
    return out


def model_from_json_dict(
    d: dict,
) -> tuple[DiscreteLinearModel, dict | None, ContinuousLinearModel | None]:
    """Inverse of :func:`model_to_json_dict`.

    Returns (model, solver block, continuous realization); the last two are
    None when the payload has no such block.
    """
    dictionary = (
        LiftingDictionary.from_json_dict(d["dict"]) if d.get("dict") is not None else None
    )
    mdl = DiscreteLinearModel(
        A=np.asarray(d["A"], dtype=float),
        B=np.asarray(d["B"], dtype=float),
        C=np.asarray(d["C"], dtype=float),
        D=np.asarray(d["D"], dtype=float),
        T=float(d["T"]),
        dictionary=dictionary,
    )
    continuous = None
    if "continuous" in d:
        c = d["continuous"]
        continuous = ContinuousLinearModel(
            A=np.asarray(c["A"], dtype=float),
            B=np.asarray(c["B"], dtype=float),
            C=np.asarray(c["C"], dtype=float),
            D=np.asarray(c["D"], dtype=float),
        )
    return mdl, d.get("solver"), continuous


def save_model(path, mdl: DiscreteLinearModel, **blocks) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(mdl, **blocks), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(
    path,
) -> tuple[DiscreteLinearModel, dict | None, ContinuousLinearModel | None]:
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))


def bode_rows(c: ContinuousLinearModel, omegas: np.ndarray) -> list[tuple[float, float, float]]:
    """(omega, mag_db, phase_deg) rows for the (0, 0) transfer entry."""
    G = freq_response(c, omegas)[:, 0, 0]
    mags = 20.0 * np.log10(np.maximum(np.abs(G), np.finfo(float).tiny))
    phases = np.degrees(np.angle(G))
    return [(float(w), float(m), float(p)) for w, m, p in zip(omegas, mags, phases)]


def nyquist_rows(c: ContinuousLinearModel, omegas: np.ndarray) -> list[tuple[float, float, float]]:
    """(omega, re, im) rows for the (0, 0) transfer entry."""
    G = freq_response(c, omegas)[:, 0, 0]
    return [(float(w), float(g.real), float(g.imag)) for w, g in zip(omegas, G)]
