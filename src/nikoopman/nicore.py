"""Negative-imaginary model machinery.

A square LTI system G(s) = C (sI - A)^-1 B + D is negative imaginary (NI)
when j (G(jw) - G(jw)*) >= 0 for w > 0; for SISO systems this is the phase
staying inside (-180 deg, 0 deg).  The state-space certificate is a real
P > 0 with A P + P A' <= 0 and B = -A P C'.  This module provides

* the bilinear map between discrete and continuous realizations that
  transports that certificate to A_d P A_d' - P <= 0 and the matching B_d
  equality,
* the factors of that B_d equality, shared by the residual check and the
  certificate completion,
* residual evaluation of those discrete conditions for a given P,
* the linear state recursion of a discrete realization,
* grid-based frequency-domain NI checks,
* the strictly-NI positive-position-feedback (PPF) controller
  K / (s^2 + 2 zeta w s + w^2) and the positive-feedback interconnection
  with a strictly proper controller, with its DC-gain coupling number
  lambda_max(G(0) Gbar(0)),
* JSON serialization of models (:func:`save_model`, :func:`load_model`).

Grid checks are necessary conditions evaluated on a finite grid; the LMI
residual path is the certificate of record.  Reports carry both.
"""

from __future__ import annotations

import json
import math
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
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"sampling time must be positive and finite, got {self.T}")

    @property
    def order(self) -> int:
        return self.A.shape[0]


def linear_recursion(A: np.ndarray, B: np.ndarray, x0, inputs: np.ndarray) -> np.ndarray:
    """States x_0 = x0, x_{j+1} = A x_j + B u_j along the rows u_j of ``inputs``.

    The terms B u_j of every step are written in place by one product before
    the recursion adds A x_j; with one input each entry is a single product,
    so the states equal those of the step-by-step recursion bit for bit.
    """
    states = np.empty((inputs.shape[0] + 1, A.shape[0]))
    states[0] = x0
    np.matmul(inputs, B.T, out=states[1:])
    for x, nxt in zip(states, states[1:]):
        nxt += A @ x
    return states


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


MATRICES = ("A", "B", "C", "D")  # the realization arrays, in model and JSON alike


def _check_dims(mdl) -> None:
    for name in MATRICES:
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

    Raises:
        ValueError: T not positive and finite.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"sampling time must be positive and finite, got {T}")
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
    b_eq_gap: Frobenius gap in the B_d equality; must be <= tol.
    p_min_eig: lambda_min(P); must be >= -tol.
    certified: all three hold, with tol = ``TOL.ni_residual``.
    """

    lyap_max_eig: float
    b_eq_gap: float
    p_min_eig: float
    certified: bool


def ni_input_factors(A: np.ndarray, C: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors (M, v) of the NI input equality B_d(P) = M P v.

    The equality B_d = -(1/T)(A_d - I) P (I + A_d')^-1 C_d' is linear in the
    certificate P, with M = -(1/T)(A_d - I) and v = (I + A_d')^-1 C_d'.

    Raises:
        SingularMatrixError: I + A_d is singular.
    """
    eye = np.eye(A.shape[0])
    return -(1.0 / T) * (A - eye), matcore.solve((eye + A).T, C.T)


def discrete_ni_residuals(mdl: DiscreteLinearModel, P: np.ndarray) -> NiResiduals:
    """Evaluate the discrete NI conditions for a candidate certificate P.

    The model is certified NI when P is positive semidefinite, the Lyapunov
    inequality holds and B_d meets the NI equality, each within
    ``TOL.ni_residual``.
    """
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    if P.shape != mdl.A.shape:
        raise ValueError(f"P shape {P.shape} does not match A {mdl.A.shape}")
    lyap = mdl.A @ P @ mdl.A.T - P
    lyap_max = float(matcore.sym_eig(lyap).eigenvalues[0])
    p_min = float(matcore.sym_eig(P).eigenvalues[-1])
    M, v = ni_input_factors(mdl.A, mdl.C, mdl.T)
    b_gap = float(np.linalg.norm(mdl.B - M @ P @ v))
    tol = TOL.ni_residual
    certified = lyap_max <= tol and p_min >= -tol and b_gap <= tol
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
    is below :func:`matcore.pivot_floor` of ``||jw I - A||_inf``, the test of
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
        pivot_min = matcore.pivot_floor(np.linalg.norm(M, np.inf, axis=(1, 2)))
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
    response: np.ndarray | None = None,
) -> FrequencyNiCheck:
    """Grid-based NI test: lambda_min(j(G(jw) - G(jw)*)) >= -TOL.ni_freq for all w > 0.

    For SISO models the tested quantity reduces to -2 Im G(jw), so the
    verdict matches the phase-in-(-180, 0) reading.  Necessary, not
    sufficient: a finite grid cannot prove the property.  ``response``, when
    given, is :func:`freq_response` on the positive frequencies of the grid,
    already computed by the caller.
    """
    if c.B.shape[1] != c.C.shape[0]:
        raise ValueError("NI check requires a square model (l == m)")
    if omegas is None:
        omegas = default_frequency_grid()
    omegas = np.asarray(omegas, dtype=float)
    omegas = omegas[omegas > 0]
    if omegas.size == 0:
        raise ValueError("NI check needs a grid with at least one positive frequency")
    G = freq_response(c, omegas) if response is None else response
    # j(G - G*) is Hermitian; take its real eigenvalues, one stacked call
    eig_min = np.linalg.eigvalsh(1j * (G - G.conj().transpose(0, 2, 1))).min(axis=1)
    k = int(np.argmin(eig_min))
    worst, worst_w = float(eig_min[k]), float(omegas[k])
    return FrequencyNiCheck(
        min_eig_over_grid=worst, worst_omega=worst_w, is_ni=worst >= -TOL.ni_freq
    )


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

    The controller must be strictly proper (Dbar = 0), as the PPF controller
    is; the NI stability theorem is stated for G(inf) Gbar(inf) = 0, and the
    loop then has no algebraic part:

        A_cl = [[A, B Cbar], [Bbar C, Abar + Bbar D Cbar]],
        B_cl = [B; Bbar D],  C_cl = [C, D Cbar],  D_cl = D.

    Returns the r -> y realization together with
    lambda_max(G(0) Gbar(0)), the coupling number whose being < 1 is the
    NI/SNI internal-stability condition.

    Raises:
        ValueError: controller I/O dimensions that do not mirror the plant,
            or a controller feedthrough Dbar that is not zero.
    """
    l, m = plant.C.shape[0], plant.B.shape[1]
    if ctrl.B.shape[1] != l or ctrl.C.shape[0] != m:
        raise ValueError("controller I/O dimensions must mirror the plant")
    if np.any(ctrl.D):
        raise ValueError("the controller must be strictly proper (Dbar = 0)")
    A_cl = np.block(
        [
            [plant.A, plant.B @ ctrl.C],
            [ctrl.B @ plant.C, ctrl.A + ctrl.B @ plant.D @ ctrl.C],
        ]
    )
    B_cl = np.vstack([plant.B, ctrl.B @ plant.D])
    C_cl = np.hstack([plant.C, plant.D @ ctrl.C])
    g0 = dc_gain(plant) @ dc_gain(ctrl)
    if g0.shape == (1, 1):
        lam = float(g0[0, 0])
    else:
        lam = float(np.max(np.linalg.eigvals(g0).real))
    closed = ContinuousLinearModel(A=A_cl, B=B_cl, C=C_cl, D=plant.D.copy())
    return PositiveFeedback(model=closed, dc_gain_lambda_max=lam)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON indented by 2, keys sorted, with a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(
    path,
    mdl: DiscreteLinearModel,
    solver: dict | None = None,
    config: dict | None = None,
    continuous: ContinuousLinearModel | None = None,
) -> None:
    """Write a discrete model as JSON (row-major arrays).

    Optional blocks: ``solver`` diagnostics (including the certificate P),
    the resolved run ``config`` and a ``continuous`` realization.
    """
    payload = {
        "T": mdl.T,
        **{k: getattr(mdl, k).tolist() for k in MATRICES},
        "dict": mdl.dictionary.to_json_dict() if mdl.dictionary is not None else None,
    }
    if solver is not None:
        payload["solver"] = solver
    if config is not None:
        payload["config"] = config
    if continuous is not None:
        payload["continuous"] = {k: getattr(continuous, k).tolist() for k in MATRICES}
    write_json(path, payload)


def load_model(
    path,
) -> tuple[DiscreteLinearModel, dict | None, ContinuousLinearModel | None]:
    """Inverse of :func:`save_model`.

    Returns (model, solver block, continuous realization); the last two are
    None when the file has no such block.
    """
    with open(path) as fh:
        d = json.load(fh)
    dictionary = (
        LiftingDictionary.from_json_dict(d["dict"]) if d.get("dict") is not None else None
    )
    mdl = DiscreteLinearModel(
        **{k: d[k] for k in MATRICES}, T=float(d["T"]), dictionary=dictionary
    )
    continuous = None
    if "continuous" in d:
        continuous = ContinuousLinearModel(**{k: d["continuous"][k] for k in MATRICES})
    return mdl, d.get("solver"), continuous


def bode_columns(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude in dB and phase in degrees of transfer values G(jw)."""
    mags = 20.0 * np.log10(np.maximum(np.abs(G), np.finfo(float).tiny))
    return mags, np.degrees(np.angle(G))
