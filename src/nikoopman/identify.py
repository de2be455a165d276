"""Lifted linear identification: plain least squares and the NI-constrained fit.

The unconstrained fit is the usual snapshot least squares

    [G_A G_B] = ThetaPlus [Theta; Omega]' ([Theta; Omega] [Theta; Omega]')^+,
    C_d       = Y Theta^+ .

The NI-constrained fit keeps C_d and reshapes the dynamics fit into a
convex program over (P, Q, B_d) with Q = A_d P:

    minimize   || G_A P - Q ||_F^2  + || G_B - B_d ||_F^2
    subject to [[P - alpha I, Q], [Q', P]] >= 0,

whose constraint is the Schur form of P >= alpha I and
A_d P A_d' - P <= -alpha I.  The data enter only through (G_A, G_B): with
[Theta; Omega] full row rank, the residual against the snapshots collapses
to the expression above.  B_d appears in no constraint, so its block
minimizes at G_B independently, and :func:`solve_ni` solves the (P, Q)
program in G_A alone.  :func:`identify_ni` takes B_d = G_B, or, in strict
mode, recomputes B_d from the NI state-space equality after A_d and C_d are
fixed, re-selecting the certificate P inside its feasible set so the
equality matches the data.

The semidefinite program is solved by a dense ADMM: an exact quadratic
X-update in (P, Q) (assembled once per step size, applied via a cached
eigenbasis), a PSD cone projection for the splitting variable, and a scaled
dual update.
A_d is recovered as Q P^-1.  The strict-mode certificate re-selection is a
small semidefinite least-squares program in P alone, solved exactly by the
log-barrier method of :mod:`nikoopman.sdp`.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import matcore, nicore, sdp
from .dynamics import TrajectoryData
from .lifting import DataMatrices, LiftingDictionary, build_matrices
from .nicore import DiscreteLinearModel
from .tolerances import TOL


class DegenerateDataError(ValueError):
    """Snapshot Gram matrix is numerically zero (no excitation)."""


class RankDeficientError(ValueError):
    """[Theta; Omega] is not full row rank, the cost reduction is invalid."""


class SingularPError(RuntimeError):
    """Recovered P is numerically singular."""

    def __init__(self, p_min_eig: float):
        self.p_min_eig = p_min_eig
        super().__init__(f"P singular at recovery (lambda_min = {p_min_eig:.3e})")


# ---------------------------------------------------------------------------
# unconstrained least squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdmdSolution:
    """Unconstrained snapshot least-squares fit."""

    G_A: np.ndarray = field(repr=False)  # (N, N)
    G_B: np.ndarray = field(repr=False)  # (N, m)
    C_d: np.ndarray = field(repr=False)  # (l, N)
    residual_j1: float
    residual_j2: float
    gram: np.ndarray = field(repr=False)  # (N + m, N + m), [Theta; Omega] [Theta; Omega]'


def edmd_fit(dm: DataMatrices) -> EdmdSolution:
    """Least-squares lifted dynamics and output map from snapshot matrices.

    Warns when the number of snapshots is below the lifted regression width.

    Raises:
        DegenerateDataError: zero Gram matrix (no informative data).
    """
    Z = np.vstack([dm.Theta, dm.Omega])
    N = dm.Theta.shape[0]
    if dm.L < Z.shape[0]:
        warnings.warn(
            f"only L={dm.L} snapshots for a width-{Z.shape[0]} regression; "
            "the fit is underdetermined",
            stacklevel=2,
        )
    gram = Z @ Z.T
    if not np.any(np.abs(gram) > np.finfo(float).tiny):
        raise DegenerateDataError("snapshot Gram matrix is zero")
    G = dm.ThetaPlus @ Z.T @ matcore.pinv(gram)
    C_d = dm.Y @ matcore.pinv(dm.Theta)
    r1 = float(np.linalg.norm(dm.ThetaPlus - G @ Z) ** 2)
    r2 = float(np.linalg.norm(dm.Y - C_d @ dm.Theta) ** 2)
    return EdmdSolution(
        G_A=G[:, :N], G_B=G[:, N:], C_d=C_d, residual_j1=r1, residual_j2=r2, gram=gram
    )


# ---------------------------------------------------------------------------
# reduced objective
# ---------------------------------------------------------------------------


def objective(G_A: np.ndarray, P: np.ndarray, Q: np.ndarray) -> float:
    """The program's dynamics cost ||G_A P - Q||_F^2 (B_d = G_B adds nothing)."""
    return float(np.linalg.norm(G_A @ P - Q) ** 2)


# ---------------------------------------------------------------------------
# ADMM solver
# ---------------------------------------------------------------------------

RHO_INIT = 1.0  # initial ADMM step size


@dataclass(frozen=True)
class NiProgramSolution:
    """Solver output: certificate variables, recovered dynamics, diagnostics."""

    P: np.ndarray
    # repr=False: not saved in the model JSON (see nicore.json_value)
    Q: np.ndarray = field(repr=False)
    A_d: np.ndarray = field(repr=False)
    iterations: int
    primal_res: float
    dual_res: float
    objective: float
    lmi_min_eig: float
    converged: bool
    completion: CertificateCompletion | None = None


def _lmi_block(P: np.ndarray, Q: np.ndarray, alpha: float) -> np.ndarray:
    N = P.shape[0]
    out = np.empty((2 * N, 2 * N))
    out[:N, :N] = P - alpha * np.eye(N)
    out[:N, N:] = Q
    out[N:, :N] = Q.T
    out[N:, N:] = P
    return out


def solve_ni(
    G_A: np.ndarray,
    alpha: float = 1e-3,
    max_iters: int = 20000,
    tol: float = TOL.admm_rel,
) -> NiProgramSolution:
    """ADMM on the Schur-form NI program for the least-squares dynamics G_A.

    Splitting: X = (P, Q) with the smooth objective, Z the PSD copy of the
    block matrix S(X) = [[P - alpha I, Q], [Q', P]], scaled dual U.  The
    X-update solves the stationarity system exactly: Q eliminates in closed
    form, and P satisfies a Lyapunov-type equation diagonalized once in the
    eigenbasis of the cached quadratic form.  Z-update is the PSD projection,
    and P is nudged along the identity afterwards if round-off left the block
    marginally indefinite (the identity shift moves S(X) by exactly delta I).

    The step size is balanced on the residuals (Boyd et al. 2011, sec. 3.4.1):
    every 50 iterations rho doubles when the primal residual exceeds ten times
    the dual one and halves in the opposite case, within [1e-6, 1e6], and the
    scaled dual is divided by the same factor.

    The run stops when both residuals are within ``tol`` times the block
    scale, or after ``max_iters`` iterations.  Never raises on slow
    convergence; the returned ``converged`` flag and residuals describe the
    stop.

    Raises:
        ValueError: alpha not positive and finite, or max_iters below 1.
        SingularPError: P numerically singular when recovering A_d = Q P^-1.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    G_A = np.atleast_2d(np.asarray(G_A, dtype=float))
    rho = RHO_INIT
    N = G_A.shape[0]
    eye = np.eye(N)
    G_C = np.ascontiguousarray(G_A)  # G_A may be a column slice of [G_A G_B]

    def factorize(rho):
        # cached pieces of the exact X-update for the current step size; the
        # inverse (I + rho I)^-1 is the scalar f, and every matmul operand is
        # C-ordered, as the matrix products these replace had them
        f = 1.0 / (1.0 + rho)
        H = np.multiply(rho * G_A.T, f, order="C") @ G_A
        eig = matcore.sym_eig(H)
        denom = eig.eigenvalues[:, None] + eig.eigenvalues[None, :] + 2.0 * rho
        return f, np.multiply(G_A.T, f, order="C"), eig.eigenvectors, denom

    f, GtV, UH, denom = factorize(rho)

    Z = matcore.psd_project(_lmi_block(eye, G_A, alpha))
    U = np.zeros((2 * N, 2 * N))
    alpha_eye = alpha * eye

    # one workspace, refilled in place every iteration in the order of the
    # formulas; P and Q stay contiguous for their products, and the residual
    # norms are the ddot of each flat buffer with itself.  The products call
    # np.dot, the BLAS dgemm/ddot of @ without the matmul gufunc's dispatch;
    # its out= must be C-contiguous float64, as these buffers are.  No operand
    # may be copied into another layout: that can change the bits
    M = np.empty((2 * N, 2 * N))  # Z - U
    M11, M12, M22 = M[:N, :N], M[:N, N:], M[N:, N:]
    SX = np.empty((2 * N, 2 * N))  # the LMI block S(X)
    SX11, SX12, SX21, SX22 = SX[:N, :N], SX[:N, N:], SX[N:, :N], SX[N:, N:]
    A = np.empty((2 * N, 2 * N))  # S(X) + U, the point projected
    step = np.empty((2 * N, 2 * N))  # S(X) - Z_new
    dZ = np.empty((2 * N, 2 * N))  # Z_new - Z
    P, Q, R, cross, W1, W2 = (np.empty((N, N)) for _ in range(6))  # W1, W2: scratch
    sx, st, dz = SX.ravel(), step.ravel(), dZ.ravel()

    def dual_res():
        # rho ||Z_new - Z||, formed only where it is read: by the stop test
        # once the primal residual has passed, by the step-size balancing and
        # by the returned record
        np.subtract(Z, Z_prev, out=dZ)
        return rho * math.sqrt(dz.dot(dz))

    primal = dual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        np.subtract(Z, U, out=M)
        np.dot(GtV, M12, out=cross)
        # R = rho * (alpha I + M11 + M22 + cross + cross')
        np.add(alpha_eye, M11, out=R)
        R += M22
        R += cross
        R += cross.T
        R *= rho
        # P = UH ((UH' R UH) / denom) UH', symmetrized
        np.dot(UH.T, R, out=W1)
        np.dot(W1, UH, out=W2)
        W2 /= denom
        np.dot(UH, W2, out=W1)
        np.dot(W1, UH.T, out=W2)
        np.add(W2, W2.T, out=P)
        P *= 0.5
        # Q = f (G_A P + rho M12)
        np.dot(G_C, P, out=Q)
        np.multiply(M12, rho, out=W1)
        Q += W1
        Q *= f

        np.subtract(P, alpha_eye, out=SX11)
        SX12[...] = Q
        SX21[...] = Q.T
        SX22[...] = P
        np.add(SX, U, out=A)
        Z_prev, Z = Z, matcore.psd_project(A)
        np.subtract(SX, Z, out=step)
        primal = math.sqrt(st.dot(st))
        dual = None
        U += step
        z = Z.ravel()
        scale = max(1.0, math.sqrt(sx.dot(sx)), math.sqrt(z.dot(z)))
        if primal <= tol * scale:
            dual = dual_res()
            if dual <= tol * scale:
                converged = True
                break
        if iterations % 50 == 0:
            if dual is None:
                dual = dual_res()
            if primal > 10.0 * dual and rho < 1e6:
                factor = 2.0
            elif dual > 10.0 * primal and rho > 1e-6:
                factor = 0.5
            else:
                continue
            rho *= factor
            U /= factor
            f, GtV, UH, denom = factorize(rho)
    if dual is None:
        dual = dual_res()

    # post-hoc feasibility: shifting P by delta I moves the whole block by
    # exactly delta I, so one shift restores lambda_min >= 0
    lmi_min = float(matcore.sym_eig(_lmi_block(P, Q, alpha)).eigenvalues[-1])
    if lmi_min < 0.0:
        P = P + (-lmi_min) * eye
        lmi_min = float(matcore.sym_eig(_lmi_block(P, Q, alpha)).eigenvalues[-1])

    p_min = float(matcore.sym_eig(P).eigenvalues[-1])
    if p_min <= TOL.solve_pivot * max(float(np.linalg.norm(P)), 1.0):
        raise SingularPError(p_min)
    A_d = matcore.solve(P, Q.T).T

    return NiProgramSolution(
        P=P,
        Q=Q,
        A_d=A_d,
        iterations=iterations,
        primal_res=primal,
        dual_res=dual,
        objective=objective(G_A, P, Q),
        lmi_min_eig=lmi_min,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# certificate completion (strict input matrix)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateCompletion:
    """Data-optimal certificate P for a fixed A_d, with the matching B_d.

    ``iterations`` counts Newton steps, ``gap`` is the final duality-gap bound
    of the barrier solve and ``converged`` says whether it reached its target
    (see :mod:`nikoopman.sdp`).  ``bound_active`` says that tr P ended on the
    trace bound R (within ``TOL.bound_active_rel`` * R): P is then the optimum
    of the bounded program, and a larger R could fit G_B better.
    """

    P: np.ndarray = field(repr=False)
    B_d: np.ndarray = field(repr=False)
    b_fit_rel: float
    iterations: int
    gap: float
    converged: bool
    bound_active: bool


def complete_certificate(
    A_d: np.ndarray,
    C_d: np.ndarray,
    G_B: np.ndarray,
    T: float,
    alpha: float,
) -> CertificateCompletion:
    """Pick the NI certificate that best explains the measured input response.

    For fixed A_d the certificate set {P > alpha I, A_d P A_d' - P < -alpha I}
    is convex and generally not a single point; the input matrix implied by
    the NI equality, B_d(P) = -(1/T)(A_d - I) P (I + A_d')^-1 C_d', is linear
    in P (:func:`nicore.ni_input_factors`).  This solves

        minimize  || B_d(P) - G_B ||_F^2   over the certificate set

    exactly, by the log-barrier method of :mod:`nikoopman.sdp` on the
    coordinates of P in an orthonormal basis of symmetric matrices.  Every
    iterate is strictly feasible, so the cones sit at alpha itself, with no
    extra margin.  The start P_0 is the solution of P - A_d P A_d' = 2 alpha I,
    scaled up to its least-squares multiple when that is larger (c P_0 stays
    strictly feasible for every c >= 1).  The B_d map has a null space, which
    the bound tr P < 1e3 tr P_0 closes.  The bound is far from the optimum
    where the NI equality explains the data (tr P <= 9 against a bound of
    about 180 on the README data), but it can bind on data that the equality
    cannot fit well, and ``bound_active`` then says so.  P is not unique (the
    null space), but B_d and ``b_fit_rel`` are.

    Raises:
        ValueError: the start P_0 is not strictly feasible, i.e. A_d admits no
            certificate at this alpha.
    """
    N = A_d.shape[0]
    eye = np.eye(N)
    M, v = nicore.ni_input_factors(A_d, C_d, T)  # B_d(P) = M P v
    P0 = scipy.linalg.solve_discrete_lyapunov(A_d, 2.0 * alpha * eye)
    P0 = 0.5 * (P0 + P0.T)
    B0 = M @ P0 @ v
    P0 *= max(1.0, float(np.sum(B0 * G_B)) / max(float(np.sum(B0 * B0)), np.finfo(float).tiny))
    if not np.all(np.isfinite(P0)) or min(
        np.linalg.eigvalsh(P0 - alpha * eye)[0],
        np.linalg.eigvalsh(P0 - A_d @ P0 @ A_d.T - alpha * eye)[0],
    ) <= 0.0:
        raise ValueError(
            "certificate completion needs a Schur-stable A_d: the Lyapunov start "
            f"P_0 is not strictly inside the certificate set at alpha={alpha:g}"
        )

    # orthonormal (Frobenius) basis of symmetric matrices, one flattened row each
    iu, ju = np.triu_indices(N)
    K = iu.size
    basis = np.zeros((K, N, N))
    weight = np.where(iu == ju, 1.0, np.sqrt(0.5))
    basis[np.arange(K), iu, ju] = weight
    basis[np.arange(K), ju, iu] = weight
    basis = basis.reshape(K, N * N)

    L = np.kron(M, v.T) @ basis.T  # vec(B_d(P)) in basis coordinates
    lyap_map = np.eye(N * N) - np.kron(A_d, A_d)  # vec(P - A P A') = lyap_map vec(P)
    cone = -alpha * eye
    R = 1e3 * np.trace(P0)
    res = sdp.minimize_lsq(
        L,
        G_B.ravel(),
        [(cone, basis), (cone, basis @ lyap_map.T)],
        (basis @ eye.ravel(), R),
        basis @ P0.ravel(),
    )
    P = (res.x @ basis).reshape(N, N)
    B_d = M @ P @ v
    rel = float(np.linalg.norm(B_d - G_B) / max(np.linalg.norm(G_B), np.finfo(float).tiny))
    return CertificateCompletion(
        P=P,
        B_d=B_d,
        b_fit_rel=rel,
        iterations=res.steps,
        gap=res.gap,
        converged=res.converged,
        bound_active=bool(R - np.trace(P) <= TOL.bound_active_rel * R),
    )


# ---------------------------------------------------------------------------
# end-to-end identification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentificationResult:
    model: DiscreteLinearModel
    ni: NiProgramSolution | None
    edmd: EdmdSolution


def _result(traj: TrajectoryData, dictionary: LiftingDictionary, sol: EdmdSolution,
            A_d: np.ndarray, B_d: np.ndarray, ni=None) -> IdentificationResult:
    # the model psi+ = A_d psi + B_d u, y = C_d psi, with no feedthrough
    D = np.zeros((sol.C_d.shape[0], B_d.shape[1]))
    model = DiscreteLinearModel(A=A_d, B=B_d, C=sol.C_d, D=D, T=traj.T, dictionary=dictionary)
    return IdentificationResult(model=model, ni=ni, edmd=sol)


def identify_unconstrained(
    traj: TrajectoryData, dictionary: LiftingDictionary
) -> IdentificationResult:
    """Plain lifted least-squares model (no NI constraint, no certificate)."""
    sol = edmd_fit(build_matrices(traj, dictionary))
    return _result(traj, dictionary, sol, sol.G_A, sol.G_B)


def identify_ni(
    traj: TrajectoryData,
    dictionary: LiftingDictionary,
    alpha: float = 1e-3,
    strict_b: bool = False,
    max_iters: int = 20000,
) -> IdentificationResult:
    """Full pipeline: snapshots -> least squares -> NI program -> model.

    ``alpha`` and ``max_iters`` go to :func:`solve_ni`.  The model has no
    feedthrough.  With ``strict_b`` the input matrix is recomputed from the
    NI state-space equality B_d = -(1/T)(A_d - I) P (I + A_d')^-1 C_d' after
    A_d and C_d are fixed, instead of being the least-squares G_B.
    The certificate P entering that equality is not unique; it is re-selected
    from the certificate set by :func:`complete_certificate` so the implied
    B_d tracks the measured input response, the solution's (P, Q) are
    replaced by the completed pair (Q = A_d P keeps the recovery exact), and
    the solution's ``completion`` is the completion's record.
    """
    sol = edmd_fit(build_matrices(traj, dictionary))
    # the cost reduction to (G_A, G_B) needs [Theta; Omega] of full row rank
    eigs = matcore.sym_eig(sol.gram).eigenvalues
    if eigs[-1] <= TOL.rank_rel * max(eigs[0], np.finfo(float).tiny):
        raise RankDeficientError(
            f"[Theta; Omega] row-rank deficient (Gram eigs {eigs[-1]:.3e} vs {eigs[0]:.3e})"
        )
    ni = solve_ni(sol.G_A, alpha=alpha, max_iters=max_iters)
    if not strict_b:
        return _result(traj, dictionary, sol, ni.A_d, sol.G_B, ni)
    comp = complete_certificate(ni.A_d, sol.C_d, sol.G_B, traj.T, alpha)
    Q = ni.A_d @ comp.P
    # converged still reports the Problem-2 solve; the completion stage
    # carries its own flag in the completion record
    ni = dataclasses.replace(
        ni,
        P=comp.P,
        Q=Q,
        objective=objective(sol.G_A, comp.P, Q),
        lmi_min_eig=float(matcore.sym_eig(_lmi_block(comp.P, Q, alpha)).eigenvalues[-1]),
        completion=comp,
    )
    return _result(traj, dictionary, sol, ni.A_d, comp.B_d, ni)


# ---------------------------------------------------------------------------
# lifted simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedSimulation:
    """Linear recursion of a lifted model along an input sequence."""

    states: np.ndarray  # (L+1, n), native coordinates
    outputs: np.ndarray  # (L+1, l)


def simulate_lifted(mdl: DiscreteLinearModel, x0, inputs: np.ndarray) -> LiftedSimulation:
    """Iterate psi+ = A psi + B u from psi0 = lift(x0) along the rows of an (L, m) table; y = C psi.

    Requires the model to carry its lifting dictionary.  The native-state
    track is the leading block of the lifted state.
    """
    if mdl.dictionary is None:
        raise ValueError("model carries no lifting dictionary")
    psi = nicore.linear_recursion(mdl.A, mdl.B, mdl.dictionary.lift(x0), inputs)
    outputs = psi @ mdl.C.T
    return LiftedSimulation(states=psi[:, : mdl.dictionary.n], outputs=outputs)
