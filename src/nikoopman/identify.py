"""Lifted linear identification: plain least squares and the NI-constrained fit.

The unconstrained fit is the usual snapshot least squares

    [G_A G_B] = ThetaPlus [Theta; Omega]' ([Theta; Omega] [Theta; Omega]')^+,
    C_d       = Y Theta^+ .

The NI-constrained fit keeps C_d and reshapes the dynamics fit into a
convex program over (P, Q, B_d) with Q = A_d P:

    minimize   || W (G_A P - Q) ||_F^2  + || W (G_B - B_d) ||_F^2
    subject to [[P - alpha I, Q], [Q', P]] >= 0,

whose constraint is the Schur form of P >= alpha I and
A_d P A_d' - P <= -alpha I.  The data enter only through (G_A, G_B): with
[Theta; Omega] full row rank, the weighted residual against the snapshots
collapses to the expression above.  B_d appears in no constraint, so its
block minimizes at G_B independently; a strict mode instead recomputes B_d
from the NI state-space equality after A_d and C_d are fixed, re-selecting
the certificate P inside its feasible set so the equality matches the data.

The semidefinite program is solved by a dense ADMM: an exact quadratic
X-update in (P, Q) (assembled once, applied via a cached eigenbasis), a PSD
cone projection for the splitting variable, and a scaled dual update.
A_d is recovered as Q P^-1.  The strict-mode certificate re-selection is a
small semidefinite least-squares program in P alone, solved exactly by the
log-barrier method of :mod:`nikoopman.sdp`.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matcore, sdp
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

    G_A: np.ndarray  # (N, N)
    G_B: np.ndarray  # (N, m)
    C_d: np.ndarray  # (l, N)
    residual_j1: float
    residual_j2: float


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
    return EdmdSolution(G_A=G[:, :N], G_B=G[:, N:], C_d=C_d, residual_j1=r1, residual_j2=r2)


# ---------------------------------------------------------------------------
# reduced objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedCost:
    """Weighted objective of the convex program, reduced to (G_A, G_B)."""

    W: np.ndarray
    G_A: np.ndarray
    G_B: np.ndarray

    def objective(self, P: np.ndarray, Q: np.ndarray, B_d: np.ndarray | None = None) -> float:
        val = float(np.linalg.norm(self.W @ (self.G_A @ P - Q)) ** 2)
        if B_d is not None:
            val += float(np.linalg.norm(self.W @ (self.G_B - B_d)) ** 2)
        return val


def reduce_cost(sol: EdmdSolution, W: np.ndarray | None, dm: DataMatrices) -> ReducedCost:
    """Validate the full-row-rank premise and build the reduced objective.

    Raises:
        RankDeficientError: smallest Gram eigenvalue of [Theta; Omega] below
            TOL.rank_rel times the largest.
    """
    Z = np.vstack([dm.Theta, dm.Omega])
    eigs = matcore.sym_eig(Z @ Z.T).eigenvalues
    if eigs[-1] <= TOL.rank_rel * max(eigs[0], np.finfo(float).tiny):
        raise RankDeficientError(
            f"[Theta; Omega] row-rank deficient (Gram eigs {eigs[-1]:.3e} vs {eigs[0]:.3e})"
        )
    N = sol.G_A.shape[0]
    W = np.eye(N) if W is None else np.asarray(W, dtype=float)
    return ReducedCost(W=W, G_A=sol.G_A, G_B=sol.G_B)


# ---------------------------------------------------------------------------
# ADMM solver
# ---------------------------------------------------------------------------

RHO_INIT = 1.0  # initial ADMM step size


def _balance_factor(iterations: int, primal: float, dual: float, rho: float) -> float:
    """Residual-balancing step-size factor (Boyd et al. 2011, sec. 3.4.1).

    Every 50 iterations the step size doubles when the primal residual exceeds
    ten times the dual one and halves in the opposite case, within
    [1e-6, 1e6]; otherwise the factor is 1.  The caller multiplies rho by the
    factor and divides the scaled dual by it.
    """
    if iterations % 50:
        return 1.0
    if primal > 10.0 * dual and rho < 1e6:
        return 2.0
    if dual > 10.0 * primal and rho > 1e-6:
        return 0.5
    return 1.0


@dataclass(frozen=True)
class NiProgram:
    """Convex NI-constrained program instance plus solver configuration."""

    G_A: np.ndarray
    G_B: np.ndarray
    alpha: float = 1e-3
    W: np.ndarray | None = None
    max_iters: int = 20000
    tol: float = TOL.admm_rel

    def __post_init__(self):
        object.__setattr__(self, "G_A", np.atleast_2d(np.asarray(self.G_A, dtype=float)))
        object.__setattr__(self, "G_B", np.atleast_2d(np.asarray(self.G_B, dtype=float)))
        if self.W is not None:
            object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True)
class NiProgramSolution:
    """Solver output: certificate variables, recovered dynamics, diagnostics."""

    P: np.ndarray
    Q: np.ndarray
    B_d: np.ndarray
    A_d: np.ndarray
    iterations: int
    primal_res: float
    dual_res: float
    objective: float
    lmi_min_eig: float
    converged: bool
    completion: dict | None = None


def _lmi_block(P: np.ndarray, Q: np.ndarray, alpha: float) -> np.ndarray:
    N = P.shape[0]
    out = np.empty((2 * N, 2 * N))
    out[:N, :N] = P - alpha * np.eye(N)
    out[:N, N:] = Q
    out[N:, :N] = Q.T
    out[N:, N:] = P
    return out


def solve_ni(prog: NiProgram) -> NiProgramSolution:
    """ADMM on the Schur-form NI program.

    Splitting: X = (P, Q) with the smooth objective, Z the PSD copy of the
    block matrix S(X) = [[P - alpha I, Q], [Q', P]], scaled dual U.  The
    X-update solves the stationarity system exactly: Q eliminates in closed
    form, and P satisfies a Lyapunov-type equation diagonalized once in the
    eigenbasis of the cached quadratic form.  Z-update is the PSD projection,
    and P is nudged along the identity afterwards if round-off left the block
    marginally indefinite (the identity shift moves S(X) by exactly delta I).

    Never raises on slow convergence; the returned ``converged`` flag and
    residuals describe the stop.  B_d is G_B by construction.

    Raises:
        SingularPError: P numerically singular when recovering A_d = Q P^-1.
    """
    G_A, alpha, rho = prog.G_A, prog.alpha, RHO_INIT
    N = G_A.shape[0]
    eye = np.eye(N)
    W = eye if prog.W is None else prog.W
    V = W.T @ W

    VG = V @ G_A

    def factorize(rho):
        # cached pieces of the exact X-update for the current step size
        F = matcore.solve(V + rho * eye, eye)  # (V + rho I)^-1
        Vt = V @ F
        Vt = 0.5 * (Vt + Vt.T)
        H = rho * G_A.T @ Vt @ G_A
        eig = matcore.sym_eig(0.5 * (H + H.T))
        denom = eig.eigenvalues[:, None] + eig.eigenvalues[None, :] + 2.0 * rho
        return F, G_A.T @ Vt, eig.eigenvectors, denom

    F, GtV, UH, denom = factorize(rho)

    P = eye.copy()
    Q = G_A.copy()
    Z = matcore.psd_project(_lmi_block(P, Q, alpha))
    U = np.zeros((2 * N, 2 * N))
    alpha_eye = alpha * eye
    SX = np.empty((2 * N, 2 * N))  # the LMI block S(X), refilled every iteration

    primal = dual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, prog.max_iters + 1):
        M = Z - U
        M11, M12, M22 = M[:N, :N], M[:N, N:], M[N:, N:]
        cross = GtV @ M12
        R = rho * (alpha_eye + M11 + M22 + cross + cross.T)
        P = UH @ ((UH.T @ R @ UH) / denom) @ UH.T
        P = 0.5 * (P + P.T)
        Q = F @ (VG @ P + rho * M12)

        np.subtract(P, alpha_eye, out=SX[:N, :N])
        SX[:N, N:] = Q
        SX[N:, :N] = Q.T
        SX[N:, N:] = P
        Z_new = matcore.psd_project(SX + U)
        step = SX - Z_new
        primal = float(np.linalg.norm(step))
        dual = float(rho * np.linalg.norm(Z_new - Z))
        U += step
        Z = Z_new
        scale = max(1.0, float(np.linalg.norm(SX)), float(np.linalg.norm(Z)))
        if primal <= prog.tol * scale and dual <= prog.tol * scale:
            converged = True
            break
        factor = _balance_factor(iterations, primal, dual, rho)
        if factor != 1.0:
            rho *= factor
            U /= factor
            F, GtV, UH, denom = factorize(rho)

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

    cost = ReducedCost(W=W, G_A=G_A, G_B=prog.G_B)
    return NiProgramSolution(
        P=P,
        Q=Q,
        B_d=prog.G_B.copy(),
        A_d=A_d,
        iterations=iterations,
        primal_res=primal,
        dual_res=dual,
        objective=cost.objective(P, Q),
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

    P: np.ndarray
    B_d: np.ndarray
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
    in P.  This solves

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
    M = -(1.0 / T) * (A_d - eye)
    v = matcore.solve((eye + A_d).T, C_d.T)  # (N, l)
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
class IdentifyConfig:
    """Configuration of the NI-constrained identification."""

    alpha: float = 1e-3
    W: np.ndarray | None = None
    strict_b: bool = False
    max_iters: int = 20000


@dataclass(frozen=True)
class IdentificationResult:
    model: DiscreteLinearModel
    ni: NiProgramSolution | None
    edmd: EdmdSolution


def identify_unconstrained(
    traj: TrajectoryData, dictionary: LiftingDictionary
) -> IdentificationResult:
    """Plain lifted least-squares model (no NI constraint, no certificate)."""
    dm = build_matrices(traj, dictionary)
    sol = edmd_fit(dm)
    model = DiscreteLinearModel(
        A=sol.G_A,
        B=sol.G_B,
        C=sol.C_d,
        D=np.zeros((sol.C_d.shape[0], sol.G_B.shape[1])),
        T=traj.T,
        dictionary=dictionary,
    )
    return IdentificationResult(model=model, ni=None, edmd=sol)


def identify_ni(
    traj: TrajectoryData,
    dictionary: LiftingDictionary,
    cfg: IdentifyConfig = IdentifyConfig(),
) -> IdentificationResult:
    """Full pipeline: snapshots -> least squares -> NI program -> model.

    The model has no feedthrough.  With ``cfg.strict_b`` the input matrix is
    recomputed from the NI state-space equality
    B_d = -(1/T)(A_d - I) P (I + A_d')^-1 C_d' after A_d and C_d are fixed.
    The certificate P entering that equality is not unique; it is re-selected
    from the certificate set by :func:`complete_certificate` so the implied
    B_d tracks the measured input response, and the solution's (P, Q) are
    replaced by the completed pair (Q = A_d P keeps the recovery exact).
    """
    dm = build_matrices(traj, dictionary)
    sol = edmd_fit(dm)
    reduce_cost(sol, cfg.W, dm)  # validates the full-row-rank premise
    prog = NiProgram(
        G_A=sol.G_A, G_B=sol.G_B, alpha=cfg.alpha, W=cfg.W, max_iters=cfg.max_iters
    )
    ni = solve_ni(prog)
    B_d = ni.B_d
    if cfg.strict_b:
        comp = complete_certificate(ni.A_d, sol.C_d, sol.G_B, traj.T, cfg.alpha)
        B_d = comp.B_d
        Q = ni.A_d @ comp.P
        cost = ReducedCost(W=np.eye(ni.A_d.shape[0]) if cfg.W is None else cfg.W,
                           G_A=sol.G_A, G_B=sol.G_B)
        # converged still reports the Problem-2 solve; the completion stage
        # carries its own flag in the completion block
        ni = dataclasses.replace(
            ni,
            P=comp.P,
            Q=Q,
            B_d=B_d,
            objective=cost.objective(comp.P, Q),
            lmi_min_eig=float(
                matcore.sym_eig(_lmi_block(comp.P, Q, cfg.alpha)).eigenvalues[-1]
            ),
            completion={
                "b_fit_rel": comp.b_fit_rel,
                "iterations": comp.iterations,
                "gap": comp.gap,
                "converged": comp.converged,
                "bound_active": comp.bound_active,
            },
        )
    model = DiscreteLinearModel(
        A=ni.A_d,
        B=B_d,
        C=sol.C_d,
        D=np.zeros((sol.C_d.shape[0], B_d.shape[1])),
        T=traj.T,
        dictionary=dictionary,
    )
    return IdentificationResult(model=model, ni=ni, edmd=sol)


# ---------------------------------------------------------------------------
# lifted simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedSimulation:
    """Linear recursion of a lifted model along an input sequence."""

    lifted: np.ndarray  # (L+1, N)
    states: np.ndarray  # (L+1, n), native coordinates
    outputs: np.ndarray  # (L+1, l)


def simulate_lifted(mdl: DiscreteLinearModel, x0, inputs: np.ndarray) -> LiftedSimulation:
    """Iterate psi+ = A psi + B u from psi0 = lift(x0); y = C psi.

    Requires the model to carry its lifting dictionary.  The native-state
    track is the leading block of the lifted state mapped back through the
    dictionary's normalization.
    """
    if mdl.dictionary is None:
        raise ValueError("model carries no lifting dictionary")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(-1, 1)
    L = inputs.shape[0]
    psi = np.empty((L + 1, mdl.order))
    psi[0] = mdl.dictionary.lift(x0)
    for j in range(L):
        psi[j + 1] = mdl.A @ psi[j] + mdl.B @ inputs[j]
    outputs = psi @ mdl.C.T
    states = mdl.dictionary.unlift_state(psi[:, : mdl.dictionary.n])
    return LiftedSimulation(lifted=psi, states=states, outputs=outputs)
