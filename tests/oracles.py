"""Independent brute-force oracles shared by the unit and acceptance tests."""

import numpy as np

from nikoopman import matcore, nicore
from nikoopman.dynamics import NonFiniteTrajectoryError


def scalar_ni_grid_minimum(g, alpha=1.0, w=1.0, p_max=1e3, n_p=400, n_q=401, refinements=8):
    """Dense grid-search minimum of the scalar NI program.

    minimize w^2 (g p - q)^2 over the PSD set
    [[p - alpha, q], [q, p]] >= 0, i.e. p >= alpha and p (p - alpha) >= q^2.

    Log-spaced p grid up to ``p_max`` times a linear q grid, then iterative
    zooming around the best cell.  Purely evaluative; no calculus and no
    knowledge of the solver.
    """

    def best_on(p_lo, p_hi, q_lo, q_hi, log_p):
        if log_p:
            ps = np.geomspace(max(p_lo, alpha), max(p_hi, alpha * (1 + 1e-12)), n_p)
        else:
            ps = np.linspace(max(p_lo, alpha), max(p_hi, alpha), n_p)
        best = (np.inf, ps[0], 0.0)
        for p in ps:
            det_bound = p * (p - alpha)
            if det_bound < 0:
                continue
            q_cap = np.sqrt(det_bound)
            qs = np.linspace(max(q_lo, -q_cap), min(q_hi, q_cap), n_q)
            if qs.size == 0:
                continue
            vals = (w * (g * p - qs)) ** 2
            k = int(np.argmin(vals))
            if vals[k] < best[0]:
                best = (float(vals[k]), float(p), float(qs[k]))
        return best

    val, p, q = best_on(alpha, p_max, -p_max, p_max, log_p=True)
    span_p = p_max
    for _ in range(refinements):
        span_p = max(span_p / 8.0, 1e-12)
        dp = span_p
        dq = max(abs(q), 1.0) / 4.0
        cand = best_on(p - dp, p + dp, q - dq, q + dq, log_p=False)
        if cand[0] <= val:
            val, p, q = cand
    return val, p, q


def completion_barrier_oracle(A, C, G_B, T, alpha, mu=10.0, gap_rel=1e-6):
    """Certificate completion by a textbook barrier method, for comparison.

    minimize ||B(P) - G_B||_F^2, B(P) = -(1/T)(A - I) P (I + A')^-1 C', over
    P - alpha I > 0, P - A P A' - alpha I > 0 and tr P < R.  P is expanded on
    the unnormalized symmetric basis E_ij = e_i e_j' + e_j e_i' (i < j) and
    e_i e_i'; gradient and Hessian of -log det S are the traces tr(W F_k) and
    tr(W F_k W F_l), summed by einsum over the dense basis matrices.  The
    line search backtracks on the value of the centering function itself.
    The start is 100 alpha times the solution of P - A P A' = I, and R is
    1e4 times its trace.  Returns (B, relative fit error).
    """
    N = A.shape[0]
    eye = np.eye(N)
    iu, ju = np.triu_indices(N)
    F = np.zeros((iu.size, N, N))
    F[np.arange(iu.size), iu, ju] = 1.0
    F[np.arange(iu.size), ju, iu] = 1.0
    M = -(A - eye) / T
    v = np.linalg.solve((eye + A).T, C.T)
    Bmaps = np.einsum("ij,kjl,lm->kim", M, F, v)
    lyap = F - np.einsum("ij,kjl,ml->kim", A, F, A)
    cones = [F, lyap]

    P0, Ak = eye.copy(), A.copy()
    for _ in range(40):  # doubling sum of the series sum_k A^k A'^k, P - A P A' = I
        P0, Ak = P0 + Ak @ P0 @ Ak.T, Ak @ Ak
    P0 *= 100.0 * alpha  # both cones then hold with margin 99 alpha
    R = 1e4 * np.trace(P0)
    x = np.array([P0[i, j] for i, j in zip(iu, ju)])
    m = 2 * N + 1

    def pieces(x):
        Ss = [np.einsum("k,kij->ij", x, Fc) - alpha * eye for Fc in cones]
        slack = R - np.einsum("k,kii->", x, F)
        return Ss, slack

    def value(x, t):
        Ss, slack = pieces(x)
        if slack <= 0 or min(np.linalg.eigvalsh(S)[0] for S in Ss) <= 0:
            return np.inf
        fit = np.einsum("k,kij->ij", x, Bmaps) - G_B
        return t * np.sum(fit**2) - sum(np.linalg.slogdet(S)[1] for S in Ss) - np.log(slack)

    def fit_sq(x):
        return float(np.sum((np.einsum("k,kij->ij", x, Bmaps) - G_B) ** 2))

    trace_vec = np.einsum("kii->k", F)
    t = m / fit_sq(x)
    while True:
        for _ in range(200):
            Ss, slack = pieces(x)
            fit = np.einsum("k,kij->ij", x, Bmaps) - G_B
            grad = 2.0 * t * np.einsum("ij,kij->k", fit, Bmaps) + trace_vec / slack
            hess = 2.0 * t * np.einsum("kij,lij->kl", Bmaps, Bmaps)
            hess += np.outer(trace_vec, trace_vec) / slack**2
            for S, Fc in zip(Ss, cones):
                W = np.linalg.inv(S)
                WF = np.einsum("ij,kjl->kil", W, Fc)
                grad -= np.einsum("kii->k", WF)
                hess += np.einsum("kij,lji->kl", WF, WF)
            dx = -np.linalg.solve(hess, grad)
            dec = -grad @ dx
            if dec / 2.0 <= 1e-9:
                break
            v0, s = value(x, t), 1.0
            while value(x + s * dx, t) > v0 - 0.1 * s * dec and s > 1e-12:
                s *= 0.5
            if s <= 1e-12:
                break
            x = x + s * dx
        if m / t <= gap_rel * fit_sq(x):
            break
        t *= mu
    B = np.einsum("k,kij->ij", x, Bmaps)
    return B, float(np.linalg.norm(B - G_B) / np.linalg.norm(G_B))


# ---------------------------------------------------------------------------
# Reference loops of the validation path: one frequency, one step or one
# small-array RK4 stage at a time.  The package batches or scalarizes these;
# its results must equal these bit for bit.
# ---------------------------------------------------------------------------


def freq_response_per_frequency(c, omegas):
    """G(jw) = C (jw I - A)^-1 B + D by one pivot-checked complex LU per w."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = c.order
    out = np.empty((omegas.size, c.C.shape[0], c.B.shape[1]), dtype=complex)
    if n == 0 or not np.any(c.C) or not np.any(c.B):
        out[:] = c.D
        return out
    eye = np.eye(n)
    for k, w in enumerate(omegas):
        try:
            x = matcore.csolve(1j * w * eye - c.A, c.B.astype(complex))
        except matcore.SingularMatrixError as exc:
            raise nicore.PoleOnGridError(float(w)) from exc
        out[k] = c.C @ x + c.D
    return out


def step_response_per_step(c, T, steps):
    """(outputs, diverged) of the unit step, forming B u and D u every step."""
    d = nicore.to_discrete(c, T)
    u = np.ones((d.B.shape[1],))
    x = np.zeros(d.order)
    out = np.zeros((steps + 1, d.C.shape[0]))
    diverged = False
    for j in range(steps + 1):
        out[j] = d.C @ x + d.D @ u
        if np.any(np.abs(out[j]) > 1e6) or not np.all(np.isfinite(out[j])):
            diverged = True
            out = out[: j + 1]
            break
        x = d.A @ x + d.B @ u
    return out, diverged


def simulate_array_rk4(params, x0, u_table, T, max_step=0.01):
    """Mass-spring-damper states by classical RK4 on length-2 arrays.

    Raises NonFiniteTrajectoryError at the first sample whose state is not
    finite.
    """
    substeps = max(1, int(np.ceil(T / min(T, max_step) - 1e-12)))
    h = T / substeps
    rhs = params.rhs
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((u_table.shape[0] + 1, x.size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for j, u in enumerate(u_table):
            for _ in range(substeps):
                k1 = rhs(x, u)
                k2 = rhs(x + 0.5 * h * k1, u)
                k3 = rhs(x + 0.5 * h * k2, u)
                k4 = rhs(x + h * k3, u)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise NonFiniteTrajectoryError(j + 1)
            states[j + 1] = x
    return states
