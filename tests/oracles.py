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


def msd_rhs(params, x, u):
    """x' = (zdot, (u - k1 z - k3 z^3 - (b0 + b1 z^2 + b2 zdot^2) zdot) / m)."""
    z, zdot = x
    spring = params.k1 * z + params.k3 * z**3
    damping = params.b0 + params.b1 * z**2 + params.b2 * zdot**2
    return np.array([zdot, (-spring - damping * zdot + u[0]) / params.m])


def simulate_array_rk4(params, x0, u_table, T):
    """Mass-spring-damper states by classical RK4 on length-2 arrays.

    At most 0.01 s per internal step.  Raises NonFiniteTrajectoryError at the
    first sample whose state is not finite.
    """
    substeps = max(1, int(np.ceil(T / min(T, 0.01) - 1e-12)))
    h = T / substeps
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((u_table.shape[0] + 1, x.size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for j, u in enumerate(u_table):
            for _ in range(substeps):
                k1 = msd_rhs(params, x, u)
                k2 = msd_rhs(params, x + 0.5 * h * k1, u)
                k3 = msd_rhs(params, x + 0.5 * h * k2, u)
                k4 = msd_rhs(params, x + h * k3, u)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise NonFiniteTrajectoryError(j + 1)
            states[j + 1] = x
    return states


def lift_per_state(dictionary, x):
    """psi(x): the state, then d^2 ln d of its distance d to each center (0 at d = 0)."""
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty(dictionary.size)
    out[: dictionary.n] = x
    if dictionary.n_rbf:
        d = np.linalg.norm(x[None, :] - dictionary.centers, axis=1)
        rbf = np.zeros_like(d)
        pos = d > 0
        rbf[pos] = d[pos] ** 2 * np.log(d[pos])
        out[dictionary.n :] = rbf
    return out


def simulate_lifted_per_step(mdl, x0, inputs):
    """Lifted states psi[j + 1] = A psi[j] + B u[j], forming B u every step."""
    inputs = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
    psi = np.empty((inputs.shape[0] + 1, mdl.order))
    psi[0] = mdl.dictionary.lift(x0)
    for j in range(inputs.shape[0]):
        psi[j + 1] = mdl.A @ psi[j] + mdl.B @ inputs[j]
    return psi


def simulate_continuous_per_step(c, x0, inputs, T):
    """States x[j + 1] = Ad x[j] + Bd u[j] of the exact discretization."""
    from nikoopman.analysis import zoh_discretize

    inputs = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
    Ad, Bd = zoh_discretize(c, T)
    states = np.empty((inputs.shape[0] + 1, c.order))
    states[0] = np.asarray(x0, dtype=float)
    for j in range(inputs.shape[0]):
        states[j + 1] = Ad @ states[j] + Bd @ inputs[j]
    return states


# ---------------------------------------------------------------------------
# Reference CSV text: every value formatted on its own, one row at a time.
# ---------------------------------------------------------------------------


def trajectory_to_csv_per_value(traj, extra_comments=()):
    """The trajectory CSV: comments, header, rows; empty inputs on the last row."""
    lines = [f"# T={traj.T!r}"] + [f"# {line}" for line in extra_comments]
    header = ["t"] + [f"x{i + 1}" for i in range(traj.n)] + [f"u{i + 1}" for i in range(traj.m)]
    lines.append(",".join(header + [f"y{i + 1}" for i in range(traj.l)]))
    for j in range(traj.L + 1):
        cells = [f"{j * traj.T:.12e}"]
        cells += [f"{v:.12e}" for v in traj.states[j]]
        if j < traj.L:
            cells += [f"{v:.12e}" for v in traj.inputs[j]]
        else:
            cells += [""] * traj.m
        cells += [f"{v:.12e}" for v in traj.outputs[j]]
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


def trajectory_from_csv_per_cell(text):
    """(T, states, inputs, outputs, header) of a trajectory CSV, cell by cell."""
    T = None
    header = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("T="):
                T = float(body[2:])
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    n = sum(1 for h in header if h.startswith("x"))
    m = sum(1 for h in header if h.startswith("u"))
    states = np.array([[float(c) for c in r[1 : 1 + n]] for r in rows])
    outputs = np.array([[float(c) for c in r[1 + n + m :]] for r in rows])
    inputs = np.array(
        [[float(c) for c in r[1 + n : 1 + n + m]] for r in rows[:-1]]
    ).reshape(len(rows) - 1, m)
    return T, states, inputs, outputs, header


def csv_text_per_value(header, rows):
    """CSV text of rows of cells already formatted."""
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _suffixed(base, names):
    if len(names) == 1:
        return base
    return [base[0]] + [f"{col}_{name}" for name in names for col in base[1:]]


def validate_csvs_per_value(reference, candidates, predictions, omegas, ctrl, steps):
    """Text of ``validate``'s bode, nyquist, timeseries and step CSVs.

    ``candidates`` are ``analysis.CandidateModel``; ``predictions`` holds each
    model's predicted states, None for a model that failed, whose cells are
    empty in every CSV.  Responses come from the per-frequency and per-step
    loops above, every value is formatted with ``"{:.12e}".format`` on its
    own, and missing cells are empty.
    """
    fmt = "{:.12e}".format
    names = [c.name for c in candidates]
    conts = [
        None if p is None else c.continuous if c.continuous is not None
        else nicore.to_continuous(c.discrete)
        for c, p in zip(candidates, predictions)
    ]
    loops = conts
    if ctrl is not None:
        ppf = nicore.ppf_realize(ctrl)
        loops = [None if c is None else nicore.positive_feedback(c, ppf).model for c in conts]
    bode = []
    for c in conts:
        if c is None:
            bode.append(None)
            continue
        G = freq_response_per_frequency(c, omegas)[:, 0, 0]
        mags = 20.0 * np.log10(np.maximum(np.abs(G), np.finfo(float).tiny))
        bode.append((mags, np.degrees(np.angle(G))))
    nyq = [None if c is None else freq_response_per_frequency(c, omegas)[:, 0, 0] for c in loops]
    out = {}
    rows = []
    for k, w in enumerate(omegas):
        row = [fmt(w)]
        for pair in bode:
            row += ["", ""] if pair is None else [fmt(pair[0][k]), fmt(pair[1][k])]
        rows.append(row)
    out["bode.csv"] = csv_text_per_value(_suffixed(["omega", "mag_db", "phase_deg"], names), rows)
    rows = []
    for k, w in enumerate(omegas):
        row = [fmt(w)]
        for G in nyq:
            row += ["", ""] if G is None else [fmt(G[k].real), fmt(G[k].imag)]
        rows.append(row)
    out["nyquist.csv"] = csv_text_per_value(_suffixed(["omega", "re", "im"], names), rows)
    rows = []
    for j in range(reference.L + 1):
        row = [fmt(j * reference.T), fmt(reference.outputs[j, 0])]
        row += [fmt(p[j, 0]) if p is not None else "" for p in predictions]
        rows.append(row)
    out["timeseries.csv"] = csv_text_per_value(
        ["t", "y_true"] + [f"y_{n}" for n in names], rows
    )
    if ctrl is not None:
        responses = [np.empty((0, 1)) if c is None
                     else step_response_per_step(c, reference.T, steps)[0] for c in loops]
        rows = []
        for j in range(steps + 1):
            row = [fmt(j * reference.T)]
            row += [fmt(y[j, 0]) if j < y.shape[0] else "" for y in responses]
            rows.append(row)
        out["step.csv"] = csv_text_per_value(_suffixed(["t", "y"], names), rows)
    return out


# ---------------------------------------------------------------------------
# Reference eigen path and ADMM loop: the symmetric eigendecomposition through
# np.linalg.eigh, and the NI-program ADMM with a general weight W, whose
# X-update forms (W'W + rho I)^-1 by an LU solve.  The package calls LAPACK
# syevd directly and, with the weight fixed at the identity, replaces that
# inverse by the scalar 1/(1 + rho); its iterates must equal these bit for bit.
# ---------------------------------------------------------------------------


def sym_eig_eigh(a):
    """(eigenvalues descending, eigenvectors) of (a + a')/2 by np.linalg.eigh."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise matcore.NonSquareError(f"matrix must be square, got shape {a.shape}")
    try:
        w, v = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise matcore.NotConvergedError(f"eigh did not converge: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_project_eigh(a):
    """Frobenius-nearest PSD matrix: clip the eigh eigenvalues and reassemble."""
    w, v = sym_eig_eigh(a)
    out = (v * np.maximum(w, 0.0)) @ v.T
    return 0.5 * (out + out.T)


def _lmi_block(P, Q, alpha):
    N = P.shape[0]
    return np.block([[P - alpha * np.eye(N), Q], [Q.T, P]])


def solve_ni_weighted(G_A, alpha, max_iters, tol, W=None):
    """The weighted NI-program ADMM, one iterate path, eigh for every eigen step.

    minimize ||W (G_A P - Q)||_F^2 over [[P - alpha I, Q], [Q', P]] >= 0, from
    P = I, Q = G_A and rho = 1, with rho doubled or halved every 50 iterations
    when one residual exceeds ten times the other (within [1e-6, 1e6]).  The
    last P is shifted along the identity if the block is indefinite.  Returns
    a dict with P, Q, A_d, iterations, primal_res, dual_res, objective,
    lmi_min_eig, converged and the number of step-size changes.
    """
    rho = 1.0
    N = G_A.shape[0]
    eye = np.eye(N)
    W = eye if W is None else W
    V = W.T @ W
    VG = V @ G_A

    def factorize(rho):
        F = matcore.solve(V + rho * eye, eye)
        Vt = V @ F
        Vt = 0.5 * (Vt + Vt.T)
        H = rho * G_A.T @ Vt @ G_A
        lam, vec = sym_eig_eigh(0.5 * (H + H.T))
        return F, G_A.T @ Vt, vec, lam[:, None] + lam[None, :] + 2.0 * rho

    F, GtV, UH, denom = factorize(rho)
    P = eye.copy()
    Q = G_A.copy()
    Z = psd_project_eigh(_lmi_block(P, Q, alpha))
    U = np.zeros((2 * N, 2 * N))
    alpha_eye = alpha * eye
    SX = np.empty((2 * N, 2 * N))
    primal = dual = np.inf
    iterations = rho_changes = 0
    converged = False
    for iterations in range(1, max_iters + 1):
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
        Z_new = psd_project_eigh(SX + U)
        step = SX - Z_new
        primal = float(np.linalg.norm(step))
        dual = float(rho * np.linalg.norm(Z_new - Z))
        U += step
        Z = Z_new
        scale = max(1.0, float(np.linalg.norm(SX)), float(np.linalg.norm(Z)))
        if primal <= tol * scale and dual <= tol * scale:
            converged = True
            break
        factor = 1.0
        if iterations % 50 == 0:
            if primal > 10.0 * dual and rho < 1e6:
                factor = 2.0
            elif dual > 10.0 * primal and rho > 1e-6:
                factor = 0.5
        if factor != 1.0:
            rho *= factor
            U /= factor
            rho_changes += 1
            F, GtV, UH, denom = factorize(rho)

    lmi_min = float(sym_eig_eigh(_lmi_block(P, Q, alpha))[0][-1])
    if lmi_min < 0.0:
        P = P + (-lmi_min) * eye
        lmi_min = float(sym_eig_eigh(_lmi_block(P, Q, alpha))[0][-1])
    return {
        "P": P,
        "Q": Q,
        "A_d": matcore.solve(P, Q.T).T,
        "iterations": iterations,
        "primal_res": primal,
        "dual_res": dual,
        "objective": float(np.linalg.norm(W @ (G_A @ P - Q)) ** 2),
        "lmi_min_eig": lmi_min,
        "converged": converged,
        "rho_changes": rho_changes,
    }
