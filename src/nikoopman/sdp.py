"""Log-barrier path-following solver for small semidefinite least squares.

Solves

    minimize    || L x - g ||^2
    subject to  F0_i + sum_k x_k F_ik > 0     for each LMI i,
                a' x < b,

over x in R^K by the barrier method (Boyd & Vandenberghe, *Convex
Optimization*, sec. 11.3; Vandenberghe & Boyd, "Semidefinite programming",
SIAM Review 1996).  Each LMI is a pair (F0, Fm): the symmetric constant term
F0 (n x n) and the (K, n^2) map Fm whose row k is the row-major flattening of
the symmetric F_k.

For a barrier weight t, a centering step minimizes

    t || L x - g ||^2  -  sum_i log det S_i(x)  -  log(b - a' x)

by Newton steps with a backtracking line search on that function.  With
W = S^-1 the Hessian of -log det S is Fm (W kron W) Fm', its gradient
-Fm vec(W).  The line search evaluates the change of the function along the
step in closed form (a quadratic plus -sum log(1 + s lam), lam the
eigenvalues of C^-1 dS C^-T for S = C C'), because at large t the function
itself is so large that differences of its values are round-off.  After
each centering t is multiplied by ``MU``, and the method stops once the
duality-gap bound m/t (m the total barrier degree, the sum of the LMI sizes
plus one) is at most ``TOL.barrier_gap`` times the objective, or at most
eps ||g||^2, the resolution of the objective in floating point (an exact
fit has no relative gap to reach).

Round-off also puts a floor under the Newton decrement that grows with t, so
besides the decrement target a centering ends when a full Newton step taken
with squared decrement below ``QUADRATIC`` did not shrink it (the centering
function is self-concordant, and there lambda+ <= (lambda / (1 - lambda))^2
< lambda in exact arithmetic), or when backtracking falls below
``STEP_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL

MU = 20.0  # barrier-weight growth per centering
STEP_FLOOR = 1e-8  # smallest backtracked step; below it the centering ends
CENTERING_TOL = 1e-8  # half the squared Newton decrement that ends a centering
QUADRATIC = 0.1  # squared decrement below which a full Newton step must shrink it
MAX_STEPS = 500  # Newton steps over the whole path
ARMIJO = 0.25  # sufficient-decrease fraction of the line search
BACKTRACK = 0.5  # step reduction per rejected trial


@dataclass(frozen=True)
class BarrierResult:
    """Minimizer, Newton-step count, final gap bound m/t and whether the
    gap target was reached within ``MAX_STEPS``."""

    x: np.ndarray
    steps: int
    gap: float
    converged: bool


def minimize_lsq(
    L: np.ndarray,
    g: np.ndarray,
    lmis: list[tuple[np.ndarray, np.ndarray]],
    bound: tuple[np.ndarray, float],
    x0: np.ndarray,
) -> BarrierResult:
    """Minimize ||L x - g||^2 over the strict LMIs ``lmis`` and ``a' x < b``.

    ``bound`` is the pair (a, b).  ``x0`` must be strictly feasible.

    Raises:
        ValueError: ``x0`` violates a constraint or lies on its boundary.
    """
    a, b = bound
    H = 2.0 * L.T @ L
    roundoff = np.finfo(float).eps * float(g @ g)  # resolution of the objective
    sizes = [F0.shape[0] for F0, _ in lmis]
    m = sum(sizes) + 1

    def objective(x):
        r = L @ x - g
        return float(r @ r)

    def inverse_factors(x):
        # inverse Cholesky factors of every S_i(x), or None outside the interior
        out = []
        for (F0, Fm), n in zip(lmis, sizes):
            try:
                c = np.linalg.cholesky(F0 + (x @ Fm).reshape(n, n))
            except np.linalg.LinAlgError:
                return None
            out.append(np.linalg.inv(c))
        return out

    x = np.asarray(x0, dtype=float).copy()
    cis = inverse_factors(x)
    if cis is None or not b - a @ x > 0.0:
        raise ValueError("starting point is not strictly feasible")
    t = m / max(objective(x), np.finfo(float).tiny)
    steps = 0
    while True:
        previous = np.inf  # decrement before the last full step
        while steps < MAX_STEPS:
            r = L @ x - g
            slack = b - a @ x
            grad = 2.0 * t * L.T @ r + a / slack
            hess = t * H + np.outer(a, a) / slack**2
            for (_, Fm), ci in zip(lmis, cis):
                W = ci.T @ ci
                grad -= Fm @ W.ravel()
                hess += Fm @ np.kron(W, W) @ Fm.T
            try:
                dx = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:  # the barrier terms vanished against t H
                return BarrierResult(x=x, steps=steps, gap=m / t, converged=False)
            decrement = float(-grad @ dx)
            if decrement / 2.0 <= CENTERING_TOL or decrement >= previous:
                break
            steps += 1
            # closed-form change along dx: det S(x + s dx) / det S(x) = prod(1 + s lam)
            Ld = L @ dx
            lin, quad = 2.0 * float(r @ Ld), float(Ld @ Ld)
            lams = np.concatenate([
                np.linalg.eigvalsh(ci @ (dx @ Fm).reshape(n, n) @ ci.T)
                for (_, Fm), ci, n in zip(lmis, cis, sizes)
            ] + [[-(a @ dx) / slack]])
            s = 1.0
            while s >= STEP_FLOOR:
                if np.all(s * lams > -1.0):
                    change = t * s * (lin + s * quad) - np.log1p(s * lams).sum()
                    if change <= -ARMIJO * s * decrement:
                        # round-off can still put the trial point on a boundary
                        trial = inverse_factors(x + s * dx)
                        if trial is not None:
                            break
                s *= BACKTRACK
            if s < STEP_FLOOR:
                break
            x, cis = x + s * dx, trial
            previous = decrement if s == 1.0 and decrement < QUADRATIC else np.inf
        gap = m / t
        if gap <= max(TOL.barrier_gap * objective(x), roundoff):
            return BarrierResult(x=x, steps=steps, gap=gap, converged=True)
        if steps >= MAX_STEPS:
            return BarrierResult(x=x, steps=steps, gap=gap, converged=False)
        t *= MU
