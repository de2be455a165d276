"""Fit the lifted model with the negative-imaginary property enforced.

The one-step fit is reshaped into a convex program over (P, Q = A P, B)
whose semidefinite constraint [[P - aI, Q], [Q', P]] >= 0 is the Schur form
of the discrete NI Lyapunov condition A P A' - P <= -aI.  A dense ADMM
solves it; strict mode then re-selects P inside the certificate set so the
input matrix implied by the NI equality matches the data, giving a model
that is NI by construction.
"""

import numpy as np

from nikoopman import (
    InputSignal,
    MsdParams,
    discrete_ni_residuals,
    identify_ni,
    identify_unconstrained,
    make_dictionary,
    simulate,
    simulate_lifted,
)

params = MsdParams()
train = simulate(params, [0.0, 0.0],
                 InputSignal(kind="random", amplitude=1.0, hold=25, seed=0),
                 T=0.01, L=1000)
dictionary = make_dictionary(train, n_rbf=6, seed=0)

plain = identify_unconstrained(train, dictionary)
print(f"unconstrained spectral radius: "
      f"{np.max(np.abs(np.linalg.eigvals(plain.model.A))):.5f} (slightly unstable is typical)")

result = identify_ni(train, dictionary, alpha=1e-5, strict_b=True, max_iters=200000)
ni = result.ni
print(f"ADMM: {ni.iterations} iterations, converged={ni.converged}, "
      f"objective={ni.objective:.3e}")
print(f"certificate completion: B-fit relative error "
      f"{ni.completion.b_fit_rel:.3f} in {ni.completion.iterations} Newton steps")
print(f"constrained spectral radius: "
      f"{np.max(np.abs(np.linalg.eigvals(result.model.A))):.5f}")

res = discrete_ni_residuals(result.model, ni.P)
print(f"certificate: lambda_max(A P A' - P) = {res.lyap_max_eig:+.2e}, "
      f"lambda_min(P) = {res.p_min_eig:.2e}, B-equality gap = {res.b_eq_gap:.1e}, "
      f"certified = {res.certified}")

test = simulate(params, [0.0, 0.0],
                InputSignal(kind="random", amplitude=1.0, hold=40, seed=123),
                T=0.01, L=1000)
for name, model in [("constrained", result.model), ("unconstrained", plain.model)]:
    sim = simulate_lifted(model, test.states[0], test.inputs)
    mse = np.mean((sim.states - test.states) ** 2, axis=0)
    print(f"{name:>13} rollout MSE: {np.array2string(mse, precision=5)}")
