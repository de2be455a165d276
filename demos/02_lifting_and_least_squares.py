"""Lift trajectories with thin-plate RBFs and fit the unconstrained model.

The lifted state keeps [x1, x2] and appends d^2 ln d radial terms around
randomly drawn centers.  A plain least-squares fit of the one-step map in
the lifted space already tracks the nonlinear plant far better than any
single linearization, at the price of no stability or NI guarantees.
"""

import numpy as np

from nikoopman import (
    InputSignal,
    MsdParams,
    build_matrices,
    identify_unconstrained,
    make_dictionary,
    make_input,
    simulate,
    simulate_lifted,
)

params = MsdParams()
train = simulate(params, [0.0, 0.0],
                 make_input(InputSignal(kind="random", amplitude=1.0, hold=25, seed=0), 1000),
                 T=0.01)

dictionary = make_dictionary(train, n_rbf=6, seed=0)
print(f"lifted dimension N = {dictionary.size} "
      f"({dictionary.n} states + {dictionary.n_rbf} RBFs)")
print("centers:\n", np.array2string(dictionary.centers, precision=3))

dm = build_matrices(train, dictionary)
print(f"snapshot matrices: Theta {dm.Theta.shape}, Omega {dm.Omega.shape}")

result = identify_unconstrained(train, dictionary)
print(f"one-step residual J1 = {result.edmd.residual_j1:.3e}, "
      f"output residual J2 = {result.edmd.residual_j2:.3e}")

# rollout on unseen forcing
test = simulate(params, [0.0, 0.0],
                make_input(InputSignal(kind="random", amplitude=1.0, hold=40, seed=123), 1000),
                T=0.01)
sim = simulate_lifted(result.model, test.states[0], test.inputs)
mse = np.mean((sim.states - test.states) ** 2, axis=0)
print(f"rollout MSE per state on held-out input: {np.array2string(mse, precision=5)}")
