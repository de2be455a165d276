"""Simulate the nonlinear mass-spring-damper and check its energy balance.

The plant is m zdd + (b0 + b1 z^2 + b2 zd^2) zd + k1 z + k3 z^3 = u with
position output.  Its stored energy S = m zd^2/2 + k1 z^2/2 + k3 z^4/4 can
only grow through the supplied power u * d(position), which is the
negative-imaginary dissipation inequality for force-in/position-out
systems.  We verify the discretized inequality along random trajectories.
"""

import numpy as np

from nikoopman import (
    InputSignal,
    MsdParams,
    check_dissipation,
    make_input,
    simulate,
    storage_value,
)

params = MsdParams()  # m=1, spring z + z^3, damping z^2 + zd^2
print("plant:", params)

traj = simulate(
    params,
    x0=[0.0, 0.0],
    inputs=make_input(InputSignal(kind="random", amplitude=1.0, hold=25, seed=0), 1000),
    T=0.01,
)
print(f"simulated {traj.L} samples at T={traj.T}s; "
      f"|x1| <= {np.abs(traj.states[:, 0]).max():.3f}")

energy = np.array([storage_value(params, x) for x in traj.states])
supply = np.cumsum(np.sum(traj.inputs * np.diff(traj.outputs, axis=0), axis=1))
print(f"final stored energy {energy[-1]:.4f}, cumulative supply {supply[-1]:.4f}")

report = check_dissipation(traj, params)
print(f"dissipation check: {len(report.violations)} violations "
      f"(tolerance {report.tol:.2e})")
assert report.ok

# a free decay only loses energy
decay = simulate(params, [1.0, 0.0], make_input(InputSignal(kind="zero"), 800), T=0.01)
e = np.array([storage_value(params, x) for x in decay.states])
print(f"free decay: energy falls {e[0]:.3f} -> {e[-1]:.6f}, "
      f"monotone: {bool(np.all(np.diff(e) <= 1e-12))}")
