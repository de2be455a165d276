"""Close a positive-position-feedback loop around the identified models.

The PPF controller K / (s^2 + 2 zeta w s + w^2) is strictly NI, so positive
feedback around any NI plant is internally stable as soon as the DC
coupling lambda_max(G(0) Gbar(0)) stays below one.  The certified model
inherits that guarantee; the unconstrained fit does not, and its loop goes
unstable, which is the whole point of constraining the identification.
"""

import numpy as np

from nikoopman import (
    InputSignal,
    MsdParams,
    PpfController,
    identify_ni,
    identify_unconstrained,
    make_dictionary,
    positive_feedback,
    simulate,
    step_response,
    to_continuous,
)
from nikoopman.analysis import closed_loop_verdict
from nikoopman.nicore import dc_gain, ni_frequency_check, ppf_realize

T = 0.01
params = MsdParams()
train = simulate(params, [0.0, 0.0],
                 InputSignal(kind="random", amplitude=1.0, hold=25, seed=0),
                 T=T, L=1000)
dictionary = make_dictionary(train, n_rbf=6, seed=0)
constrained = identify_ni(train, dictionary, alpha=1e-5, strict_b=True, max_iters=200000)
plain = identify_unconstrained(train, dictionary)

ctrl = PpfController(K=0.5, zeta=0.7, omega=2.0)
ctrl_model = ppf_realize(ctrl)
chk = ni_frequency_check(ctrl_model)
print(f"PPF: DC gain {dc_gain(ctrl_model)[0, 0]:.3f}, strictly NI on grid "
      f"(min eig {chk.min_eig_over_grid:.2e} > 0)")

for name, model in [("constrained", constrained.model), ("unconstrained", plain.model)]:
    cont = to_continuous(model)
    verdict = closed_loop_verdict(cont, ctrl, T)
    print(f"{name:>13}: dc coupling {verdict.dc_gain_lambda_max:.3f}, "
          f"closed-loop spectral radius {verdict.spectral_radius:.6f} "
          f"-> {verdict.verdict}")
    fb = positive_feedback(cont, ctrl_model)
    resp = step_response(fb.model, T, 20000)  # 200 s, enough to expose slow growth
    tail = np.abs(resp.outputs[-1, 0]) if not resp.diverged else np.inf
    print(f"              step response: diverged={resp.diverged}, "
          f"final |y| = {tail:.3g}")
