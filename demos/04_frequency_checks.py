"""Frequency-domain NI verdicts for the constrained and unconstrained fits.

A square system is negative imaginary when j (G(jw) - G(jw)*) >= 0 for all
w > 0; for SISO models that is Im G <= 0, a phase locked into (-180, 0)
degrees.  The constrained model carries an exact state-space certificate
and its phase respects the band; the plain least-squares fit usually
breaks it somewhere on the grid.  Writes Bode data for both models.
"""

from nikoopman import (
    InputSignal,
    MsdParams,
    identify_ni,
    identify_unconstrained,
    make_dictionary,
    ni_frequency_check,
    simulate,
    to_continuous,
)
from nikoopman.dynamics import write_csv
from nikoopman.nicore import bode_columns, default_frequency_grid, freq_response

params = MsdParams()
train = simulate(params, [0.0, 0.0],
                 InputSignal(kind="random", amplitude=1.0, hold=25, seed=0),
                 T=0.01, L=1000)
dictionary = make_dictionary(train, n_rbf=6, seed=0)

constrained = identify_ni(train, dictionary, alpha=1e-5, strict_b=True, max_iters=200000)
plain = identify_unconstrained(train, dictionary)

omegas = default_frequency_grid()
for name, model in [("constrained", constrained.model), ("unconstrained", plain.model)]:
    cont = to_continuous(model)
    chk = ni_frequency_check(cont, omegas)
    mags, phases = bode_columns(freq_response(cont, omegas)[:, 0, 0])
    print(f"{name:>13}: NI on grid = {chk.is_ni}, "
          f"min eig j(G - G*) = {chk.min_eig_over_grid:+.2e} at w = {chk.worst_omega:.3g}, "
          f"phase range [{phases.min():.1f}, {phases.max():.1f}] deg")
    with open(f"bode_{name}.csv", "w") as fh:
        write_csv(fh, ["omega", "mag_db", "phase_deg"], [omegas, mags, phases])
    print(f"              wrote bode_{name}.csv")
