"""Baselines and validation reporting.

Provides the Jacobian linearization of the mass-spring-damper, per-channel
mean-squared error, step responses, and :func:`compare_models`, which
assembles a :class:`ValidationReport` holding, for every candidate model:
prediction error against a reference trajectory, NI evidence (LMI residuals
when a certificate P is available, the frequency-grid check always), DC
gain, and the closed-loop verdict under a positive-position-feedback
controller, judged on the spectral radius of the discretized loop computed
from its exact eigenvalue moduli.

Linearized baselines are simulated through their exact zero-order-hold
discretization (matrix exponential); lifted models iterate their own
discrete recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import nicore
from .dynamics import MsdParams, TrajectoryData
from .identify import simulate_lifted
from .nicore import (
    ContinuousLinearModel,
    DiscreteLinearModel,
    PpfController,
)
from .tolerances import TOL


class LengthMismatchError(ValueError):
    """Sequences to compare have different lengths."""


def linearize_msd(params: MsdParams, x0) -> ContinuousLinearModel:
    """Jacobian linearization of the mass-spring-damper at a state.

    A = [[0, 1], [-(k1 + 3 k3 x1^2 + 2 b1 x1 x2)/m, -(beta(x) + 2 b2 x2^2)/m]],
    B = [0, 1/m]', C = [1, 0], D = 0.
    """
    x1, x2 = np.asarray(x0, dtype=float)
    a21 = -(params.k1 + 3.0 * params.k3 * x1**2 + 2.0 * params.b1 * x1 * x2) / params.m
    a22 = -(params.damping(x1, x2) + 2.0 * params.b2 * x2**2) / params.m
    return ContinuousLinearModel(
        A=np.array([[0.0, 1.0], [a21, a22]]),
        B=np.array([[0.0], [1.0 / params.m]]),
        C=np.array([[1.0, 0.0]]),
        D=np.zeros((1, 1)),
    )


def mse(reference: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Per-channel mean squared error between equal-length sequences."""
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    if reference.shape != predicted.shape:
        raise LengthMismatchError(
            f"sequence shapes differ: {reference.shape} vs {predicted.shape}"
        )
    return np.mean((reference - predicted) ** 2, axis=0)


@dataclass(frozen=True)
class StepResponse:
    times: np.ndarray
    outputs: np.ndarray  # (steps+1, l)
    diverged: bool


def step_response(c: ContinuousLinearModel, T: float, steps: int) -> StepResponse:
    """Unit-step output of the bilinear-discretized model.

    The states come from :func:`nicore.linear_recursion` under the constant
    unit input, and the outputs C x + D u from one stacked product: with one
    output each entry is the dot product of the step-by-step C x, bit for
    bit, with several it equals C x to rounding.  An output entry beyond 1e6
    in magnitude, or not finite, flags divergence; ``outputs`` then ends at
    that step.
    """
    d = nicore.to_discrete(c, T)
    u = np.ones(d.B.shape[1])
    # the states after a divergence may overflow; they are cut off below
    with np.errstate(over="ignore", invalid="ignore"):
        X = nicore.linear_recursion(d.A, d.B, np.zeros(d.order), np.tile(u, (steps, 1)))
        out = np.matmul(X[:, None, :], d.C.T)[:, 0, :] + d.D @ u
    bad = ~(np.abs(out).max(axis=1, initial=0.0) <= 1e6)  # also true for NaN
    diverged = bool(bad.any())
    if diverged:
        out = out[: int(bad.argmax()) + 1]
    return StepResponse(times=T * np.arange(out.shape[0]), outputs=out, diverged=diverged)


def zoh_discretize(c: ContinuousLinearModel, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented exponential."""
    n, m = c.B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = c.A
    aug[:n, n:] = c.B
    phi = scipy.linalg.expm(T * aug)
    return phi[:n, :n], phi[:n, n:]


def simulate_continuous(
    c: ContinuousLinearModel, x0, inputs: np.ndarray, T: float
) -> np.ndarray:
    """States of the continuous model under the rows of an (L, m) input table, each held.

    The exact zero-order-hold pair (Ad, Bd) is iterated by
    :func:`nicore.linear_recursion`.
    """
    Ad, Bd = zoh_discretize(c, T)
    return nicore.linear_recursion(Ad, Bd, np.asarray(x0, dtype=float), inputs)


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateModel:
    """A model entered into a comparison.

    Exactly one of ``discrete``/``continuous`` drives the simulation; a
    discrete model must carry its lifting dictionary.  ``P`` is an optional
    NI certificate from the solver.
    """

    name: str
    discrete: DiscreteLinearModel | None = None
    continuous: ContinuousLinearModel | None = None
    P: np.ndarray | None = None

    def __post_init__(self):
        if (self.discrete is None) == (self.continuous is None):
            raise ValueError("provide exactly one of discrete/continuous")


@dataclass(frozen=True)
class ClosedLoopVerdict:
    dc_gain_lambda_max: float
    spectral_radius: float
    verdict: str  # stable | unstable | inconclusive
    loop: ContinuousLinearModel = field(repr=False)  # the r -> y loop judged, not saved


@dataclass(frozen=True)
class ModelReport:
    """One model's entry of a report; a failed model holds only its ``error``."""

    name: str
    mse_states: np.ndarray | None = None
    mse_outputs: np.ndarray | None = None
    lmi: nicore.NiResiduals | None = None
    phase: nicore.FrequencyNiCheck | None = None
    dc_gain: float | None = None
    closed_loop: ClosedLoopVerdict | None = None
    predicted_states: np.ndarray | None = field(default=None, repr=False)
    # the open-loop G(jw) of the continuous image on the grid, not saved
    response: np.ndarray | None = field(default=None, repr=False)
    error: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    models: tuple[ModelReport, ...]
    provenance: dict


def closed_loop_verdict(
    plant: ContinuousLinearModel, ctrl: PpfController, T: float
) -> ClosedLoopVerdict:
    """Positive feedback with the PPF; stability judged on the discretized loop.

    The verdict bands are +/- TOL.stability_margin around radius one, far
    tighter than an iterative estimate can resolve on the non-normal
    closed-loop matrices that arise here, so the radius is computed from the
    exact eigenvalue moduli.
    """
    fb = nicore.positive_feedback(plant, nicore.ppf_realize(ctrl))
    disc = nicore.to_discrete(fb.model, T)
    radius = float(np.max(np.abs(np.linalg.eigvals(disc.A)))) if disc.order else 0.0
    if radius < 1.0 - TOL.stability_margin:
        verdict = "stable"
    elif radius > 1.0 + TOL.stability_margin:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return ClosedLoopVerdict(
        dc_gain_lambda_max=fb.dc_gain_lambda_max,
        spectral_radius=radius,
        verdict=verdict,
        loop=fb.model,
    )


def evaluate_model(
    entry: CandidateModel,
    reference: TrajectoryData,
    ctrl: PpfController | None,
    omegas: np.ndarray,
) -> ModelReport:
    """Predictions, NI evidence and closed-loop verdict for one candidate.

    The open-loop response of the continuous image on the positive
    frequencies of ``omegas`` (computed once, for the NI check) is kept in
    the report's ``response``, the closed loop in its ``closed_loop.loop``.
    """
    x0 = reference.states[0]
    if entry.discrete is not None:
        sim = simulate_lifted(entry.discrete, x0, reference.inputs)
        states_pred = sim.states
        outputs_pred = sim.outputs
    else:
        states_pred = simulate_continuous(entry.continuous, x0, reference.inputs, reference.T)
        outputs_pred = states_pred @ entry.continuous.C.T
    mse_states = mse(reference.states, states_pred)
    mse_outputs = mse(reference.outputs, outputs_pred)
    cont = entry.continuous
    if cont is None:
        cont = nicore.to_continuous(entry.discrete)
    omegas = np.asarray(omegas, dtype=float)
    response = nicore.freq_response(cont, omegas[omegas > 0])
    phase = nicore.ni_frequency_check(cont, omegas, response=response)
    gain = float(nicore.dc_gain(cont)[0, 0])
    lmi = None
    if entry.P is not None and entry.discrete is not None:
        lmi = nicore.discrete_ni_residuals(entry.discrete, entry.P)
    closed = closed_loop_verdict(cont, ctrl, reference.T) if ctrl is not None else None
    return ModelReport(
        name=entry.name,
        mse_states=mse_states,
        mse_outputs=mse_outputs,
        lmi=lmi,
        phase=phase,
        dc_gain=gain,
        closed_loop=closed,
        predicted_states=states_pred,
        response=response,
    )


def compare_models(
    reference: TrajectoryData,
    models: list[CandidateModel],
    omegas: np.ndarray,
    ctrl: PpfController | None = None,
    provenance: dict | None = None,
) -> ValidationReport:
    """Evaluate every candidate against a reference trajectory.

    One model failing is recorded in its entry and does not abort the rest,
    except for a grid frequency on a pole of a model: that is a fault of the
    grid, not of the model, and ``nicore.PoleOnGridError`` propagates.
    """
    reports = []
    for entry in models:
        try:
            reports.append(evaluate_model(entry, reference, ctrl, omegas))
        except nicore.PoleOnGridError:
            raise
        except Exception as exc:  # per-model isolation
            reports.append(ModelReport(name=entry.name, error=f"{type(exc).__name__}: {exc}"))
    return ValidationReport(models=tuple(reports), provenance=provenance or {})
