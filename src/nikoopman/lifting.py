"""Thin-plate RBF lifting dictionary and snapshot data matrices.

The lifted state keeps the native state in its first n components and
appends one thin-plate radial basis value per center:

    psi(x) = [x_1, ..., x_n, d_1^2 ln d_1, ..., d_N^2 ln d_N]',
    d_i = ||x - r_i||_2,

with the singular value at d = 0 replaced by its limit 0.  The states are
lifted as they are, so the centers and the dimension n fully determine the
lifted simulation of a serialized model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TrajectoryData


class DimensionMismatchError(ValueError):
    """Trajectory and dictionary dimensions disagree."""


@dataclass(frozen=True)
class LiftingDictionary:
    """State-identity plus thin-plate RBF observables.

    Attributes:
        n: Native state dimension.
        centers: (n_rbf, n) RBF centers, pairwise distinct.
    """

    n: int
    centers: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float).reshape(-1, self.n)
        object.__setattr__(self, "centers", centers)
        if len(centers) > 1:
            diffs = centers[:, None, :] - centers[None, :, :]
            dist = np.sqrt(np.sum(diffs**2, axis=-1))
            np.fill_diagonal(dist, np.inf)
            if dist.min() < 1e-9:
                raise ValueError("RBF centers must be pairwise distinct")

    @property
    def n_rbf(self) -> int:
        return self.centers.shape[0]

    @property
    def size(self) -> int:
        """Total lifted dimension N = n + n_rbf."""
        return self.n + self.n_rbf

    def lift(self, x) -> np.ndarray:
        """Lift a single state vector to length ``size``."""
        return self.lift_columns(np.ravel(x)[None, :])[:, 0]

    def lift_columns(self, states: np.ndarray) -> np.ndarray:
        """Lift each row of (K, n) ``states``; returns (size, K) columns."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if states.shape[1] != self.n:
            raise DimensionMismatchError(
                f"states have dimension {states.shape[1]}, expected {self.n}"
            )
        blocks = [states.T]
        if self.n_rbf:
            d = np.linalg.norm(states[:, None, :] - self.centers[None, :, :], axis=2)
            blocks.append(_thin_plate(d).T)
        return np.vstack(blocks)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "centers": self.centers.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LiftingDictionary":
        """Inverse of :meth:`to_json_dict`.

        Raises:
            ValueError: the block holds a z-scoring ``mean`` or ``scale``;
                this dictionary lifts raw states and would lift such a model
                wrongly.
        """
        for key in ("mean", "scale"):
            if key in d:
                raise ValueError(
                    f"lifting dictionary holds {key!r}: z-scored dictionaries are not supported"
                )
        return cls(
            n=int(d["n"]),
            centers=np.asarray(d["centers"], dtype=float).reshape(-1, int(d["n"])),
        )


def _thin_plate(d: np.ndarray) -> np.ndarray:
    """d^2 ln d with the removable singularity at d = 0 set to its limit 0."""
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = d[pos] ** 2 * np.log(d[pos])
    return out


def sample_centers(n: int, n_rbf: int, box, seed: int = 0) -> LiftingDictionary:
    """Draw ``n_rbf`` centers uniformly from a per-dimension box.

    ``box`` is (n, 2) rows of [low, high].  The centers are one draw of
    ``n_rbf`` rows, deterministic given the seed.

    Raises:
        ValueError: ``n_rbf`` negative, the box not finite, or two centers
            closer than 1e-9 (:class:`LiftingDictionary` rejects them).
    """
    if n_rbf < 0:
        raise ValueError(f"the number of RBF centers must be nonnegative, got n_rbf={n_rbf}")
    box = np.asarray(box, dtype=float).reshape(n, 2)
    if not np.all(np.isfinite(box)):
        raise ValueError("sampling box must be finite")
    centers = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(n_rbf, n))
    return LiftingDictionary(n=n, centers=centers)


def state_box(states: np.ndarray) -> np.ndarray:
    """Empirical min/max box of training states, inflated symmetrically.

    Each side moves out by 5% of the width; zero-width dimensions are
    widened to +/- 0.1 so the box never degenerates.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    width = np.maximum(hi - lo, 0.0)
    pad = np.where(width > 0, 0.05 * width, 0.1)
    return np.stack([lo - pad, hi + pad], axis=1)


def make_dictionary(traj: TrajectoryData, n_rbf: int, seed: int = 0) -> LiftingDictionary:
    """Build a dictionary for a trajectory: box from data, centers by seed."""
    return sample_centers(traj.n, n_rbf, state_box(traj.states), seed=seed)


@dataclass(frozen=True)
class DataMatrices:
    """Snapshot matrices: lifted states, shifted lifted states, inputs, outputs."""

    Theta: np.ndarray  # (N, L)
    ThetaPlus: np.ndarray  # (N, L)
    Omega: np.ndarray  # (m, L)
    Y: np.ndarray  # (l, L)

    def __post_init__(self):
        Ls = {self.Theta.shape[1], self.ThetaPlus.shape[1], self.Omega.shape[1], self.Y.shape[1]}
        if len(Ls) != 1:
            raise DimensionMismatchError(f"inconsistent column counts {Ls}")
        for name in ("Theta", "ThetaPlus", "Omega", "Y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def L(self) -> int:
        return self.Theta.shape[1]


def build_matrices(traj: TrajectoryData, dictionary: LiftingDictionary) -> DataMatrices:
    """Assemble the four snapshot matrices from a trajectory.

    Column k holds psi(x(k)), psi(x(k+1)), u(k) and y(k) respectively,
    k = 0..L-1.
    """
    if traj.n != dictionary.n:
        raise DimensionMismatchError(
            f"trajectory state dimension {traj.n} != dictionary {dictionary.n}"
        )
    lifted = dictionary.lift_columns(traj.states)  # (N, L+1)
    return DataMatrices(
        Theta=lifted[:, :-1].copy(),
        ThetaPlus=lifted[:, 1:].copy(),
        Omega=traj.inputs.T.copy(),
        Y=traj.outputs[:-1].T.copy(),
    )
