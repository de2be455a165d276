"""Nonlinear plant simulation and trajectory data handling.

The reference plant is a mass-spring-damper with polynomial spring
K(z) = k1 z + k3 z^3 and damping beta(z, zdot) = b0 + b1 z^2 + b2 zdot^2,

    m zdd + beta(z, zdot) zdot + K(z) = u,      y = z.

With nonnegative damping coefficients the stored energy
S = m zdot^2 / 2 + k1 z^2 / 2 + k3 z^4 / 4 dissipates at a rate bounded by
the force-times-velocity supply, which is the nonlinear negative-imaginary
inequality checked by :func:`check_dissipation`.

Simulation is classical RK4 with zero-order-hold inputs between samples,
at most ``MAX_STEP`` seconds per internal step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerances import TOL


class NonFiniteTrajectoryError(RuntimeError):
    """Simulation produced a non-finite state."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"trajectory diverged (non-finite state at step {step})")


@dataclass(frozen=True)
class MsdParams:
    """Mass-spring-damper coefficients.

    Defaults reproduce the nonlinear benchmark case: unit mass, cubic
    spring z + z^3 and damping z^2 + zdot^2.
    """

    m: float = 1.0
    k1: float = 1.0
    k3: float = 1.0
    b0: float = 0.0
    b1: float = 1.0
    b2: float = 1.0

    def __post_init__(self):
        coefficients = (self.m, self.k1, self.k3, self.b0, self.b1, self.b2)
        if not all(math.isfinite(c) for c in coefficients):
            raise ValueError(f"plant coefficients must be finite, got {coefficients}")
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if min(self.b0, self.b1, self.b2) < 0:
            raise ValueError("damping coefficients must be nonnegative")

    def damping(self, z: float, zdot: float) -> float:
        return self.b0 + self.b1 * z**2 + self.b2 * zdot**2


@dataclass(frozen=True)
class InputSignal:
    """Excitation signal description.

    kind:
        ``random``  uniform(-amplitude, amplitude) plateaus of ``hold`` samples
        ``prbs``    +/- amplitude plateaus of ``hold`` samples
        ``zero``    all zeros
    """

    kind: str = "random"
    amplitude: float = 1.0
    hold: int = 1
    seed: int = 0

    _KINDS = ("random", "prbs", "zero")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be nonnegative and finite, got {self.amplitude}")
        if self.hold < 1:
            raise ValueError("hold must be at least 1")


def make_input(spec: InputSignal, L: int) -> np.ndarray:
    """Sample an (L, 1) input table from an :class:`InputSignal`.

    Deterministic given ``spec.seed``.
    """
    if L < 1:
        raise ValueError(f"need at least one sample, got L={L}")
    rng = np.random.default_rng(spec.seed)
    n_plateaus = -(-L // spec.hold)  # ceil
    if spec.kind == "zero":
        return np.zeros((L, 1))
    if spec.kind == "random":
        levels = rng.uniform(-spec.amplitude, spec.amplitude, size=(n_plateaus, 1))
    else:  # prbs
        levels = spec.amplitude * (2.0 * rng.integers(0, 2, size=(n_plateaus, 1)) - 1.0)
    return np.repeat(levels, spec.hold, axis=0)[:L]


CSV_ROWS = 2048  # rows formatted at a time by write_csv; bounds the text held in memory


def write_csv(fh, header: Sequence[str], columns: Sequence) -> None:
    """Write a header line and one row per entry of the first column.

    Every value is written as ``%.12e`` (the text of ``"{:.12e}".format``,
    ``nan``, ``inf`` and ``-0`` included); a column shorter than the first is
    padded with empty cells.  The text is built column by column for
    ``CSV_ROWS`` rows at a time, never as one whole-file string.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    n_rows = len(columns[0])
    fh.write(",".join(header) + "\n")
    for r0 in range(0, n_rows, CSV_ROWS):
        n = min(CSV_ROWS, n_rows - r0)
        cells = []
        for col in columns:
            text = list(map("%.12e".__mod__, col[r0 : r0 + n].tolist()))
            cells.append(text + [""] * (n - len(text)))
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


@dataclass(frozen=True)
class TrajectoryData:
    """Uniformly sampled states, inputs and outputs.

    ``states``/``outputs`` hold L+1 samples (j = 0..L), ``inputs`` holds L
    (the input driving the step j -> j+1).
    """

    T: float
    states: np.ndarray  # (L+1, n)
    inputs: np.ndarray  # (L, m)
    outputs: np.ndarray  # (L+1, l)

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"sampling time must be positive and finite, got {self.T}")
        if states.shape[0] != outputs.shape[0] or states.shape[0] != inputs.shape[0] + 1:
            raise ValueError(
                f"inconsistent sample counts: {states.shape[0]} states, "
                f"{inputs.shape[0]} inputs, {outputs.shape[0]} outputs"
            )
        if inputs.shape[0] < 1:
            raise ValueError("need at least one transition (L >= 1)")
        for arr, name in ((states, "states"), (inputs, "inputs"), (outputs, "outputs")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contain non-finite values")

    @property
    def L(self) -> int:
        return self.inputs.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def l(self) -> int:
        return self.outputs.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.T * np.arange(self.L + 1)

    def save_csv(self, path, extra_comments: Sequence[str] = ()) -> None:
        """Write ``# T=``, the comment lines, a header and one row per sample.

        The header is always ``t,x1..xn,u1..um,y1..yl``.  Input columns are
        empty on the final row (no step L -> L+1).  Values carry 12+
        significant digits so reloads are lossless at working precision.
        """
        header = ["t"] + [f"{prefix}{i + 1}" for prefix, count in
                          (("x", self.n), ("u", self.m), ("y", self.l)) for i in range(count)]
        with open(path, "w") as fh:
            fh.write(f"# T={self.T!r}\n")
            for line in extra_comments:
                fh.write(f"# {line}\n")
            write_csv(fh, header, [self.times, *self.states.T, *self.inputs.T, *self.outputs.T])

    @classmethod
    def from_csv(cls, text: str) -> "TrajectoryData":
        """Inverse of :meth:`save_csv`; columns are counted by their x, u and y prefixes.

        Raises:
            ValueError: no ``# T=`` line, header or rows; an unrecognized
                header; a row whose cell count differs from the header's or
                a cell that is not a number (both name the line).
        """
        T = None
        header = None
        numbers, rows = [], []
        for number, line in enumerate(text.splitlines(), 1):
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
            numbers.append(number)
            rows.append(line.split(","))
        if T is None or header is None or not rows:
            raise ValueError("malformed trajectory CSV (missing # T=, header or rows)")
        n = sum(1 for h in header if h.startswith("x"))
        m = sum(1 for h in header if h.startswith("u"))
        l = sum(1 for h in header if h.startswith("y"))
        width = len(header)
        if 1 + n + m + l != width:
            raise ValueError(f"unrecognized trajectory header {header}")
        for number, cells in zip(numbers, rows):
            if len(cells) != width:
                raise ValueError(
                    f"trajectory CSV line {number} has {len(cells)} cells, the header {width}"
                )
        rows[-1][1 + n : 1 + n + m] = ["nan"] * m  # the final row drives no step
        try:
            values = [float(c) for cells in rows for c in cells]
        except ValueError:
            for number, cells in zip(numbers, rows):
                try:
                    list(map(float, cells))
                except ValueError as exc:
                    raise ValueError(f"trajectory CSV line {number}: {exc}") from None
            raise
        table = np.array(values).reshape(len(rows), width)
        return cls(
            T=T,
            states=np.ascontiguousarray(table[:, 1 : 1 + n]),
            inputs=np.ascontiguousarray(table[:-1, 1 + n : 1 + n + m]),
            outputs=np.ascontiguousarray(table[:, 1 + n + m :]),
        )

    @classmethod
    def load_csv(cls, path) -> "TrajectoryData":
        with open(path) as fh:
            return cls.from_csv(fh.read())


MAX_STEP = 0.01  # longest internal RK4 step, seconds


def _msd_rk4(p: MsdParams, x0: np.ndarray, u_table: np.ndarray, substeps: int,
             h: float) -> np.ndarray:
    """Classical RK4 states of the mass-spring-damper, computed on Python floats.

    Each stage evaluates x' = (zdot, (u - K(z) - beta(z, zdot) zdot) / m) and
    combines the stages in the textbook order, as the length-2 array RK4 of
    the test oracles does, so the states agree bit for bit while a step costs
    a fraction of four small-array evaluations.  Python raises
    ``OverflowError`` where numpy would return inf from a power; either way
    the state is no longer finite at that sample.
    """
    m, k1, k3, b0, b1, b2 = p.m, p.k1, p.k3, p.b0, p.b1, p.b2

    def acc(z, zd, u):
        return (-(k1 * z + k3 * z**3) - (b0 + b1 * z**2 + b2 * zd**2) * zd + u) / m

    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((u_table.shape[0] + 1, 2))
    states[0] = x0
    z, zd = states[0].tolist()
    for j, u in enumerate(u_table[:, 0].tolist()):
        try:
            for _ in range(substeps):
                a1 = acc(z, zd, u)
                z2, zd2 = z + half * zd, zd + half * a1
                a2 = acc(z2, zd2, u)
                z3, zd3 = z + half * zd2, zd + half * a2
                a3 = acc(z3, zd3, u)
                z4, zd4 = z + h * zd3, zd + h * a3
                a4 = acc(z4, zd4, u)
                z, zd = (z + sixth * (zd + 2.0 * zd2 + 2.0 * zd3 + zd4),
                         zd + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        except OverflowError:
            raise NonFiniteTrajectoryError(j + 1) from None
        if not (math.isfinite(z) and math.isfinite(zd)):
            raise NonFiniteTrajectoryError(j + 1)
        states[j + 1] = z, zd
    return states


def simulate(
    params: MsdParams,
    x0: Sequence[float],
    inputs: InputSignal | np.ndarray,
    T: float,
    L: int | None = None,
) -> TrajectoryData:
    """Integrate the mass-spring-damper over L samples of period T with held inputs.

    Classical RK4 with internal step <= min(T, MAX_STEP); the input is held
    constant over each sampling interval and the output is the position x1.

    Raises:
        ValueError: T not positive and finite, a state that is not of length
            2, or an input table whose row count is not L.
        NonFiniteTrajectoryError: the state left the finite range; the
            exception carries the offending step index.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"sampling time must be positive and finite, got {T}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError(f"the mass-spring-damper state has 2 entries, got {x0.shape}")
    if isinstance(inputs, InputSignal):
        if L is None:
            raise ValueError("L is required when inputs is an InputSignal")
        u_table = make_input(inputs, L)
    else:
        u_table = np.asarray(inputs, dtype=float)
        if u_table.ndim == 1:
            u_table = u_table.reshape(-1, 1)
        if L is None:
            L = u_table.shape[0]
    if u_table.shape[0] != L:
        raise ValueError(f"input table has {u_table.shape[0]} rows, expected L={L}")

    substeps = max(1, int(np.ceil(T / min(T, MAX_STEP) - 1e-12)))
    states = _msd_rk4(params, x0, u_table, substeps, T / substeps)
    return TrajectoryData(T=T, states=states, inputs=u_table, outputs=states[:, :1].copy())


def storage_value(params: MsdParams, x: Sequence[float]) -> float:
    """Stored energy m x2^2/2 + k1 x1^2/2 + k3 x1^4/4 of the plant."""
    z, zdot = np.asarray(x, dtype=float)
    return 0.5 * params.m * zdot**2 + 0.5 * params.k1 * z**2 + 0.25 * params.k3 * z**4


@dataclass(frozen=True)
class DissipationReport:
    """Result of the discrete storage-inequality check."""

    violations: tuple[tuple[int, float], ...]  # (step, gap) with gap > tol
    tol: float
    max_storage: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_dissipation(traj: TrajectoryData, params: MsdParams) -> DissipationReport:
    """Check S(x_{j+1}) - S(x_j) <= u_j' (y_{j+1} - y_j) + tol along a trajectory.

    The continuous inequality only holds up to discretization error, so the
    tolerance is relative: tol = TOL.dissipation_rel * max |S|.
    Violations are collected, not raised.
    """
    storage = np.array([storage_value(params, x) for x in traj.states])
    max_storage = float(np.max(np.abs(storage)))
    tol = TOL.dissipation_rel * max_storage
    supply = np.sum(traj.inputs * np.diff(traj.outputs, axis=0), axis=1)
    gaps = np.diff(storage) - supply
    violations = tuple(
        (int(j), float(gaps[j])) for j in np.nonzero(gaps > tol)[0]
    )
    return DissipationReport(violations=violations, tol=float(tol), max_storage=max_storage)
