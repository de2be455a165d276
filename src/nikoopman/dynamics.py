"""Nonlinear plant simulation and trajectory data handling.

The reference plant is a mass-spring-damper with polynomial spring
K(z) = k1 z + k3 z^3 and damping beta(z, zdot) = b0 + b1 z^2 + b2 zdot^2,

    m zdd + beta(z, zdot) zdot + K(z) = u,      y = z.

With nonnegative damping coefficients the stored energy
S = m zdot^2 / 2 + k1 z^2 / 2 + k3 z^4 / 4 dissipates at a rate bounded by
the force-times-velocity supply, which is the nonlinear negative-imaginary
inequality checked by :func:`check_dissipation`.

Simulation is classical RK4 with zero-order-hold inputs between samples;
a generic ``f(x, u) -> dx/dt`` callable is accepted in place of the
mass-spring-damper for ad-hoc plants.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if min(self.b0, self.b1, self.b2) < 0:
            raise ValueError("damping coefficients must be nonnegative")

    def spring(self, z: float) -> float:
        return self.k1 * z + self.k3 * z**3

    def damping(self, z: float, zdot: float) -> float:
        return self.b0 + self.b1 * z**2 + self.b2 * zdot**2

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        z, zdot = x
        acc = (-self.spring(z) - self.damping(z, zdot) * zdot + u[0]) / self.m
        return np.array([zdot, acc])


@dataclass(frozen=True)
class InputSignal:
    """Excitation signal description.

    kind:
        ``random``  uniform(-amplitude, amplitude) plateaus of ``hold`` samples
        ``prbs``    +/- amplitude plateaus of ``hold`` samples
        ``sine``    amplitude * sin(2 pi j / hold), i.e. ``hold`` samples/period
        ``zero``    all zeros
    """

    kind: str = "random"
    amplitude: float = 1.0
    hold: int = 1
    seed: int = 0

    _KINDS = ("random", "prbs", "sine", "zero")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
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
    if spec.kind == "sine":
        return spec.amplitude * np.sin(2.0 * np.pi * np.arange(L)[:, None] / spec.hold)
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
    state_labels: tuple[str, ...] = field(default=())
    input_labels: tuple[str, ...] = field(default=())
    output_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        if self.T <= 0:
            raise ValueError(f"sampling time must be positive, got {self.T}")
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
        if not self.state_labels:
            object.__setattr__(
                self, "state_labels", tuple(f"x{i+1}" for i in range(states.shape[1]))
            )
        if not self.input_labels:
            object.__setattr__(
                self, "input_labels", tuple(f"u{i+1}" for i in range(inputs.shape[1]))
            )
        if not self.output_labels:
            object.__setattr__(
                self, "output_labels", tuple(f"y{i+1}" for i in range(outputs.shape[1]))
            )

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

    def _write_csv(self, fh, extra_comments: Sequence[str]) -> None:
        fh.write(f"# T={self.T!r}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        header = ["t", *self.state_labels, *self.input_labels, *self.output_labels]
        write_csv(fh, header, [self.times, *self.states.T, *self.inputs.T, *self.outputs.T])

    def to_csv(self, extra_comments: Sequence[str] = ()) -> str:
        """Serialize to CSV: comment lines, header, one row per sample.

        Input columns are empty on the final row (no step L -> L+1).
        Values carry 12+ significant digits so reloads are lossless at
        working precision.
        """
        buf = io.StringIO()
        self._write_csv(buf, extra_comments)
        return buf.getvalue()

    def save_csv(self, path, extra_comments: Sequence[str] = ()) -> None:
        with open(path, "w") as fh:
            self._write_csv(fh, extra_comments)

    @classmethod
    def from_csv(cls, text: str) -> "TrajectoryData":
        """Inverse of :meth:`to_csv`.

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
            state_labels=tuple(header[1 : 1 + n]),
            input_labels=tuple(header[1 + n : 1 + n + m]),
            output_labels=tuple(header[1 + n + m :]),
        )

    @classmethod
    def load_csv(cls, path) -> "TrajectoryData":
        with open(path) as fh:
            return cls.from_csv(fh.read())


def _rk4_step(rhs, x: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(x, u)
    k2 = rhs(x + 0.5 * h * k1, u)
    k3 = rhs(x + 0.5 * h * k2, u)
    k4 = rhs(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _msd_rk4(p: MsdParams, x0: np.ndarray, u_table: np.ndarray, substeps: int,
             h: float) -> np.ndarray:
    """States of :func:`_rk4_step` with ``p.rhs``, computed on Python floats.

    Every stage repeats the array path's operations in the same order, so the
    states agree bit for bit while a step costs a fraction of four small-array
    evaluations.  Python raises ``OverflowError`` where numpy would return inf
    from a power; either way the state is no longer finite at that sample.
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
    plant: MsdParams | Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: Sequence[float],
    inputs: InputSignal | np.ndarray,
    T: float,
    L: int | None = None,
    output: Callable[[np.ndarray], np.ndarray] | None = None,
    max_step: float = 0.01,
) -> TrajectoryData:
    """Integrate a plant over L samples of period T with held inputs.

    Classical RK4 with internal step <= min(T, max_step); the input is held
    constant over each sampling interval.  For the mass-spring-damper the
    output is the position x1; generic plants report the full state unless
    ``output`` is given.

    Raises:
        NonFiniteTrajectoryError: the state left the finite range; the
            exception carries the offending step index.
    """
    if T <= 0:
        raise ValueError(f"sampling time must be positive, got {T}")
    x0 = np.asarray(x0, dtype=float)
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

    substeps = max(1, int(np.ceil(T / min(T, max_step) - 1e-12)))
    h = T / substeps

    if isinstance(plant, MsdParams):
        if x0.shape != (2,):
            raise ValueError(f"the mass-spring-damper state has 2 entries, got {x0.shape}")
        states = _msd_rk4(plant, x0, u_table, substeps, h)
    else:
        states = np.empty((L + 1, x0.size))
        states[0] = x0
        x = x0.copy()
        # divergence is detected and raised explicitly; silence the transient
        # overflow warnings emitted on the step that blows up
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(L):
                u = u_table[j]
                for _ in range(substeps):
                    x = _rk4_step(plant, x, u, h)
                if not np.all(np.isfinite(x)):
                    raise NonFiniteTrajectoryError(j + 1)
                states[j + 1] = x
    if output is not None:
        outputs = np.array([np.atleast_1d(output(s)) for s in states])
    else:  # the position for the mass-spring-damper, the full state otherwise
        outputs = (states[:, :1] if isinstance(plant, MsdParams) else states).copy()
    return TrajectoryData(T=T, states=states, inputs=u_table, outputs=outputs)


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
