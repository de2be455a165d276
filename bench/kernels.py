"""Microbenchmarks of the matcore kernels at the sizes the workloads use.

``psd_project`` and ``sym_eig`` run at 16x16 and 36x36, the LMI sizes of
``readme-strict`` (N=8) and ``wide-lift`` (N=18).  ``csolve`` runs one
right-hand side at n = 8, 14 and 26, the plant orders ``validate-dense``
sweeps in ``freq_response`` (6, 12 and 24 RBFs plus the 2 raw states).

Calls are timed in batches while the speed sampler runs; the per-call time
is the median over batches of the batch time scaled to the reference speed
(see speed.py), so a scheduler hiccup moves one batch and not the figure.

Flop and byte counts are computed from textbook operation counts, not
measured: symmetric eigendecomposition with vectors ~9 n^3 (Golub & Van
Loan), PSD projection adds the V diag(l) V' reassembly (2 n^3), complex LU
with one right-hand side ~(8/3) n^3 real flops plus 8 n^2 for the two
triangular solves.  Bytes are the compulsory traffic: each input read once,
each output written once, float64 / complex128.
"""

from __future__ import annotations

import time

import numpy as np

BATCH_S = 0.02  # target time of one batch
KERNEL_S = 0.5  # time spent on each kernel


def _cases(matcore, rng):
    def sym(n):
        a = rng.standard_normal((n, n))
        return 0.5 * (a + a.T)

    def shifted(n):
        a = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
        return 1j * 0.7 * np.eye(n) - a, rng.standard_normal((n, 1)).astype(complex)

    for n in (16, 36):
        a = sym(n)
        yield "psd_project", n, (lambda a=a: matcore.psd_project(a)), 11 * n**3, 16 * n * n
        yield "sym_eig", n, (lambda a=a: matcore.sym_eig(a)), 9 * n**3, 16 * n * n + 8 * n
    for n in (8, 14, 26):
        a, b = shifted(n)
        yield ("csolve", n, (lambda a=a, b=b: matcore.csolve(a, b)),
               8 * n**3 // 3 + 8 * n * n, 16 * n * n + 32 * n)


def _batches(fn, seconds: float) -> list[tuple[float, float, int]]:
    """(start, end, calls) of batches of ~BATCH_S, for ``seconds`` in all."""
    fn()
    t0 = time.perf_counter()
    calls = 0
    while time.perf_counter() - t0 < 0.01:
        fn()
        calls += 1
    batch = max(1, int(calls * BATCH_S / 0.01))
    out = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(out) < 5:
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        out.append((t, time.perf_counter(), batch))
    return out


def measure(matcore, seed: int, seconds: float = KERNEL_S) -> list[tuple]:
    """Time every kernel case; returns (kernel, n, flop, bytes, batches) tuples."""
    rng = np.random.default_rng(seed)
    return [(kernel, n, flop, nbytes, _batches(fn, seconds))
            for kernel, n, fn, flop, nbytes in _cases(matcore, rng)]


def metrics(cases: list[tuple], scale) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for each kernel: time per call, computed flops and bytes.

    ``scale(t0, t1)`` gives (wall, reference-speed) seconds of an interval; the
    per-call time is the median over batches of the scaled batch time.
    """
    out = {}
    for kernel, n, flop, nbytes, batches in cases:
        us = float(np.median([scale(t0, t1)[1] / calls for t0, t1, calls in batches])) * 1e6
        key = f"kernel.{kernel}.n{n}"
        out[f"{key}.us_per_call"] = (us, "us")
        out[f"{key}.gflops_computed"] = (flop / us * 1e-3, "GFLOP/s")
        out[f"{key}.flop_computed"] = (float(flop), "flop")
        out[f"{key}.bytes_computed"] = (float(nbytes), "B")
    return out
