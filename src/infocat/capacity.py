"""Discrete memoryless channels and a Blahut-Arimoto capacity solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidChannel

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Channel:
    """Row-stochastic transition matrix P[a][b] = P(output b | input a)."""

    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.matrix:
            raise InvalidChannel("channel needs at least one input row")
        width = len(self.matrix[0])
        if width == 0:
            raise InvalidChannel("channel needs at least one output column")
        for i, row in enumerate(self.matrix):
            if len(row) != width:
                raise InvalidChannel(f"row {i} has {len(row)} entries, expected {width}")
            if any(v < 0.0 for v in row):
                raise InvalidChannel(f"row {i} contains a negative probability")
            total = sum(row)
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise InvalidChannel(f"row {i} sums to {total!r}, not 1")

    @property
    def n_inputs(self) -> int:
        return len(self.matrix)

    @property
    def n_outputs(self) -> int:
        return len(self.matrix[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    input_dist: tuple[float, ...]
    lower_bound: float
    upper_bound: float
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "capacity": self.capacity,
            "input_dist": list(self.input_dist),
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def mutual_information(p_in, P) -> float:
    """I(input; output) in bits for input law p_in over channel matrix P."""
    p_in = np.asarray(p_in, dtype=float)
    P = np.asarray(P, dtype=float)
    r = p_in @ P
    mask = (P > 0.0) & (p_in[:, None] > 0.0)
    ratio = np.where(mask, P / np.where(r > 0.0, r, 1.0), 1.0)
    terms = np.where(mask, P * np.log2(ratio), 0.0)
    return float(p_in @ terms.sum(axis=1))


def blahut_arimoto(
    channel,
    eps: float = 1e-9,
    max_iters: int = 100_000,
) -> CapacityResult:
    """Capacity of a discrete memoryless channel, in bits.

    Accepts a Channel or a raw row-stochastic matrix; raw rows may be off
    by up to 1e-9 and are renormalized.  Alternates the posterior update
    q(a|b) = p(a)P(b|a) / sum_a' p(a')P(b|a') with the input update
    p(a) proportional to exp2(sum_b P(b|a) log2 q(a|b)), and stops once
    the duality gap max_a D(P_a || r) - I(p; P) reaches eps.  The gap is
    evaluated before each update, so a channel whose uniform input is
    already optimal converges at iteration 1 with no rounding from the
    update step.  The reported capacity is the midpoint of the two
    bounds, which always sandwich the true value.
    """
    if isinstance(channel, Channel):
        P = channel.as_array()
    else:
        P = np.asarray(channel, dtype=float)
        if P.ndim != 2 or P.size == 0:
            raise InvalidChannel("transition matrix must be 2-D and nonempty")
        if np.any(P < 0.0):
            raise InvalidChannel("transition matrix contains a negative probability")
        sums = P.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidChannel(f"row {worst} sums to {sums[worst]!r}, not 1")
        P = P / sums[:, None]

    n = P.shape[0]
    p = np.full(n, 1.0 / n)
    pos = P > 0.0
    log_P = np.where(pos, np.log2(np.where(pos, P, 1.0)), 0.0)

    lower = upper = 0.0
    prev_lower = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        r = p @ P
        log_r = np.where(r > 0.0, np.log2(np.where(r > 0.0, r, 1.0)), 0.0)
        # D[a] = KL(P[a] || r) in bits; P[a][b] == 0 terms vanish by the
        # 0 log 0 convention, and r[b] == 0 forces P[a][b] == 0 for all a
        # with p[a] > 0, so masking is safe.
        D = (np.where(pos, P * (log_P - log_r[None, :]), 0.0)).sum(axis=1)
        lower = float(p @ D)
        upper = float(D.max())
        if not lower >= prev_lower - 1e-12:  # a NaN bound fails too
            raise AssertionError("mutual information must not decrease")
        prev_lower = lower
        if upper - lower <= eps:
            converged = True
            break
        q = p[:, None] * P
        col = q.sum(axis=0)
        q = q / np.where(col > 0.0, col, 1.0)
        q = np.clip(q, 1e-300, None)
        w = np.exp2(np.where(pos, P * np.log2(q), 0.0).sum(axis=1))
        p = w / w.sum()

    return CapacityResult(
        capacity=(lower + upper) / 2.0,
        input_dist=tuple(float(x) for x in p),
        lower_bound=lower,
        upper_bound=upper,
        iterations=iterations,
        converged=converged,
    )
