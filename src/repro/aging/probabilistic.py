"""The paper's probabilistic duty-cycle model (Sec. III-B, Eqs. 1-2, Fig. 7).

With the Fig. 5 dataflow, one on-chip memory cell is only ever written with
``K`` different bits (one per block mapping), each an independent Bernoulli
draw with probability ``rho`` of being '1'.  Equation (1) gives the
probability that such a cell ends up with a duty-cycle at most ``b/K`` or at
least ``1 - b/K`` — i.e. badly unbalanced in either direction — and Equation
(2) lifts that to the probability that at least ``n`` of the ``I x J`` cells
of the memory are that unbalanced.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive_int, check_probability


def binomial_pmf(trials: int, p: float) -> np.ndarray:
    """``P(X = i)`` for ``i = 0..trials``, ``X ~ Binomial(trials, p)``.

    Evaluated exactly in log space (``math.lgamma`` binomial coefficients), so
    large ``trials`` neither overflow nor lose the small outcomes.
    """
    if not 0.0 < p < 1.0:  # p is 0 or 1: all the mass on one outcome
        pmf = np.zeros(trials + 1)
        pmf[trials if p > 0.5 else 0] = 1.0
        return pmf
    counts = np.arange(trials + 1)
    log_factorials = np.array([math.lgamma(i + 1) for i in range(trials + 1)])
    log_choose = log_factorials[-1] - log_factorials - log_factorials[::-1]
    return np.exp(log_choose + counts * math.log(p) + (trials - counts) * math.log1p(-p))


def _binomial_tails(k: int, trials: int, p: float) -> Tuple[float, float]:
    """``(P(X <= k), P(X > k))``: the smaller tail summed, the other its complement."""
    pmf = binomial_pmf(trials, p)
    lower, upper = float(pmf[:k + 1].sum()), float(pmf[k + 1:].sum())
    if lower <= upper:
        return lower, 1.0 - lower
    return 1.0 - upper, upper


def binomial_cdf(k: int, trials: int, p: float) -> float:
    """``P(X <= k)`` for ``X ~ Binomial(trials, p)``."""
    return _binomial_tails(k, trials, p)[0]


def binomial_sf(k: int, trials: int, p: float) -> float:
    """``P(X > k)`` for ``X ~ Binomial(trials, p)``."""
    return _binomial_tails(k, trials, p)[1]


def duty_cycle_tail_probability(num_blocks: int, rho: float, b: int) -> float:
    """Equation (1): P(duty <= b/K or duty >= 1 - b/K).

    Parameters
    ----------
    num_blocks:
        ``K``, the number of distinct bits written to the cell per lifetime
        pattern.
    rho:
        Probability that any written bit is '1'.
    b:
        Tail width parameter, ``0 <= b <= floor(K / 2)``.

    Notes
    -----
    As in the paper, the special case ``b/K == 0.5`` returns exactly 1 (every
    duty-cycle trivially satisfies ``duty <= 0.5 or duty >= 0.5``).
    """
    check_positive_int(num_blocks, "num_blocks")
    check_probability(rho, "rho")
    if b < 0 or b > num_blocks // 2:
        raise ValueError(f"b must lie in [0, floor(K/2)] = [0, {num_blocks // 2}], got {b}")
    if 2 * b == num_blocks:
        return 1.0
    lower_tail = binomial_cdf(b, num_blocks, rho)
    upper_tail = binomial_sf(num_blocks - b - 1, num_blocks, rho)
    return float(lower_tail + upper_tail)


def probability_at_least_n_cells(num_cells: int, cell_probability: float, n: int) -> float:
    """Equation (2): P(at least ``n`` of ``I x J`` cells are unbalanced)."""
    check_positive_int(num_cells, "num_cells")
    check_probability(cell_probability, "cell_probability")
    if n < 0 or n > num_cells:
        raise ValueError(f"n must lie in [0, {num_cells}], got {n}")
    if n == 0:
        return 1.0
    return binomial_sf(n - 1, num_cells, cell_probability)


def expected_cells_at_tail(num_cells: int, cell_probability: float) -> float:
    """Expected number of cells whose duty-cycle falls in the tail."""
    check_positive_int(num_cells, "num_cells")
    check_probability(cell_probability, "cell_probability")
    return num_cells * cell_probability


def fig7_sweep(num_blocks: int, rho: float = 0.5) -> Tuple[np.ndarray, np.ndarray]:
    """The Fig. 7 curves: Eq. (1) evaluated for every ``b`` in ``0..floor(K/2)``.

    Returns ``(b_over_k, probability)`` arrays.
    """
    b_values = np.arange(num_blocks // 2 + 1)
    probabilities = np.array([
        duty_cycle_tail_probability(num_blocks, rho, int(b)) for b in b_values
    ])
    return b_values / num_blocks, probabilities


def effective_num_blocks_with_shifts(num_blocks: int, num_shifts: int) -> int:
    """Effective ``K`` if a mitigation scheme adds ``num_shifts`` extra mappings.

    The paper's example: 7 extra shift positions turn K=20 into K=160,
    assuming the shifted bits are independent.
    """
    check_positive_int(num_blocks, "num_blocks")
    if num_shifts < 0:
        raise ValueError("num_shifts must be non-negative")
    return num_blocks * (num_shifts + 1)


def empirical_tail_probability(duty_cycles: np.ndarray, b_over_k: float) -> float:
    """Empirical counterpart of Eq. (1) measured on simulated duty-cycles.

    Used by the validation tests that check the Monte-Carlo memory simulation
    against the analytic model.
    """
    duty = np.asarray(duty_cycles, dtype=np.float64).reshape(-1)
    if duty.size == 0:
        raise ValueError("duty_cycles must not be empty")
    check_probability(b_over_k, "b_over_k")
    tail = (duty <= b_over_k + 1e-12) | (duty >= 1.0 - b_over_k - 1e-12)
    return float(tail.mean())


def analytic_duty_cycle_histogram(num_blocks: int, rho: float,
                                  bin_edges: Sequence[float]) -> np.ndarray:
    """Probability mass of the duty-cycle landing in each ``[lo, hi)`` bin.

    The duty-cycle of a cell after ``K`` independent writes is ``i / K`` with
    ``i ~ Binomial(K, rho)``; this helper aggregates that distribution into
    arbitrary bins (used to predict Fig. 9 histograms analytically).
    """
    check_positive_int(num_blocks, "num_blocks")
    check_probability(rho, "rho")
    edges = np.asarray(bin_edges, dtype=np.float64)
    support = np.arange(num_blocks + 1) / num_blocks
    pmf = binomial_pmf(num_blocks, rho)
    masses = np.zeros(edges.size - 1)
    for index, (low, high) in enumerate(zip(edges[:-1], edges[1:])):
        if index == edges.size - 2:
            mask = (support >= low) & (support <= high)
        else:
            mask = (support >= low) & (support < high)
        masses[index] = pmf[mask].sum()
    return masses
