"""Channel permutations for N:M sparsity (the paper's reference [19]).

N:M masks keep the top-N entries of every *aligned* group of M reduction
channels; when salient weights cluster inside a group, good weights get
dropped.  Pool et al. (NeurIPS'21, cited by the paper) show that permuting
the reduction channels before grouping recovers much of that loss — and the
permutation is free for the hardware: weights are reordered once offline,
and the PE's existing index/MUX machinery gathers activations in permuted
order.

This module implements retained-saliency evaluation and a swap-based local
search (with random restarts) over channel permutations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .nm import NMPattern


def retained_saliency(saliency: np.ndarray, pattern: NMPattern) -> float:
    """Total saliency kept by the N:M mask (grouping along axis 0).

    Rows not filling a final group are padded with zero saliency, matching
    :func:`repro.sparsity.compute_nm_mask`.
    """
    saliency = np.atleast_2d(np.asarray(saliency, dtype=np.float64))
    rows, cols = saliency.shape
    m, n = pattern.m, pattern.n
    pad = (-rows) % m
    if pad:
        saliency = np.pad(saliency, ((0, pad), (0, 0)))
    groups = saliency.reshape(-1, m, cols)
    # top-n per (group, column): partial sort along the group axis
    part = np.partition(groups, m - n, axis=1)[:, m - n:, :]
    return float(part.sum())


def find_channel_permutation(saliency: np.ndarray, pattern: NMPattern,
                             iterations: int = 2000, restarts: int = 2,
                             rng: Optional[np.random.Generator] = None
                             ) -> Tuple[np.ndarray, float]:
    """Search for a channel permutation maximizing retained saliency.

    Swap-based stochastic hill climbing with random restarts (the greedy
    channel-swap strategy of [19], simplified): propose a random pair swap,
    keep it if retained saliency does not decrease.

    Returns ``(perm, retained)`` where ``retained >= `` the identity
    permutation's retained saliency (identity is always a candidate).
    """
    saliency = np.atleast_2d(np.asarray(saliency, dtype=np.float64))
    rows = saliency.shape[0]
    rng = rng or np.random.default_rng(0)

    best_perm = np.arange(rows)
    best_score = retained_saliency(saliency, pattern)

    for restart in range(restarts):
        if restart == 0:
            perm = np.arange(rows)
        else:
            perm = rng.permutation(rows)
        current = saliency[perm]
        score = retained_saliency(current, pattern)
        for _ in range(iterations):
            i, j = rng.integers(0, rows, size=2)
            if i == j:
                continue
            perm[i], perm[j] = perm[j], perm[i]
            current[[i, j]] = current[[j, i]]
            new_score = retained_saliency(current, pattern)
            if new_score >= score:
                score = new_score
            else:  # revert
                perm[i], perm[j] = perm[j], perm[i]
                current[[i, j]] = current[[j, i]]
        if score > best_score:
            best_score = score
            best_perm = perm.copy()

    return best_perm, best_score


def permutation_gain(saliency: np.ndarray, pattern: NMPattern,
                     iterations: int = 2000,
                     rng: Optional[np.random.Generator] = None) -> float:
    """Relative retained-saliency improvement of the found permutation.

    0.0 means the identity grouping was already optimal (or the search
    found nothing better); 0.05 means 5% more saliency survives pruning.
    """
    base = retained_saliency(saliency, pattern)
    if base == 0:
        return 0.0
    _, best = find_channel_permutation(saliency, pattern,
                                       iterations=iterations, rng=rng)
    return best / base - 1.0
