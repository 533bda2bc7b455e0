"""Scalar reference for :func:`repro.msa.aligner.global_align`.

This is the aligner as it was before the left-gap pass became a prefix
max: the DIAG/UP choice is vectorised per row, and the LEFT moves are
resolved by a Python loop over the row, one cell at a time.  It is slow
and obviously correct, which makes it the oracle for the differential
tests in ``tests/test_aligner.py``: the production aligner must match
it ``==`` (pointers, last score row, aligned strings and score).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.msa.aligner import (
    GAP_SCORE,
    MATCH_SCORE,
    MISMATCH_SCORE,
    PairwiseAlignment,
)
from repro.sequences.alphabets import GAP

_DIAG, _UP, _LEFT = 0, 1, 2


def oracle_fill(query: str, target: str) -> Tuple[np.ndarray, np.ndarray]:
    """Fill the DP cell by cell; return (pointers, last score row)."""
    n, m = len(query), len(target)
    q = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    t = np.frombuffer(target.encode("ascii"), dtype=np.uint8)
    sub = np.where(q[:, None] == t[None, :], MATCH_SCORE, MISMATCH_SCORE)

    score = np.empty(m + 1)
    score[:] = np.arange(m + 1) * GAP_SCORE
    pointers = np.zeros((n + 1, m + 1), dtype=np.int8)
    pointers[0, 1:] = _LEFT
    for i in range(1, n + 1):
        prev = score.copy()
        diag = prev[:-1] + sub[i - 1]
        up = prev[1:] + GAP_SCORE
        score[0] = i * GAP_SCORE
        pointers[i, 0] = _UP
        best = np.maximum(diag, up)
        ptr = np.where(diag >= up, _DIAG, _UP).astype(np.int8)
        row = score  # alias; filled in-place
        for j in range(1, m + 1):
            left = row[j - 1] + GAP_SCORE
            if left > best[j - 1]:
                row[j] = left
                pointers[i, j] = _LEFT
            else:
                row[j] = best[j - 1]
                pointers[i, j] = ptr[j - 1]
    return pointers, score


def oracle_global_align(query: str, target: str) -> PairwiseAlignment:
    """Needleman-Wunsch with linear gaps, scalar left-gap pass."""
    if not query or not target:
        raise ValueError("sequences must be non-empty")
    pointers, score = oracle_fill(query, target)
    aligned_q: List[str] = []
    aligned_t: List[str] = []
    i, j = len(query), len(target)
    while i > 0 or j > 0:
        move = pointers[i, j]
        if i > 0 and j > 0 and move == _DIAG:
            aligned_q.append(query[i - 1])
            aligned_t.append(target[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and (move == _UP or j == 0):
            aligned_q.append(query[i - 1])
            aligned_t.append(GAP)
            i -= 1
        else:
            aligned_q.append(GAP)
            aligned_t.append(target[j - 1])
            j -= 1
    return PairwiseAlignment(
        aligned_query="".join(reversed(aligned_q)),
        aligned_target="".join(reversed(aligned_t)),
        score=float(score[-1]),
    )
