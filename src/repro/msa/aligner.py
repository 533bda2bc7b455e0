"""Pairwise global alignment and MSA assembly.

After the search cascade accepts hits, they are aligned to the query to
form the MSA rows that feed AF3's feature pipeline.  We use
Needleman-Wunsch with affine-free linear gap costs, one numpy sweep per
query residue, and an int8 pointer matrix for exact traceback.

Within a row, cell ``j`` is the best of a diagonal or up move (both read
the previous row, so they are whole-row numpy operations) and a left
move from cell ``j - 1`` of the same row.  That left chain is a prefix
max: with ``cand = [i*GAP, max(diag, up)...]`` and
``ramp[j] = j*GAP``,

    row[j] = max over k <= j of (cand[k] + (j - k)*GAP)
           = max.accumulate(cand - ramp)[j] + ramp[j].

Every score is a small integer (``MATCH_SCORE``, ``MISMATCH_SCORE`` and
``GAP_SCORE`` are integer-valued) held in float64, so every sum and
difference here is exact and the prefix max gives the cell-by-cell
recurrence's rows bit for bit.  A cell points LEFT only when the left
move is strictly better, so ties keep the DIAG/UP choice, DIAG first.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from ..sequences.alphabets import GAP, MoleculeType
from .jackhmmer import Hit

MATCH_SCORE = 2.0
MISMATCH_SCORE = -1.0
GAP_SCORE = -2.0

# Pointer codes for traceback.
_DIAG, _UP, _LEFT = 0, 1, 2


@dataclasses.dataclass(frozen=True)
class PairwiseAlignment:
    """A query/target global alignment with gaps."""

    aligned_query: str
    aligned_target: str
    score: float

    def __post_init__(self) -> None:
        if len(self.aligned_query) != len(self.aligned_target):
            raise ValueError("aligned strings must have equal length")

    @property
    def identity(self) -> float:
        """Fraction of aligned columns with identical residues."""
        pairs = [
            (q, t) for q, t in zip(self.aligned_query, self.aligned_target)
            if q != GAP and t != GAP
        ]
        if not pairs:
            return 0.0
        return sum(q == t for q, t in pairs) / len(pairs)

    def target_row(self) -> str:
        """Target residues projected onto query columns.

        Columns where the query has a gap (target insertions) are
        dropped — MSA rows are indexed by query positions, matching how
        AF3 builds its (M x N) MSA matrix.
        """
        return "".join(
            t for q, t in zip(self.aligned_query, self.aligned_target) if q != GAP
        )


def _fill(query: str, target: str) -> Tuple[np.ndarray, np.ndarray]:
    """Fill the DP; return the traceback pointers and the last score row."""
    n, m = len(query), len(target)
    q = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    t = np.frombuffer(target.encode("ascii"), dtype=np.uint8)
    sub = np.where(q[:, None] == t[None, :], MATCH_SCORE, MISMATCH_SCORE)

    ramp = np.arange(m + 1) * GAP_SCORE
    score = ramp
    cand = np.empty(m + 1)
    pointers = np.zeros((n + 1, m + 1), dtype=np.int8)
    pointers[0, 1:] = _LEFT
    pointers[1:, 0] = _UP
    for i in range(1, n + 1):
        diag = score[:-1] + sub[i - 1]
        up = score[1:] + GAP_SCORE
        best = np.maximum(diag, up)
        # Left moves chain along the row: a prefix max over
        # cand[k] - k*GAP resolves them in one pass, exactly (integer
        # scores in float64).
        cand[0] = i * GAP_SCORE
        cand[1:] = best
        score = np.maximum.accumulate(cand - ramp) + ramp
        pointers[i, 1:] = np.where(
            score[:-1] + GAP_SCORE > best, _LEFT,
            np.where(diag >= up, _DIAG, _UP),
        )
    return pointers, score


def global_align(query: str, target: str) -> PairwiseAlignment:
    """Needleman-Wunsch with linear gaps; vectorised rows, exact traceback."""
    if not query or not target:
        raise ValueError("sequences must be non-empty")
    pointers, score = _fill(query, target)
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


@dataclasses.dataclass(frozen=True)
class Msa:
    """A multiple sequence alignment for one query chain.

    ``rows[0]`` is always the query itself; every row has the query's
    length (hit insertions relative to the query are dropped, deletions
    appear as gaps).
    """

    query_name: str
    molecule_type: MoleculeType
    rows: Tuple[str, ...]
    row_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("MSA must contain at least the query row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("all MSA rows must have the query's length")
        if len(self.rows) != len(self.row_names):
            raise ValueError("rows and row_names must align")

    @property
    def depth(self) -> int:
        """Number of sequences M (including the query)."""
        return len(self.rows)

    @property
    def width(self) -> int:
        """Aligned length N (the query length)."""
        return len(self.rows[0])

    def column(self, index: int) -> str:
        return "".join(row[index] for row in self.rows)

    def coverage(self) -> np.ndarray:
        """Per-column fraction of non-gap residues."""
        width = self.width
        cov = np.zeros(width)
        for row in self.rows:
            cov += np.frombuffer(row.encode("ascii"), dtype=np.uint8) != ord(GAP)
        return cov / self.depth


def assemble_msa(
    query_name: str,
    query_sequence: str,
    molecule_type: MoleculeType,
    hits: Sequence[Hit],
    max_rows: int = 512,
) -> Msa:
    """Align accepted hits to the query and stack them into an MSA."""
    rows: List[str] = [query_sequence]
    names: List[str] = [query_name]
    for hit in list(hits)[: max_rows - 1]:
        alignment = global_align(query_sequence, hit.target_sequence)
        row = alignment.target_row()
        # target_row drops query-gap columns, so it has exactly the
        # query's length by construction.
        rows.append(row)
        names.append(hit.target_name)
    return Msa(
        query_name=query_name,
        molecule_type=molecule_type,
        rows=tuple(rows),
        row_names=tuple(names),
    )
