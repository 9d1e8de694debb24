"""Exact rank and kernel dimension of sparse rational matrices.

Each row is cleared to integers, then eliminated fraction-free over Python
integers in one echelon pass whose order is fixed before it starts: columns
are ranked by (nonzero count, index), and each row is taken once, in
(nonzero count, row index) order.  A pivot table maps a leading (lowest
ranked) column to the row that owns it.  A row is reduced against the table,

    row <- (p // g) * row - (row[c] // g) * pivot_row,   g = gcd(p, row[c]),

and its content (gcd) stripped, until it is zero or its leading column has
no owner yet, which makes it that column's pivot row.  All arithmetic stays
in arbitrary-precision integers, so the result is exact unconditionally.

There is no modular/CRT path (that would be the natural extension for
weights far beyond the tables computed here).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .matrix import RationalMatrix

BACKEND = "python"


@dataclass
class EliminationReport:
    """What one elimination did: rank, pivots in order, fill-in, wall time."""

    rank: int
    pivots: list[tuple[int, int]] = field(default_factory=list)
    fill_in: int = 0
    elapsed: float = 0.0
    backend: str = BACKEND

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "pivots": [list(p) for p in self.pivots],
            "fill_in": self.fill_in,
            "elapsed": self.elapsed,
            "backend": self.backend,
        }


def _integer_rows(matrix: RationalMatrix) -> list[dict[int, int]]:
    """Clear each row to integers (multiply by the lcm of denominators)."""
    rows: list[dict[int, Fraction]] = matrix.row_lists()
    out: list[dict[int, int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values()))  # lcm() of no values is 1
        out.append({c: int(v * mult) for c, v in row.items()})
    return out


def eliminate(rows: list[dict[int, int]]) -> tuple[int, list[tuple[int, int]], int]:
    """Return (rank, pivot sequence, fill-in count); ``rows`` is consumed."""
    counts = Counter(c for row in rows for c in row)
    order = sorted(counts, key=lambda c: (counts[c], c))
    rank_of = {c: i for i, c in enumerate(order)}
    for r, row in enumerate(rows):
        rows[r] = {rank_of[c]: v for c, v in row.items()}

    # leading column -> (pivot entry, rest of its pivot row)
    pivot_rows: dict[int, tuple[int, dict[int, int]]] = {}
    pivots: list[tuple[int, int]] = []
    fill = 0
    for r in sorted(range(len(rows)), key=lambda r: (len(rows[r]), r)):
        row = rows[r]
        while row:
            pc = min(row)
            if pc not in pivot_rows:
                pivot_rows[pc] = (row.pop(pc), row)
                pivots.append((r, order[pc]))
                break
            p, prow = pivot_rows[pc]
            q = row.pop(pc)
            g = gcd(p, q)
            mp = p // g
            mq = q // g
            if mp != 1:
                for c in row:
                    row[c] *= mp
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -mq * v
                    fill += 1
                else:
                    val = old - mq * v
                    if val:
                        row[c] = val
                    else:
                        del row[c]
            content = gcd(*row.values())
            if content > 1:
                for c in row:
                    row[c] //= content
    return len(pivots), pivots, fill


def rank_report(matrix: RationalMatrix) -> EliminationReport:
    """Exact rank over the rationals with the elimination trace."""
    start = time.perf_counter()
    r, pivots, fill = eliminate(_integer_rows(matrix))
    return EliminationReport(rank=r, pivots=pivots, fill_in=fill,
                             elapsed=time.perf_counter() - start)


def rank(matrix: RationalMatrix) -> int:
    return rank_report(matrix).rank


def kernel_dim(matrix: RationalMatrix) -> int:
    """Nullity: columns minus rank."""
    return matrix.cols - rank(matrix)
