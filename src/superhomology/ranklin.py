"""Exact rank and kernel dimension of sparse rational matrices.

Each row is cleared to integers, then eliminated fraction-free over Python
integers.  Each step picks the pivot that minimizes fill (fewest-nonzero row,
then the column in it held by fewest rows, ties by lowest column then lowest
row index) and updates only the rows that actually contain the pivot column:

    row <- (p // g) * row - (row[c] // g) * pivot_row,   g = gcd(p, row[c])

followed by stripping the content (gcd) of the updated row.  All arithmetic
stays in arbitrary-precision integers, so the result is exact
unconditionally; the gcd reductions keep entry growth in check without ever
scaling rows that miss the pivot column.

There is no modular/CRT path (that would be the natural extension for
weights far beyond the tables computed here).
"""

from __future__ import annotations

import time
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
    active: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        if row:
            active[r] = row
            for c in row:
                col_rows.setdefault(c, set()).add(r)

    pivots: list[tuple[int, int]] = []
    fill = 0
    while active:
        # pivot row: fewest nonzeros, lowest index; pivot column within it:
        # held by fewest rows, lowest index
        pr = min(active, key=lambda r: (len(active[r]), r))
        prow = active.pop(pr)
        pc = min(prow, key=lambda c: (len(col_rows[c]), c))
        pivots.append((pr, pc))
        p = prow[pc]
        for c in prow:
            col_rows[c].discard(pr)

        for r in sorted(col_rows[pc]):
            row = active[r]
            q = row.pop(pc)
            col_rows[pc].discard(r)
            g = gcd(p, q)
            mp = p // g
            mq = q // g
            if mp != 1:
                for c in row:
                    row[c] *= mp
            for c, v in prow.items():
                if c == pc:
                    continue
                old = row.get(c)
                if old is None:
                    row[c] = -mq * v
                    col_rows.setdefault(c, set()).add(r)
                    fill += 1
                else:
                    val = old - mq * v
                    if val:
                        row[c] = val
                    else:
                        del row[c]
                        col_rows[c].discard(r)
            if not row:
                del active[r]
                continue
            content = 0
            for v in row.values():
                content = gcd(content, v)
                if content == 1:
                    break
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
