"""Exact rank and kernel dimension of sparse rational matrices.

Rows are eliminated fraction-free over Python integers in one echelon pass
whose order is fixed before it starts: columns are ranked by (nonzero count,
index), and each row is taken once, in (nonzero count, row index) order.  A
pivot table maps a leading (lowest ranked) column to the row that owns it.
A row is reduced against the table,

    row <- (p // g) * row - (row[c] // g) * pivot_row,   g = gcd(p, row[c]),

and its content (gcd) stripped, until it is zero or its leading column has
no owner yet, which makes it that column's pivot row.  All arithmetic stays
in arbitrary-precision integers, so the result is exact unconditionally.

``rank_rows`` is the kernel: it times the pass, counts the rows that enter
with entries, and returns an :class:`EliminationReport` whose fields are in
the order of the ``superhomology table --report`` keys.  The table path
hands its rows over as ints already: ``chain.boundary_rows`` assembles D_w
times the boundary, which has the same rank, and ``rank_rows`` eliminates
them as they are, with no row cleared on its own.
Of those, only the uncleared rows carry entries: ``homology.betti_row``
has already emptied the rows that the cell below proves dependent
(d o d = 0, "clearing"), and an empty row costs nothing here.
``rank_report`` takes a :class:`RationalMatrix` and first clears each row to
integers (multiplied by the lcm of its denominators).

There is no modular/CRT path (that would be the natural extension for
weights far beyond the tables computed here).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .matrix import RationalMatrix

BACKEND = "python"


@dataclass
class EliminationReport:
    """What one elimination did; the fields are in ``--report`` key order.

    ``pivots`` are (row, column) in the order they were found, and
    ``nonzero_rows`` counts the rows that entered with entries.
    """

    rank: int
    pivots: list[tuple[int, int]]
    fill_in: int
    nonzero_rows: int
    elapsed: float
    backend: str = BACKEND


def _integer_rows(matrix: RationalMatrix) -> list[dict[int, int]]:
    """Clear each row to integers (multiply by the lcm of denominators)."""
    rows: list[dict[int, int | Fraction]] = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    for r, row in enumerate(rows):
        mult = lcm(*(v.denominator for v in row.values()))  # lcm() of no values is 1
        rows[r] = {c: int(v * mult) for c, v in row.items()}
    return rows


def rank_rows(rows: list[dict[int, int]]) -> EliminationReport:
    """Exact rank of int rows ({column: entry}, consumed) with the elimination trace."""
    start = time.perf_counter()
    nonzero = sum(1 for row in rows if row)
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
    return EliminationReport(len(pivots), pivots, fill, nonzero, time.perf_counter() - start)


def rank_report(matrix: RationalMatrix) -> EliminationReport:
    """Exact rank over the rationals with the elimination trace."""
    return rank_rows(_integer_rows(matrix))
