"""Exact rank of sparse rational matrices, and the sparse rational matrix type.

Rows are eliminated fraction-free over Python integers in one echelon pass
whose order is fixed before it starts: each row is taken once, in (nonzero
count, row index) order, and its leading column is its lowest column index
(for the table's input, the first monomial of a boundary column in the
numbering ``homology.betti_row`` gives the rows).  A pivot table maps a
leading column to the row that owns it.  A row is reduced against it,

    row <- (p // g) * row - (row[c] // g) * pivot_row,   g = gcd(p, row[c]),

and its content (gcd) stripped, until it is zero or its leading column has
no owner yet, which makes it that column's pivot row.  All arithmetic stays
in arbitrary-precision integers, so the result is exact unconditionally.

``rank_rows`` is the kernel: it times the pass, counts the rows that enter
with entries, and returns an :class:`EliminationReport` whose fields are in
the order of the ``superhomology table --report`` keys.  The table hands it
the columns of D_w times the boundary (``chain.boundary_columns``, same rank)
as its input rows, only those the cell above does not prove dependent (d o d
= 0, the "twist", in ``homology.betti_row``), in lex order.  Both degrees of
a cell are numbered odd letters first, the one numbering ``betti_row`` holds
each degree in, so that a pivot is the lowest one of its column.
``rank_report`` takes a :class:`RationalMatrix` (the whole boundary matrix
of a cell, as ``chain.boundary_matrix`` gives it and ``--dump-matrix`` writes
it) and first clears each row to integers (multiplied by the lcm of its
denominators).

There is no modular/CRT path (that would be the natural extension for
weights far beyond the tables computed here).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from fractions import Fraction
from io import TextIOBase
from math import gcd, lcm

from .algebra import format_rational

BACKEND = "python"


class RationalMatrix:
    """A rows x cols sparse matrix over the rationals; zeros are not stored.

    Entries are ``int`` or ``Fraction``: the boundary assembly stores the
    ints that integral brackets give as they are, and ``set`` stores a
    ``Fraction``.  Both compare and hash equal when their values are equal.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Iterable[tuple[int, int, int | Fraction]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"bad shape {rows} x {cols}")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            for r, c, v in entries:
                self.set(r, c, v)

    def set(self, r: int, c: int, value) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows} x {self.cols}")
        value = Fraction(value)
        if value:
            self.entries[(r, c)] = value
        else:
            self.entries.pop((r, c), None)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def dump(self, fh: TextIOBase) -> None:
        """Header "rows cols", then "r c p/q" sorted by (r, c)."""
        fh.write(f"{self.rows} {self.cols}\n")
        for (r, c) in sorted(self.entries):
            fh.write(f"{r} {c} {format_rational(self.entries[(r, c)])}\n")


class EliminationReport:
    """What one elimination did; ``FIELDS`` is their order, that of the ``--report`` keys.

    ``pivots`` are (row, column) of the input in the order they were found
    (``homology.betti_row`` maps each input row to the column of the piece it
    came from, so its pivots are (row, column) in the numbering of the piece,
    odd letters first), and
    ``nonzero_rows`` counts the rows that entered with entries.
    """

    FIELDS = ("rank", "pivots", "fill_in", "nonzero_rows", "elapsed", "backend")

    def __init__(self, rank: int, pivots: list[tuple[int, int]], fill_in: int,
                 nonzero_rows: int, elapsed: float, backend: str = BACKEND):
        self.rank, self.pivots, self.fill_in = rank, pivots, fill_in
        self.nonzero_rows, self.elapsed, self.backend = nonzero_rows, elapsed, backend

    def fields(self) -> tuple:
        """The field values in ``FIELDS`` order: ``EliminationReport(*r.fields())`` copies r."""
        return tuple(getattr(self, name) for name in self.FIELDS)


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
    # leading column -> (pivot entry, rest of its pivot row)
    pivot_rows: dict[int, tuple[int, dict[int, int]]] = {}
    pivots: list[tuple[int, int]] = []
    fill = 0
    for r in sorted(range(len(rows)), key=list(map(len, rows)).__getitem__):
        row = rows[r]
        while row:
            pc = min(row)
            if pc not in pivot_rows:
                pivot_rows[pc] = (row.pop(pc), row)
                pivots.append((r, pc))
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
