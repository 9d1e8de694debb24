"""The traced pass: one sequential Betti table with a span at every layer call.

It drives the same computation as ``homology.betti_table`` through the public
functions, cell by cell: ``support_degrees`` -> ``chain_basis(m)``,
``chain_basis(m-1)`` -> ``boundary_matrix`` -> ``rank_report``, then the row.
Spans are recorded from here, around the calls into each layer, and kept in
memory until the pass ends.  The structural record of each (w, m) cell is
computed under a ``probe`` span: it is a child of the row, so it is not
counted as the row's own time, and no layer total includes it.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from superhomology import (BettiRow, boundary_matrix, chain_basis, chain_dim,
                           rank_report, support_degrees)
from superhomology.ranklin import _integer_rows


class Tracer:
    """Spans of one run: name, start, end, parent span id and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.records), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None,
                  **attrs}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def support_blocks(matrix) -> tuple[int, int]:
    """(block count, columns in the largest block) of the row/column support graph.

    A block is a connected component that holds at least one nonzero entry;
    zero columns belong to no block.
    """
    parent = list(range(matrix.rows + matrix.cols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    used_cols = set()
    for r, c in matrix.entries:
        used_cols.add(c)
        a, b = find(r), find(matrix.rows + c)
        if a != b:
            parent[a] = b
    sizes = Counter(find(matrix.rows + c) for c in used_cols)
    return len(sizes), max(sizes.values(), default=0)


def cell_structure(matrix, int_rows) -> dict:
    """Shape, nnz, fraction entries, input bit length and blocks of one matrix."""
    blocks, largest = support_blocks(matrix)
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "nnz": matrix.nnz(),
        "fraction_entries": sum(1 for v in matrix.entries.values() if v.denominator != 1),
        "input_max_bits": max((abs(v).bit_length() for row in int_rows for v in row.values()),
                              default=0),
        "blocks": blocks,
        "largest_block_cols": largest,
    }


def traced_row(gs, w: int, tracer: Tracer, cells: list[dict]) -> BettiRow:
    """The row ``homology.betti_row`` computes, with the same rank bookkeeping."""
    degrees = support_degrees(gs, w)
    if not degrees:
        return BettiRow(w, [], [], [], [])
    dims = [chain_dim(gs, m, w) for m in degrees]
    in_support = set(degrees)
    ranks: dict[int, int] = {}
    for m in sorted(in_support | {m + 1 for m in degrees}):
        if m < 1 or m not in in_support or (m - 1) not in in_support:
            continue
        with tracer.span("chain.basis", w=w, m=m):
            chain_basis(gs, m, w)
            chain_basis(gs, m - 1, w)
        with tracer.span("chain.assembly", w=w, m=m):
            matrix = boundary_matrix(gs, m, w)
        with tracer.span("probe", w=w, m=m):
            with tracer.span("ranklin.introws", w=w, m=m):
                int_rows = _integer_rows(matrix)
            cell = {"w": w, "m": m, **cell_structure(matrix, int_rows)}
        with tracer.span("ranklin.rank", w=w, m=m):
            report = rank_report(matrix)
        cell.update(rank=report.rank, fill_in=report.fill_in, backend=report.backend)
        cells.append(cell)
        ranks[m] = report.rank
    kernels = [d - ranks.get(m, 0) for m, d in zip(degrees, dims)]
    betti = [k - ranks.get(m + 1, 0) for m, k in zip(degrees, kernels)]
    return BettiRow(w, degrees, dims, kernels, betti)


def traced_table(gs, w_max: int, tracer: Tracer) -> tuple[list[BettiRow], list[dict]]:
    """Rows 0..w_max in order, and one structural record per boundary map."""
    rows: list[BettiRow] = []
    cells: list[dict] = []
    with tracer.span("homology.table"):
        for w in range(w_max + 1):
            with tracer.span("homology.row", w=w):
                rows.append(traced_row(gs, w, tracer, cells))
    return rows, cells
