"""Per-weight homology: dimensions, kernels, Betti numbers, table checks.

For a fixed weight the chain spaces form a finite complex; a row of the
final table holds, for every degree in the support, the space dimension,
the kernel dimension of the outgoing boundary, and the Betti number
(kernel minus the rank of the incoming boundary).  The Euler alternating
sum of the dimensions vanishes for every weight.

When the algebra has a torus grading (``GeneratorSystem.torus``), the
weighted complex splits into pieces by torus weight.  A level-1 generator x
is even, so by the Cartan homotopy formula d e(x) + e(x) d = +-theta(x),
with e(x) the wedge with x, it acts by zero on homology; theta(x) is the
scalar torus weight on a piece, so every piece of nonzero torus weight is
acyclic.  Its ranks follow from its dimensions: 0 at its lowest degree,
then r_{m+1} = dim_m - r_m.  Only the torus-weight-0 piece is assembled and
eliminated; without a grading it is the whole complex.

Cells of one weight share their ranks through d o d = 0 (the "twist" of
persistent homology: Chen & Kerber 2011, Bauer, Kerber & Reininghaus 2014).
Each weight runs from its top support degree down to degree 1.  The kept
columns of the cell (w, m+1) enter elimination as the kernel's input rows,
with the degree-m monomials numbered by their odd letters, then their even
ones, so that a pivot (the lowest input column) is the first monomial of its
reduced column in that numbering, the "lowest one" of persistence.  Let P be
those pivot monomials.  A reduced column lies in the image of the boundary
from degree m+1, which the boundary from degree m kills, and the reduced
columns have distinct lowest ones in P.  So, by induction from the end of
the numbering, each monomial of P is, modulo that image, a combination of
the monomials outside P, and the columns of the cell (w, m) indexed by P are
combinations of its other columns.  They are never assembled: the rank is
that of the kept columns.  Any numbering gives the rank, but not the same
fill-in: numbered in basis order from the last, g3d3 to w = 16 fills in
29,873 entries instead of 4,523 and loses its gain; from the first, the gl2
row w = 8 takes 11 s instead of 0.3 s.

``betti_row`` checks the piece dimensions, the forced ranks and every row it
computes and raises :class:`TableInvariantError` when one breaks these
identities.  A rank can no longer exceed dim_m - r_{m+1}, so "Betti >= 0"
cannot catch an assembly fault any more; a probe of d o d = 0 between every
two cells does instead.  Before the cell (w, m+1) is eliminated, a sample of
max(8, kept / 16) of its kept columns is combined with random coefficients
xi (30-bit, seeded by (w, m+1)); the boundary from degree m must take that
vector to zero, in exact integers.  That reads the columns of the cell
(w, m) already assembled, and assembles only those of P the vector reaches.
A fault in many entries (a whole sign case) is caught at once, a single
wrong entry only where the sample reaches it; ``tests/oracles.py`` keeps the
probe over every column.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .algebra import format_rational
from .chain import (boundary_columns, chain_dim, count_up_to, support_degrees, torus_pieces,
                    zero_piece_basis)
from .exterior import GeneratorSystem
from .ranklin import EliminationReport, rank_rows

# (w, m, (rows, cols) of the eliminated piece, its report, rank forced by the acyclic pieces)
CellCallback = Callable[[int, int, tuple[int, int], EliminationReport, int], None]


class TableInvariantError(RuntimeError):
    """A computed row breaks an identity every Betti row must satisfy."""


@dataclass
class BettiRow:
    """One weight: parallel lists over the support degrees."""

    w: int
    degrees: list[int]
    dims: list[int]
    kernels: list[int]
    betti: list[int]

    def cell(self, degree: int) -> tuple[int, int, int]:
        """(space_dim, kernel_dim, betti) at a degree; empty degrees give zeros."""
        if degree in self.degrees:
            i = self.degrees.index(degree)
            return self.dims[i], self.kernels[i], self.betti[i]
        return 0, 0, 0

    def euler(self) -> int:
        return sum((-1) ** m * d for m, d in zip(self.degrees, self.dims))

    def validate(self) -> None:
        """Raise :class:`TableInvariantError` unless the row is consistent.

        Betti numbers are >= 0, every kernel lies in [0, dim], and the
        alternating sums of the dimensions and of the Betti numbers vanish.
        """
        if any(b < 0 for b in self.betti):
            raise TableInvariantError(f"negative Betti number at weight {self.w}: {self.betti}")
        if not all(0 <= k <= d for k, d in zip(self.kernels, self.dims)):
            raise TableInvariantError(
                f"kernel outside [0, dim] at weight {self.w}: "
                f"kernels {self.kernels}, dims {self.dims}")
        if self.euler() != 0:
            raise TableInvariantError(f"nonzero Euler sum of dimensions at weight {self.w}")
        if sum((-1) ** m * b for m, b in zip(self.degrees, self.betti)) != 0:
            raise TableInvariantError(f"nonzero Euler sum of Betti numbers at weight {self.w}")

    def to_dict(self) -> dict:
        return {"w": self.w, "degrees": list(self.degrees), "dims": list(self.dims),
                "kernels": list(self.kernels), "betti": list(self.betti)}


@dataclass
class BettiTable:
    algebra: str
    params: dict[str, Fraction] = field(default_factory=dict)
    rows: list[BettiRow] = field(default_factory=list)

    def row(self, w: int) -> BettiRow | None:
        for r in self.rows:
            if r.w == w:
                return r
        return None

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "params": {k: format_rational(v) for k, v in sorted(self.params.items())},
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["w,degree,space_dim,kernel_dim,betti"]
        for row in self.rows:
            for m, d, k, b in zip(row.degrees, row.dims, row.kernels, row.betti):
                lines.append(f"{row.w},{m},{d},{k},{b}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        """One block per weight in the layout of the printed final tables."""
        title = self.algebra
        if self.params:
            binds = ", ".join(f"{k}={format_rational(v)}"
                              for k, v in sorted(self.params.items()))
            title += f" ({binds})"
        out = [f"## {title}", ""]
        for row in self.rows:
            out.append(f"### weight w = {row.w}")
            out.append("")
            if not row.degrees:
                out.append("(empty complex)")
                out.append("")
                continue
            header = "| |" + "|".join(f" m={m} " for m in row.degrees) + "|"
            rule = "|---" * (len(row.degrees) + 1) + "|"
            out.append(header)
            out.append(rule)
            out.append("| SpaceDim |" + "|".join(f" {d} " for d in row.dims) + "|")
            out.append("| KerDim |" + "|".join(f" {k} " for k in row.kernels) + "|")
            out.append("| Betti |" + "|".join(f" {b} " for b in row.betti) + "|")
            out.append("")
        return "\n".join(out)


def _piece_ranks(gs: GeneratorSystem, w: int,
                 degrees: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Ranks forced by the nonzero torus pieces, and the dimensions of the zero piece.

    Returns ({m: summed rank of the boundary from degree m over the nonzero
    pieces}, {m: dim of the torus-weight-0 piece}).  Raises
    :class:`TableInvariantError` unless the piece dimensions add up to
    ``chain_dim``, and every forced rank lies in [0, min(rows, cols)] of its
    piece, which at one past the top degree means the recurrence ends at 0.
    """
    pieces = torus_pieces(gs, w)
    for m in set(degrees).union(*pieces.values()):
        total = sum(dims.get(m, 0) for dims in pieces.values())
        if total != chain_dim(gs, m, w):
            raise TableInvariantError(
                f"torus pieces at w={w}, m={m} add up to {total}, "
                f"not chain_dim {chain_dim(gs, m, w)}")
    zero = (0,) * len(gs.torus)
    forced: dict[int, int] = {}
    for torus, dims in pieces.items():
        if torus == zero:
            continue
        r = 0  # rank of the boundary into the lowest degree
        for m in range(min(dims), max(dims) + 2):
            if not 0 <= r <= min(dims.get(m, 0), dims.get(m - 1, 0)):
                raise TableInvariantError(
                    f"forced rank {r} at w={w}, m={m}, torus weight {torus} is outside "
                    f"[0, min({dims.get(m - 1, 0)}, {dims.get(m, 0)})]")
            forced[m] = forced.get(m, 0) + r
            r = dims.get(m, 0) - r
    return forced, pieces.get(zero, {})


# the probe combines max(PROBE_MIN, kept // PROBE_SHARE) kept columns of each cell
PROBE_MIN, PROBE_SHARE = 8, 16


def betti_row(gs: GeneratorSystem, w: int,
              on_cell: CellCallback | None = None) -> BettiRow:
    """Assemble and check one weight: supports by counting, cells from the top degree down.

    The torus-weight-0 basis of each support degree is listed once and kept
    only while the row is computed.  Each support degree m >= 1 has the
    columns of its piece that the cell above leaves assembled as int columns
    of D_w times the boundary (``chain.boundary_columns``), is probed against
    the vector the cell above pushes into it, and is ranked once (0 x k when
    m-1 is empty); without a torus grading that piece is the whole cell.
    ``on_cell(w, m, shape, report, forced)`` receives the (rows, cols) shape
    of the piece, the report with its pivots as (row, column) of the piece,
    and the rank the other pieces add to it; the cells of a weight come from
    the top degree down.
    """
    degrees = support_degrees(gs, w)
    if not degrees:
        return BettiRow(w, [], [], [], [])
    dims = [chain_dim(gs, m, w) for m in degrees]
    ranks, piece_dims = _piece_ranks(gs, w, degrees)
    bases = {m: zero_piece_basis(gs, m, w) for m in degrees}
    n_even = len(gs.even_ids)
    # the pivot monomials of the last ranked cell and its probe vector over them, keyed by degree
    above: dict[int, tuple[set[int], dict[int, int]]] = {}
    for m in reversed(degrees):
        if m < 1:
            continue
        cols, rows = bases[m], bases.get(m - 1, [])
        shape = (len(rows), len(cols))
        counted = (piece_dims.get(m - 1, 0), piece_dims.get(m, 0))
        if shape != counted:
            raise TableInvariantError(
                f"matrix at w={w}, m={m} is {shape[0]} x {shape[1]}, "
                f"its counted piece {counted[0]} x {counted[1]}")
        skip, pushed = above.get(m, (set(), {}))
        kept = [c for c in range(len(cols)) if c not in skip]
        reached = [c for c in pushed if c in skip]
        # rows numbered by their odd letters, then their even ones (a stable sort of the
        # lex order), so that a pivot is the lowest one of its column in that numbering
        order = sorted(range(len(rows)), key=[mono[n_even:] for mono in rows].__getitem__)
        columns = dict(zip(kept + reached, boundary_columns(
            gs, w, [cols[c] for c in kept + reached], [rows[r] for r in order])))
        composed: dict[int, int] = {}
        for c, x in pushed.items():
            for r, v in columns[c].items():
                composed[order[r]] = composed.get(order[r], 0) + x * v
        if any(composed.values()):
            raise TableInvariantError(
                f"dd = 0 probe fails at w={w}, m={m + 1}: the boundary from degree {m + 1} "
                f"composed with the one below is nonzero at row "
                f"{next(r for r, v in composed.items() if v)}")
        rng = random.Random(f"{w},{m}")
        push: dict[int, int] = {}
        for c in rng.sample(kept, min(len(kept), max(PROBE_MIN, len(kept) // PROBE_SHARE))):
            x = rng.getrandbits(30)
            for r, v in columns[c].items():
                push[order[r]] = push.get(order[r], 0) + x * v
        report = rank_rows([columns[c] for c in kept])
        report.pivots = [(order[r], kept[k]) for k, r in report.pivots]
        above = {m - 1: ({r for r, _ in report.pivots}, {r: x for r, x in push.items() if x})}
        forced = ranks.get(m, 0)
        ranks[m] = forced + report.rank
        if on_cell is not None:
            on_cell(w, m, shape, report, forced)

    kernels = [d - ranks.get(m, 0) for m, d in zip(degrees, dims)]
    betti = [k - ranks.get(m + 1, 0) for m, k in zip(degrees, kernels)]
    row = BettiRow(w, degrees, dims, kernels, betti)
    row.validate()
    return row


def betti_table(gs: GeneratorSystem, w_max: int, params: dict[str, Fraction] | None = None,
                on_cell: CellCallback | None = None) -> BettiTable:
    """Checked rows for every weight up to w_max, computed in order, named from ``gs.sc.name``."""
    count_up_to(gs, w_max)
    rows = [betti_row(gs, w, on_cell=on_cell) for w in range(w_max + 1)]
    return BettiTable(algebra=gs.sc.name, params=dict(params or {}), rows=rows)


# ---------------------------------------------------------------------------
# Comparison against expected tables.
# ---------------------------------------------------------------------------

@dataclass
class TableDiff:
    """Cell mismatches between a computed table and an expected document."""

    mismatches: list[dict] = field(default_factory=list)
    rows_checked: int = 0
    rows_skipped: int = 0
    cells_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            skipped = (f", {self.rows_skipped} expected rows beyond the computed range"
                       if self.rows_skipped else "")
            return (f"all cells match ({self.cells_checked} cells "
                    f"across {self.rows_checked} rows{skipped})\n")
        lines = [f"{len(self.mismatches)} mismatching cells:"]
        for m in self.mismatches:
            lines.append(
                f"  w={m['w']} degree={m['degree']} {m['field']}: "
                f"expected {m['expected']}, computed {m['computed']}")
        return "\n".join(lines) + "\n"


_FIELD_NAMES = (("dims", 0), ("kernels", 1), ("betti", 2))


def verify_table(computed: BettiTable, expected: dict) -> TableDiff:
    """Cell-by-cell comparison where the expected document provides values.

    The expected document (parsed JSON) mirrors the table JSON; ``dims``,
    ``kernels`` and ``betti`` are each optional per row.  Degrees absent from
    the computed support compare as empty cells (0, 0, 0).
    """
    if not isinstance(expected, dict) or not isinstance(expected.get("rows"), list):
        raise ValueError("expected-table document needs a 'rows' list")
    diff = TableDiff()
    for row_doc in expected["rows"]:
        if not isinstance(row_doc, dict) or "w" not in row_doc:
            raise ValueError(f"expected row without 'w': {row_doc!r}")
        w = int(row_doc["w"])
        degrees = row_doc.get("degrees")
        present = [(name, pos) for name, pos in _FIELD_NAMES if name in row_doc]
        if degrees is None:
            if present:
                raise ValueError(f"expected row w={w} has values but no 'degrees'")
            continue
        degrees = [int(d) for d in degrees]
        for name, _ in present:
            if len(row_doc[name]) != len(degrees):
                raise ValueError(
                    f"expected row w={w}: '{name}' length differs from 'degrees'")
        computed_row = computed.row(w)
        if computed_row is None:
            # the computed table was not taken this far; nothing to compare
            diff.rows_skipped += 1
            continue
        diff.rows_checked += 1
        for i, m in enumerate(degrees):
            cell = computed_row.cell(m)
            for name, pos in present:
                want = int(row_doc[name][i])
                got = cell[pos]
                diff.cells_checked += 1
                if want != got:
                    diff.mismatches.append({
                        "w": w, "degree": m, "field": name,
                        "expected": want, "computed": got})
    return diff
