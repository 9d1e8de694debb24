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

Cells of one weight share their ranks through d o d = 0 ("clearing", as in
persistent homology).  Let Q be the pivot columns of the cell (w, m): degree-m
monomials, which index rows of the cell (w, m+1).  The row space of the
boundary from degree m lies in the left kernel of the boundary from degree
m+1 and projects onto the Q coordinates, so every row of the cell (w, m+1)
indexed by Q is a combination of the rows outside Q.  Those rows are emptied
before elimination: the rank is that of the other rows, and only about
Betti-many rows reduce to zero.

``betti_row`` checks the piece dimensions, the forced ranks and every row it
computes and raises :class:`TableInvariantError` when one breaks these
identities.  With clearing, a rank can no longer exceed dim_m - r_m, so
"Betti >= 0" cannot catch an assembly fault any more; a Freivalds probe of
d o d = 0 on every cell does instead.  Each cell's rows are multiplied by a
random vector xi (30-bit entries, seeded by (w, m)) before they are emptied,
and eta = xi^T d_m must satisfy eta^T d_{m+1} = 0 on every column of the
next cell, in exact integers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .chain import (boundary_rows, chain_dim, count_up_to, support_degrees, torus_pieces,
                    zero_piece_basis)
from .exterior import GeneratorSystem
from .ranklin import EliminationReport, rank_rows
from .rational import format_rational

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


def _piece_ranks(gs: GeneratorSystem, w: int) -> tuple[dict[int, int], dict[int, int]]:
    """Ranks forced by the nonzero torus pieces, and the dimensions of the zero piece.

    Returns ({m: summed rank of the boundary from degree m over the nonzero
    pieces}, {m: dim of the torus-weight-0 piece}).  Raises
    :class:`TableInvariantError` unless the piece dimensions add up to
    ``chain_dim``, and every forced rank lies in [0, min(rows, cols)] of its
    piece, which at one past the top degree means the recurrence ends at 0.
    """
    pieces = torus_pieces(gs, w)
    for m in set(support_degrees(gs, w)).union(*pieces.values()):
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


def _probe(rows: list[dict[int, int]], cols: int, below: list[int], w: int, m: int) -> list[int]:
    """xi^T times the int rows of the cell (w, m), for xi seeded by (w, m).

    ``below`` is that vector of the cell (w, m-1), over its columns, which
    index these rows (zeros when that cell was not ranked).  Raises
    :class:`TableInvariantError` unless ``below``^T times these rows is zero,
    as d o d = 0 makes it.
    """
    rng = random.Random(f"{w},{m}")
    out = [0] * cols
    check = [0] * cols
    for row, e in zip(rows, below):
        x = rng.getrandbits(30)
        for c, v in row.items():
            out[c] += x * v
            check[c] += e * v
    if any(check):
        raise TableInvariantError(
            f"dd = 0 probe fails at w={w}, m={m}: the boundary from degree {m} composed "
            f"with the one below is nonzero at column {next(c for c, v in enumerate(check) if v)}")
    return out


def betti_row(gs: GeneratorSystem, w: int,
              on_cell: CellCallback | None = None) -> BettiRow:
    """Assemble and check one weight: supports by counting, ranks shared across cells.

    The torus-weight-0 basis of each support degree is listed once and kept
    only while the row is computed.  Each support degree m >= 1 has its
    piece assembled from those lists as int rows of D_w times the boundary
    (``chain.boundary_rows``), probed for d o d = 0 against the cell below,
    cleared of the rows that index that cell's pivot columns, and ranked
    once (0 x k when m-1 is empty); without a torus grading that piece is
    the whole cell.  ``on_cell(w, m, shape, report, forced)`` receives the
    (rows, cols) shape of what was eliminated (cleared rows included) and
    the rank the other pieces add to it.
    """
    degrees = support_degrees(gs, w)
    if not degrees:
        return BettiRow(w, [], [], [], [])
    dims = [chain_dim(gs, m, w) for m in degrees]
    ranks, piece_dims = _piece_ranks(gs, w)
    bases = {m: zero_piece_basis(gs, m, w) for m in degrees}
    # the probe vector and the pivot columns of the last ranked cell, keyed by its degree
    below: dict[int, tuple[list[int], set[int]]] = {}
    for m in degrees:
        if m < 1:
            continue
        rows = boundary_rows(gs, w, bases[m], bases.get(m - 1, []))
        shape = (len(rows), len(bases[m]))
        counted = (piece_dims.get(m - 1, 0), piece_dims.get(m, 0))
        if shape != counted:
            raise TableInvariantError(
                f"matrix at w={w}, m={m} is {shape[0]} x {shape[1]}, "
                f"its counted piece {counted[0]} x {counted[1]}")
        eta, cleared = below.get(m - 1, ([0] * shape[0], ()))
        eta = _probe(rows, shape[1], eta, w, m)
        for r in cleared:
            rows[r] = {}
        report = rank_rows(rows)
        below = {m: (eta, {c for _, c in report.pivots})}
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


def verify_table(computed: BettiTable, expected) -> TableDiff:
    """Cell-by-cell comparison where the expected document provides values.

    The expected document mirrors the table JSON; ``dims``, ``kernels`` and
    ``betti`` are each optional per row.  Degrees absent from the computed
    support compare as empty cells (0, 0, 0).
    """
    if isinstance(expected, (str, bytes)):
        expected = json.loads(expected)
    if not isinstance(expected, dict) or not isinstance(expected.get("rows"), list):
        raise ValueError("expected-table document needs a 'rows' list")
    diff = TableDiff()
    for row_doc in expected["rows"]:
        if "w" not in row_doc:
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


def load_expected(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
