"""Per-weight homology: dimensions, kernels, Betti numbers, table checks.

For a fixed weight the chain spaces form a finite complex; a row of the
final table holds, for every degree in the support, the space dimension,
the kernel dimension of the outgoing boundary, and the Betti number
(kernel minus the rank of the incoming boundary).  The Euler alternating
sum of the dimensions vanishes for every weight.  So the rows are computed
apart: in ``betti_table`` this process and a forked child per other CPU
claim the weights, heaviest first, from one pipe, and the rows come back in
w order, with the ``on_cell`` calls replayed in the order one process makes
them.  A child hands back rows and calls as tuples of their fields with the
built-in ``marshal``; only a child that raised imports ``pickle``.

When the algebra has a torus grading (``GeneratorSystem.torus``), the
weighted complex splits into pieces by torus weight.  A level-1 generator x
is even, so by the Cartan homotopy formula d e(x) + e(x) d = +-theta(x),
with e(x) the wedge with x, it acts by zero on homology; theta(x) is the
scalar torus weight on a piece, so every piece of nonzero torus weight is
acyclic.  Its ranks follow from its dimensions: 0 at its lowest degree,
then r_{m+1} = dim_m - r_m.  Only the torus-weight-0 piece is assembled and
eliminated; without a grading it is the whole complex.  Its counted
dimensions (``chain.torus_pieces``) order the weights, heaviest first.

A level-1 letter z central in g and outside [g, g] is central in L and
outside [L, L], so L = L'' + kz, and by Künneth H(L) = H(L'') ⊗ Λ(z) (z is
even, of weight 0).  ``betti_table`` runs on ``GeneratorSystem.ranked``:
the given system when there is no such letter, else the algebra rebuilt on
its structure constants in a level-1 basis adapted to Z(g) and [g, g], whose
first c letters split off and are one more coordinate of the pieces.  The
piece with j of them is C(c, j) copies of the one with none, j degrees up, as
its counts must show, and has its ranks shifted so: only L'' is eliminated,
and the row of L is checked.

Cells of one weight share their ranks through d o d = 0 (the "twist" of
persistent homology: Chen & Kerber 2011, Bauer, Kerber & Reininghaus 2014).
Each weight runs from its top support degree down to degree 1.  The
torus-weight-0 piece of each degree is listed in lex order with its int
codes (``chain.numbered_bases``), whose int order is odd letters first, then
even ones, and numbered once for the whole weight by one sort of its
positions on their codes.  That one numbering gives the rows of the cell
above and the columns of the cell itself.  The kept columns of the cell
(w, m+1) enter elimination as the kernel's input rows in lex order, the
listing less the skipped columns, so that a pivot (the lowest input
column) is the first monomial of its reduced column in that numbering, the
"lowest one" of persistence.  Let P be
those pivot monomials.  A reduced column lies in the image of the boundary
from degree m+1, which the boundary from degree m kills, and the reduced
columns have distinct lowest ones in P.  So, by induction from the end of
the numbering, each monomial of P is, modulo that image, a combination of
the monomials outside P, and the columns of the cell (w, m) indexed by P are
combinations of its other columns.  They are never assembled: the rank is
that of the kept columns.  Any numbering gives the rank, but not the same
fill-in: numbered in basis order from the last, g3d3 to w = 16 fills in
29,873 entries instead of 4,523 and loses its gain; from the first, the gl2
row w = 8 takes 11 s instead of 0.3 s.  The kernel breaks ties between
columns of equal length in input order, and that order matters too: kept in
the numbering instead of lex order, the gl2 table to w = 8 fills in 102,497
entries instead of 88,530.

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

import marshal
import os
import random
import threading
from collections.abc import Callable
from fractions import Fraction
from math import comb
from operator import itemgetter

from .algebra import _integer, _known_keys, format_rational
from .chain import (boundary_columns, chain_dim, count_up_to, numbered_bases, support_degrees,
                    torus_pieces)
from .exterior import GeneratorSystem
from .ranklin import EliminationReport, rank_rows

# (w, m, (rows, cols) of the eliminated piece, its report, rank forced by the acyclic pieces)
CellCallback = Callable[[int, int, tuple[int, int], EliminationReport, int], None]


class TableInvariantError(RuntimeError):
    """A computed row breaks an identity every Betti row must satisfy."""


class BettiRow:
    """One weight: parallel lists over the support degrees."""

    def __init__(self, w: int, degrees: list[int], dims: list[int], kernels: list[int],
                 betti: list[int]):
        self.w, self.degrees, self.dims, self.kernels, self.betti = w, degrees, dims, kernels, betti

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


class BettiTable:
    def __init__(self, algebra: str, params: dict[str, Fraction] | None = None,
                 rows: list[BettiRow] | None = None):
        self.algebra = algebra
        self.params = {} if params is None else params
        self.rows = [] if rows is None else rows

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
        import json  # here, not at the top: a table computed is not always written as JSON
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
    """Ranks forced by the nonzero torus pieces of L'', and the dimensions of the zero piece.

    Returns ({m: summed rank of the boundary from degree m over those pieces},
    {m: dim of the zero piece}).  Raises :class:`TableInvariantError` unless
    the piece dimensions add up to ``chain_dim``, every forced rank lies in
    [0, min(rows, cols)] of its piece, which at one past the top degree means
    the recurrence ends at 0, and each piece with split letters is the copies
    of one without them that the module docstring says.
    """
    pieces = torus_pieces(gs, w)
    for m in set(degrees).union(*pieces.values()):
        total = sum(dims.get(m, 0) for dims in pieces.values())
        if total != chain_dim(gs, m, w):
            raise TableInvariantError(
                f"torus pieces at w={w}, m={m} add up to {total}, "
                f"not chain_dim {chain_dim(gs, m, w)}")
    zero, split = (0,) * len(gs.grading), sum(gs.split)
    forced: dict[int, int] = {}
    for key, dims in pieces.items():
        if split and key[-1]:  # a copy of a piece of L'' (see the module docstring)
            base, copies = key[:-1] + (0,), comb(split, key[-1])
            if dims != {m + key[-1]: copies * d for m, d in pieces.get(base, {}).items()}:
                raise TableInvariantError(f"piece {key} at w={w} is not {copies} copies of "
                                          f"piece {base}, {key[-1]} degrees up")
            continue
        if key == zero:
            continue
        r = 0  # rank of the boundary into the lowest degree
        for m in range(min(dims), max(dims) + 2):
            if not 0 <= r <= min(dims.get(m, 0), dims.get(m - 1, 0)):
                raise TableInvariantError(
                    f"forced rank {r} at w={w}, m={m}, torus weight {key} is outside "
                    f"[0, min({dims.get(m - 1, 0)}, {dims.get(m, 0)})]")
            forced[m] = forced.get(m, 0) + r
            r = dims.get(m, 0) - r
    return forced, pieces.get(zero, {})


# the probe combines max(PROBE_MIN, kept // PROBE_SHARE) kept columns of each cell
PROBE_MIN, PROBE_SHARE = 8, 16


def betti_row(gs: GeneratorSystem, w: int,
              on_cell: CellCallback | None = None) -> BettiRow:
    """Assemble and check one weight: supports by counting, cells from the top degree down.

    The torus-weight-0 basis of each support degree is listed and numbered
    once and kept only while the row is computed.  Each support degree m >= 1 has the
    columns of its piece that the cell above leaves assembled as int columns
    of D_w times the boundary (``chain.boundary_columns``), is probed against
    the vector the cell above pushes into it, and is ranked once (0 x k when
    m-1 is empty); without a torus grading that piece is the whole cell.
    ``on_cell(w, m, shape, report, forced)`` receives the (rows, cols) shape
    of the piece, the report with its pivots as (row, column) of the piece
    with both degrees numbered odd letters first (see the module docstring),
    and the rank the other pieces of L'' add to it; the cells of a weight come
    from the top degree down.
    """
    degrees = support_degrees(gs, w)
    if not degrees:
        return BettiRow(w, [], [], [], [])
    dims = [chain_dim(gs, m, w) for m in degrees]
    ranks, piece_dims = _piece_ranks(gs, w, degrees)
    bases = numbered_bases(gs, w, degrees)  # {m: (odd tails, codes)} in lex order
    # each degree numbered once, odd letters first: (lex index at each number, {code: number})
    numbered = {}
    for m, (_, codes) in bases.items():
        order = sorted(range(len(codes)), key=codes.__getitem__)
        numbered[m] = order, dict(zip(map(codes.__getitem__, order), range(len(order))))
    # lex indices of the pivot monomials of the last ranked cell and its probe vector over
    # them, keyed by degree
    above: dict[int, tuple[set[int], dict[int, int]]] = {}
    for m in reversed(degrees):
        if m < 1:
            continue
        (tails, codes), (order, row_index) = bases[m], numbered.get(m - 1, ([], {}))
        shape = (len(order), len(codes))
        counted = (piece_dims.get(m - 1, 0), piece_dims.get(m, 0))
        if shape != counted:
            raise TableInvariantError(
                f"matrix at w={w}, m={m} is {shape[0]} x {shape[1]}, "
                f"its counted piece {counted[0]} x {counted[1]}")
        skip, pushed = above.get(m, (set(), {}))
        # the kernel breaks ties in input order, and lex order keeps its fill-in low
        kept = [c for c in range(len(codes)) if c not in skip]
        picked = kept + [c for c in pushed if c in skip]  # and the columns the probe reaches
        columns = dict(zip(picked, boundary_columns(
            gs, w, [tails[c] for c in picked], [codes[c] for c in picked], row_index)))
        composed: dict[int, int] = {}
        for c, x in pushed.items():
            for r, v in columns[c].items():
                composed[r] = composed.get(r, 0) + x * v
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
                push[r] = push.get(r, 0) + x * v
        report = rank_rows([columns[c] for c in kept])
        above = {m - 1: ({order[r] for _, r in report.pivots},
                         {order[r]: x for r, x in push.items() if x})}
        forced = ranks.get(m, 0)
        ranks[m] = forced + report.rank
        if on_cell is not None:  # the pivots' only reader: (row, column) in the numbering
            number = numbered[m][1]
            report.pivots = [(r, number[codes[kept[k]]]) for k, r in report.pivots]
            on_cell(w, m, shape, report, forced)

    split = sum(gs.split)  # Künneth: the ranks of L'', C(split, j) times each, j degrees up
    ranks = {m: sum(comb(split, j) * ranks.get(m - j, 0) for j in range(split + 1))
             for m in range(degrees[0], degrees[-1] + 2)}
    kernels = [d - ranks.get(m, 0) for m, d in zip(degrees, dims)]
    betti = [k - ranks.get(m + 1, 0) for m, k in zip(degrees, kernels)]
    row = BettiRow(w, degrees, dims, kernels, betti)
    row.validate()
    return row


def _workers() -> int:
    """The CPUs this process may run on; 1 without ``os.sched_getaffinity`` (Linux only) or
    while another thread runs, as a child forked then can deadlock on a lock it held."""
    alone = threading.active_count() == 1 and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if alone else 1


def betti_table(gs: GeneratorSystem, w_max: int, params: dict[str, Fraction] | None = None,
                on_cell: CellCallback | None = None) -> BettiTable:
    """Checked rows for every weight up to w_max, named from ``gs.sc.name``.

    The rows come from ``gs.ranked``, which eliminates L'' only (see the
    module docstring); ``on_cell`` describes its cells.  Before any fork, the
    weights, heaviest first, go into one pipe as at most 1024 records of 4
    bytes, each the start of a run of that order, in one write of at most
    4096 bytes, which fits even a one-page pipe.  This process and a forked
    child per other CPU read a record at a time until EOF; after a raise at
    w, a worker computes only weights below w.  A child sends its rows and
    ``on_cell`` calls back through a pipe of its own as tuples of their
    fields, with ``marshal``, pickling only an exception.  The calls are
    replayed here in w order, up to the lowest raise, which is raised.  Every
    child is reaped (killed first if this process raises) and every pipe
    closed; a child that dies without a result, or rows that are not
    w = 0..w_max each once, raise ``RuntimeError``.
    """
    gs = gs.ranked
    count_up_to(gs, w_max)
    zero = (0,) * len(gs.grading)  # a weight weighs its counted torus-weight-0 dimensions
    order = sorted(range(w_max + 1), key=lambda w: -sum(torus_pieces(gs, w).get(zero, {}).values()))
    step = max(1, -(-len(order) // 1024))  # at most 1024 records: one write, one pipe page
    fds, children = list(os.pipe()), {}  # every fd open here; {pid: the read end of its pipe}

    def run() -> list[tuple]:  # [(w, its on_cell calls, its row's fields)], its lowest raise last
        out, failed = [], None
        while record := os.read(fds[0], 4):  # a pipe read: no two workers get one record
            start = int.from_bytes(record, "little")
            for w in order[start:start + step]:
                if failed and w >= failed[0]:  # the replay stops at the lower weight
                    continue
                calls: list[tuple] = []
                try:
                    row = betti_row(gs, w, (lambda w, m, shape, report, forced: calls.append(
                        (w, m, shape, report.fields(), forced))) if on_cell else None)
                except Exception as exc:
                    failed = (w, calls, exc)
                    continue
                out.append((w, calls, (row.w, row.degrees, row.dims, row.kernels, row.betti)))
        return out if failed is None else out + [failed]

    try:
        os.write(fds[1], b"".join(s.to_bytes(4, "little") for s in range(0, len(order), step)))
        os.close(fds.pop())  # the queue ends at EOF
        for _ in range(min(_workers(), len(order)) - 1):
            fds += os.pipe()
            if (pid := os.fork()) == 0:  # the child never returns from here
                status = 1
                try:
                    out = run()
                    if out and isinstance(out[-1][2], Exception):
                        import pickle  # only after a raise: its import costs milliseconds
                        out[-1] = out[-1][:2] + (pickle.dumps(out[-1][2]),)
                    with open(fds[-1], "wb") as pipe:
                        marshal.dump(out, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds.pop())
            children[pid] = fds[-1]
        done = run()
        for pid, read in list(children.items()):
            data = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status or not data:
                raise RuntimeError(f"a table worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} and no result")
            done += marshal.loads(data)
    finally:
        if children:  # left only by a raise: kill, then reap
            import signal  # only here: its import costs most of a millisecond
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    rows = []
    for w, calls, row in sorted(done, key=itemgetter(0)):
        if w != len(rows):  # a weight claimed twice or by no one
            break
        for w, m, shape, report, forced in calls:
            on_cell(w, m, shape, EliminationReport(*report), forced)
        if not isinstance(row, tuple):  # an exception, pickled if a child's
            import pickle
            raise pickle.loads(row) if isinstance(row, bytes) else row
        rows.append(BettiRow(*row))
    if len(done) != w_max + 1 or [row.w for row in rows] != list(range(w_max + 1)):
        raise RuntimeError(f"rows are not w = 0..{w_max}, each once: weights "
                           f"{sorted(w for w, *_ in done)}, rows {[row.w for row in rows]}")
    return BettiTable(algebra=gs.sc.name, params=dict(params or {}), rows=rows)


# ---------------------------------------------------------------------------
# Comparison against expected tables.
# ---------------------------------------------------------------------------

class TableDiff:
    """Cell mismatches between a computed table and an expected document."""

    def __init__(self, mismatches: list[dict] | None = None, rows_checked: int = 0,
                 rows_skipped: int = 0, cells_checked: int = 0):
        self.mismatches = [] if mismatches is None else mismatches
        self.rows_checked, self.rows_skipped = rows_checked, rows_skipped
        self.cells_checked = cells_checked

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


def _integers(row_doc: dict, name: str, what: str) -> list[int]:
    """``row_doc[name]``, which must be a list of integers (or their decimal text)."""
    values = row_doc[name]
    if not isinstance(values, list):
        raise ValueError(f"{what}: {name!r} must be a list, got {values!r}")
    return [_integer(v, f"{what}: {name!r} entries must be integers") for v in values]


def verify_table(computed: BettiTable, expected: dict) -> TableDiff:
    """Cell-by-cell comparison where the expected document provides values.

    The expected document (parsed JSON) mirrors the table JSON; ``dims``,
    ``kernels`` and ``betti`` are each optional per row.  Degrees absent from
    the computed support compare as empty cells (0, 0, 0).  Every row is read
    in full before it is compared or skipped, so a malformed one raises
    ``ValueError`` (as :class:`AlgebraError`) whatever the computed range:
    a row key other than ``w``, ``degrees``, ``dims``, ``kernels`` and
    ``betti``, a value that is not a list where the format has a list, or a
    number that is not an integer.
    """
    if not isinstance(expected, dict) or not isinstance(expected.get("rows"), list):
        raise ValueError("expected-table document needs a 'rows' list")
    diff = TableDiff()
    for row_doc in expected["rows"]:
        if not isinstance(row_doc, dict) or "w" not in row_doc:
            raise ValueError(f"expected row without 'w': {row_doc!r}")
        _known_keys(row_doc, ("w", "degrees", "dims", "kernels", "betti"),
                    f"expected row {row_doc!r}")
        w = _integer(row_doc["w"], f"expected row {row_doc!r}: 'w' must be an integer")
        what = f"expected row w={w}"
        present = [(name, pos, _integers(row_doc, name, what))
                   for name, pos in _FIELD_NAMES if name in row_doc]
        if "degrees" not in row_doc:
            if present:
                raise ValueError(f"{what} has values but no 'degrees'")
            continue
        degrees = _integers(row_doc, "degrees", what)
        for name, _, values in present:
            if len(values) != len(degrees):
                raise ValueError(f"{what}: '{name}' length differs from 'degrees'")
        computed_row = computed.row(w)
        if computed_row is None:
            # the computed table was not taken this far; nothing to compare
            diff.rows_skipped += 1
            continue
        diff.rows_checked += 1
        for i, m in enumerate(degrees):
            cell = computed_row.cell(m)
            for name, pos, values in present:
                want, got = values[i], cell[pos]
                diff.cells_checked += 1
                if want != got:
                    diff.mismatches.append({
                        "w": w, "degree": m, "field": name,
                        "expected": want, "computed": got})
    return diff
