"""Per-weight homology: dimensions, kernels, Betti numbers, table checks.

For a fixed weight the chain spaces form a finite complex; a row of the
final table holds, for every degree in the support, the space dimension,
the kernel dimension of the outgoing boundary, and the Betti number
(kernel minus the rank of the incoming boundary).  The Euler alternating
sum of the dimensions vanishes for every weight.  So the rows are computed
apart: in ``betti_table`` this process and a forked child per other CPU
claim the weights, heaviest first, from one pipe, and the rows come back in
w order, with the ``on_cell`` calls replayed in the order one process makes
them; a forked child's rows and reports cross its pipe as their ``vars``.

When the algebra has a torus grading (``GeneratorSystem.torus``), the
weighted complex splits into pieces by torus weight.  A level-1 generator x
is even, so by the Cartan homotopy formula d e(x) + e(x) d = +-theta(x),
with e(x) the wedge with x, it acts by zero on homology; theta(x) is the
scalar torus weight on a piece, so every piece of nonzero torus weight is
acyclic.  Its ranks follow from its dimensions: 0 at its lowest degree,
then r_{m+1} = dim_m - r_m, which must stay in range (the "forced" ranks).
Only the torus-weight-0 piece is assembled and eliminated; without a
grading it is the whole complex.  Its Betti numbers are the row's, and the
ranks of the row follow from them and the counted dimensions, from the top
degree down: r_m = dim_m - Betti_m - r_{m+1}, each in [0, min(dim_m,
dim_{m-1})].  The counted dimensions of the eliminated pieces
(``chain.torus_pieces``) order the weights, heaviest first.

A level-1 letter z central in g and outside [g, g] is central in L and
outside [L, L], so L = L'' + kz, and by Künneth H(L) = H(L'') ⊗ Λ(z) (z is
even, of weight 0).  ``betti_table`` runs on ``GeneratorSystem.ranked``:
the given system when there is no such letter (and no sl2, below), else the
algebra rebuilt on its structure constants in a level-1 basis adapted to
Z(g) and [g, g], whose first c letters split off.  The pieces are counted
without them (``chain.torus_pieces``), and they sum over torus weights,
times (1 + t)^c, to ``chain_dim`` in every degree.  Only L'' is eliminated,
and the Betti numbers of L are those of L'' times (1 + t)^c.

Where level 1 is reductive, g = Z(g) + [g, g] with [g, g] of dim 3 (a form
of sl2), and the torus comes from its h, every level-1 letter splits off
(``GeneratorSystem.sl2`` is then alpha, the torus weight of e).  Levels >= 2
form an ideal r, so L = g ⋉ r, and by Hochschild & Serre ("Cohomology of Lie
algebras", Ann. Math. 57, 1953) H(L) = Λ(Z(g)) ⊗ H(sl2) ⊗ H(r)^sl2, with
H(sl2) in degrees 0 and 3.  H(r) at a weight is a finite sl2-module whose h
weights are even, so its invariants have dimension b_0 - b_alpha: the Betti
numbers of C(r), the monomials with no level-1 letter, at torus weights 0
and alpha.  Only those two pieces are eliminated (on gl2 at w = 6, 215 and
190 monomials against the 1,620 of the torus-weight-0 piece of L''), the
pieces of r at other torus weights force nothing, as they need not be
acyclic, b_0 - b_alpha must be >= 0, and the Betti numbers of L are
b_0 - b_alpha times (1 + t)^c (1 + t^3), c = dim Z(g).  The counts are
checked by the same identity, with c = dim g, and the int bracket table
pairs no level-1 letter.

Where the ranked system has no torus and no split letter, it may have a
mirror (``GeneratorSystem.mirror``): a diagonal derivation d = e_i* - e_j*
of g and a swap sigma of e_i and e_j, with signs, that is an automorphism
with sigma d sigma^-1 = -d (heis3: d = diag(1, -1, 0), sigma: x <-> y,
z -> -z).  d grades every level and the complex, as a torus would, but
comes from no letter, so its pieces need not be acyclic; sigma extends to a
chain isomorphism from the d-weight-t piece onto the weight -t piece.  So
the Betti numbers of the row are B_0 + 2 B_+, B_0 those of the weight-0
piece and B_+ those of all positive weights together, and only the half of
weight >= 0 is listed (``chain.numbered_bases``, which also hands back each
degree's weight-0 codes and how many monomials of weight < 0 it left out)
and ranked, one cell per degree (51.9 % of the monomials at w = 25, 50.8 %
at w = 60).  A row of the kernel reduces only against the pivot at its own
leading monomial, which has its weight, so the weights never mix in a
cell: a rank splits into B_0's and B_+'s by whether the pivot's input row
has weight 0.  The counts are checked, #C_+ = #C_- and #C_0 + 2 #C_+ =
``chain_dim`` in every degree, and B_0, B_+ >= 0; the ranks of the row then
follow from the top degree down as above.

Cells of one weight share their ranks through d o d = 0 (the "twist" of
persistent homology: Chen & Kerber 2011, Bauer, Kerber & Reininghaus 2014).
Each ranked piece of a weight runs from its top degree down to degree 1.
Its degrees are listed in one walk, each in lex order with its int codes
(``chain.numbered_bases``), whose int order is odd letters first, then even
ones.  One sort of its positions on their codes
numbers a degree as the rows of the cell above, and as columns only for
``on_cell``.  A cell hands the one below only its pivots and its probe
vector: its listing is dropped with it, its kept columns when the kernel
returns.  The kept columns of the cell (w, m+1) enter elimination as the
kernel's input rows in lex order, the listing less the skipped columns, so
that a pivot (the lowest input column) is the first monomial of its reduced
column in that numbering, the "lowest one" of persistence.  Let P be those
pivot monomials.  A reduced column lies in the image of the boundary from
degree m+1, which the boundary from degree m kills, and the reduced columns
have distinct lowest ones in P.  So, by induction from the end of the
numbering, each monomial of P is, modulo that image, a combination of the
monomials outside P, and the columns of the cell (w, m) indexed by P are
combinations of its other columns.  They are never assembled: the rank is
that of the kept columns, the size of P (pivots that share a monomial
raise).  Any numbering gives the rank, but not the same fill-in: in basis
order from the last, g3d3 to w = 16 fills in 29,873 entries instead of
4,523; from the first, the gl2 row w = 8 fills in 809 instead of 543 (on
the torus-weight-0 piece of L'' it ranked before Hochschild-Serre, 52,548
instead of 2,185 at 4 times the CPU).  The kernel breaks ties between
columns of equal length in input order, and that order matters too: kept in
the numbering instead of lex order, the gl2 table to w = 8 fills in 1,022,
not 1,019 (on L'', 5,048, not 4,921).

``betti_row`` checks the piece dimensions, the forced ranks, b_0 - b_alpha,
the mirror halves, the ranks that follow from the Betti numbers and every
row it computes and raises :class:`TableInvariantError` when one breaks
these identities.  A
rank can no longer exceed dim_m - r_{m+1}, so "Betti >= 0" cannot catch an
assembly fault any more; a probe of d o d = 0 between every two cells does
instead.  Before the cell (w, m+1) is eliminated, a sample of
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
from operator import itemgetter

from .algebra import _integer, _known_keys, format_rational
from .chain import boundary_columns, count_up_to, numbered_bases, support_dims, torus_pieces
from .exterior import GeneratorSystem
from .ranklin import EliminationReport, rank_rows

# (w, m, (rows, cols) of the eliminated piece, its report (rank: its pivots), forced rank,
# the piece's torus weight)
CellCallback = Callable[[int, int, tuple[int, int], EliminationReport, int, tuple[int, ...]], None]


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
        return {name: value if name == "w" else list(value) for name, value in vars(self).items()}


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


def _ranked_pieces(gs: GeneratorSystem) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, key) of the pieces ``betti_row`` ranks: the zero key of ``torus_pieces`` and,
    where an sl2 is split off, minus torus weight alpha with no split letter."""
    zero = (0,) * len(gs.grading)
    return [(1, zero), (-1, (gs.sl2,) + zero[1:])] if gs.sl2 else [(1, zero)]


def _times(dims: dict[int, int], powers: list[int]) -> dict[int, int]:
    """{m: n} times the product of (1 + t^p) over ``powers``, t shifting the degree by one."""
    for p in powers:
        degrees = sorted({*dims, *(m + p for m in dims)})
        dims = {m: dims.get(m, 0) + dims.get(m - p, 0) for m in degrees}
    return dims


def _piece_ranks(gs: GeneratorSystem, w: int,
                 counted: dict[int, int]) -> tuple[dict[int, int], dict[tuple, dict[int, int]]]:
    """Ranks forced by the acyclic torus pieces, and the pieces (``torus_pieces``).

    The forced ranks are {m: summed rank of the boundary from degree m over the
    nonzero torus pieces}, none where an sl2 is split off (the pieces of L>=2
    are not acyclic).  Raises :class:`TableInvariantError` unless the pieces,
    which hold no split letter, summed over torus weights and times (1 + t)^c,
    c split letters, add up to ``counted``, {m: ``chain_dim``}, in every degree
    (a split letter is even and of weight 0), and every forced rank lies in
    [0, min(rows, cols)] of its piece, which at one past the top degree means
    the recurrence ends at 0.
    """
    pieces, totals = torus_pieces(gs, w), dict.fromkeys(counted, 0)
    for dims in pieces.values():
        for m, d in dims.items():
            totals[m] = totals.get(m, 0) + d
    for m, total in _times(totals, [1] * sum(gs.split)).items():
        if total != counted.get(m, 0):
            raise TableInvariantError(
                f"torus pieces at w={w}, m={m} add up to {total} with their split letters, "
                f"not chain_dim {counted.get(m, 0)}")
    forced: dict[int, int] = {}
    zero = (0,) * len(gs.grading)
    for key, dims in pieces.items() if not gs.sl2 else ():
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
    return forced, pieces


# the probe combines max(PROBE_MIN, kept // PROBE_SHARE) kept columns of each cell
PROBE_MIN, PROBE_SHARE = 8, 16


def _rank_piece(gs: GeneratorSystem, w: int, degrees: list[int], key: tuple[int, ...],
                dims: dict[int, int], forced: dict[int, int],
                on_cell: CellCallback | None) -> list[tuple[int, dict[int, int]]]:
    """[(times it counts, {m: Betti number})] of the parts of weight 0 and above 0 of the
    piece ``key`` of weight w, whose counted dimensions are ``dims``: listed once in the
    support ``degrees``, then its cells from the top degree down (see ``betti_row``).
    Without a mirror the whole piece is the part of weight 0; with one, only its half of
    mirror weight >= 0 is listed, and the part above 0 counts twice."""
    halves: dict[int, tuple[set[int], int]] = {}  # {m: (weight-0 codes, number below 0)}
    if not gs.mirror:
        bases = numbered_bases(gs, w, degrees, None, key)  # {m: (odd tails, codes)} in lex order
        parts = [dims, {}]  # the dimensions of the parts of weight 0 (all) and above 0
    else:
        bases = numbered_bases(gs, w, degrees, None, key, halves)
        parts = [{m: len(zero) for m, (zero, _) in halves.items()},
                 {m: len(bases[m][1]) - len(zero) for m, (zero, _) in halves.items()}]
        for m, (zero, minus) in halves.items():
            if parts[1][m] != minus or len(zero) + 2 * minus != dims.get(m, 0):
                raise TableInvariantError(
                    f"mirror halves at w={w}, m={m}: {len(zero)} monomials of weight 0, "
                    f"{parts[1][m]} above and {minus} below, not chain_dim {dims.get(m, 0)}")
        dims = {m: len(codes) for m, (_, codes) in bases.items()}  # the half's
    # lex indices of the pivot monomials of the last ranked cell and its probe vector over
    # them, keyed by degree
    above: dict[int, tuple[set[int], dict[int, int]]] = {}
    ranks: list[dict[int, int]] = [{}, {}]  # of the two parts
    for m in reversed(degrees):
        if m < 1:
            continue
        (tails, codes), below = bases.pop(m), bases.get(m - 1, ([], []))[1]
        # the rows numbered odd letters first: (lex index at each number, {code: number})
        order = sorted(range(len(below)), key=below.__getitem__)
        row_index = dict(zip(map(below.__getitem__, order), range(len(order))))
        shape = (len(order), len(codes))
        counted = (dims.get(m - 1, 0), dims.get(m, 0))
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
        report = rank_rows([columns.pop(c) for c in kept])  # freed when the kernel returns
        pivoted = {order[r] for _, r in report.pivots}  # the skip set below, and the rank
        if len(pivoted) < len(report.pivots):
            raise TableInvariantError(f"a pivot column repeats at w={w}, m={m}")
        above = {m - 1: (pivoted, {order[r]: x for r, x in push.items() if x})}
        # a reduced row stays in the weight of its input row, the kept column of its pivot
        ranks[0][m] = len(pivoted) if not halves else sum(
            codes[kept[k]] in halves[m][0] for k, _ in report.pivots)
        ranks[1][m] = len(pivoted) - ranks[0][m]
        if on_cell is not None:  # the pivots' only reader: (row, column) in the numbering
            number = dict(zip(sorted(codes), range(len(codes))))
            report.pivots = [(r, number[codes[kept[k]]]) for k, r in report.pivots]
            on_cell(w, m, shape, report, forced.get(m, 0), key[:len(gs.torus)])
    betti = [{m: d - r.get(m, 0) - r.get(m + 1, 0) for m, d in part.items()}
             for part, r in zip(parts, ranks)]
    if halves and any(b < 0 for part in betti for b in part.values()):
        raise TableInvariantError(f"negative Betti number of a mirror half at weight {w}: "
                                  f"weight 0 {betti[0]}, above 0 {betti[1]}")
    return [(1, betti[0]), (2, betti[1])]  # no part above 0 without a mirror


def betti_row(gs: GeneratorSystem, w: int,
              on_cell: CellCallback | None = None) -> BettiRow:
    """Assemble and check one weight: supports by counting, ranked pieces cell by cell,
    then the row of L from their Betti numbers.

    Each piece ``_ranked_pieces`` names is listed once and numbered as the
    rows of the cell above (see the module docstring); with a mirror, only
    its half of mirror weight >= 0.  Each support degree
    m >= 1 has the columns of the piece that the cell above leaves assembled as int columns
    of D_w times the boundary (``chain.boundary_columns``), is probed against
    the vector the cell above pushes into it, and is ranked once (0 x k when
    m-1 is empty), which drops its listing and its kept columns; without a
    torus grading the piece is the whole cell.  ``on_cell(w, m, shape, report,
    forced, piece)`` receives the (rows, cols) shape of the piece, the report
    with its pivots as (row, column) of the piece with both degrees numbered
    odd letters first, the rank the acyclic pieces of L'' add to it (0 where an
    sl2 is split off), and the piece's torus weight.

    The Betti numbers of L are those of the ranked pieces (b_0, or b_0 - b_alpha
    where an sl2 is split off, which must be >= 0; with a mirror B_0 + 2 B_+,
    each >= 0) times (1 + t)^c, c central split letters, and (1 + t^3) with an
    sl2; the ranks then follow from the top degree down, r_m = dim_m - Betti_m -
    r_{m+1}, and each must lie in [0, min(dim_m, dim_{m-1})], so that the
    recurrence ends at 0.
    """
    dims = support_dims(gs, w)
    if not dims:
        return BettiRow(w, [], [], [], [])
    degrees = list(dims)
    forced, pieces = _piece_ranks(gs, w, dims)
    core: dict[int, int] = {}  # the Betti numbers of the ranked pieces, signed
    for sign, key in _ranked_pieces(gs):
        for times, part in _rank_piece(gs, w, degrees, key, pieces.get(key, {}), forced,
                                       on_cell):
            for m, b in part.items():
                core[m] = core.get(m, 0) + sign * times * b
    if any(b < 0 for b in core.values()):
        raise TableInvariantError(f"negative Betti number of the ranked pieces at weight {w}: "
                                  f"{dict(sorted(core.items()))}")
    # times (1 + t)^c, c central split letters, and 1 + t^3 with an sl2
    betti = _times(core, [1] * (sum(gs.split) - 3 * bool(gs.sl2)) + [3] * bool(gs.sl2))
    ranks, r = {}, 0  # r: the rank of the boundary from the degree above
    for m in range(max([degrees[-1], *betti]), min([degrees[0], *betti]) - 1, -1):
        r = dims.get(m, 0) - betti.get(m, 0) - r
        if not 0 <= r <= min(dims.get(m, 0), dims.get(m - 1, 0)):
            raise TableInvariantError(
                f"rank {r} at w={w}, m={m} from the Betti numbers is outside "
                f"[0, min({dims.get(m, 0)}, {dims.get(m - 1, 0)})]")
        ranks[m] = r
    row = BettiRow(w, degrees, [dims[m] for m in degrees], [dims[m] - ranks[m] for m in degrees],
                   [betti.get(m, 0) for m in degrees])
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
    ``on_cell`` calls back through a pipe of its own, each row and report as
    its ``vars``, with ``marshal``, pickling only an exception.  The calls are
    replayed here in w order, up to the lowest raise, which is raised.  Every
    child is reaped (killed first if this process raises) and every pipe
    closed; a child that dies without a result, or rows that are not
    w = 0..w_max each once, raise ``RuntimeError``.  A negative w_max raises
    ``ValueError`` before any table is built.
    """
    if w_max < 0:
        raise ValueError(f"w_max must be >= 0, got {w_max}")
    gs = gs.ranked
    count_up_to(gs, w_max)
    gs.mirror  # sought once, before any fork
    pieces = _ranked_pieces(gs)  # a weight weighs the counted dimensions of its ranked pieces
    order = sorted(range(w_max + 1), key=lambda w: -sum(
        sum(dims.get(key, {}).values()) for dims in [torus_pieces(gs, w)] for _, key in pieces))
    step = max(1, -(-len(order) // 1024))  # at most 1024 records: one write, one pipe page
    fds, children = list(os.pipe()), {}  # every fd open here; {pid: the read end of its pipe}

    def run() -> list[tuple]:  # [(w, its on_cell calls, vars of its row)], its lowest raise last
        out, failed = [], None
        while record := os.read(fds[0], 4):  # a pipe read: no two workers get one record
            start = int.from_bytes(record, "little")
            for w in order[start:start + step]:
                if failed and w >= failed[0]:  # the replay stops at the lower weight
                    continue
                calls: list[tuple] = []
                try:
                    row = betti_row(gs, w, (lambda w, m, shape, report, *rest: calls.append(
                        (w, m, shape, vars(report), *rest))) if on_cell else None)
                except Exception as exc:
                    failed = (w, calls, exc)
                    continue
                out.append((w, calls, vars(row)))
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
        for w, m, shape, report, *rest in calls:
            on_cell(w, m, shape, EliminationReport(**report), *rest)
        if not isinstance(row, dict):  # an exception, pickled if a child's
            import pickle
            raise pickle.loads(row) if isinstance(row, bytes) else row
        rows.append(BettiRow(**row))
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
