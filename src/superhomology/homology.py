"""Per-weight homology: dimensions, kernels, Betti numbers, table checks.

For a fixed weight the chain spaces form a finite complex; a row of the
final table holds, for every degree in the support, the space dimension,
the kernel dimension of the outgoing boundary, and the Betti number
(kernel minus the rank of the incoming boundary).  The Euler alternating
sum of the dimensions vanishes for every weight; ``euler_check`` exposes it.
``betti_row`` checks every row it computes and raises
:class:`TableInvariantError` when one breaks these identities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .chain import boundary_matrix, chain_dim, support_degrees
from .exterior import GeneratorSystem
from .ranklin import EliminationReport, rank_report
from .rational import format_rational


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


def betti_row(gs: GeneratorSystem, w: int,
              report_sink: dict[tuple[int, int], EliminationReport] | None = None) -> BettiRow:
    """Assemble and check one weight: supports by enumeration, ranks shared across cells."""
    degrees = support_degrees(gs, w)
    if not degrees:
        return BettiRow(w, [], [], [], [])
    dims = [chain_dim(gs, m, w) for m in degrees]
    in_support = set(degrees)
    ranks: dict[int, int] = {}
    for m in sorted(in_support | {m + 1 for m in degrees}):
        # boundary from degree m lands in degree m-1; empty target => rank 0
        if m < 1 or m not in in_support or (m - 1) not in in_support:
            continue
        report = rank_report(boundary_matrix(gs, m, w))
        ranks[m] = report.rank
        if report_sink is not None:
            report_sink[(w, m)] = report

    kernels = [d - ranks.get(m, 0) for m, d in zip(degrees, dims)]
    betti = [k - ranks.get(m + 1, 0) for m, k in zip(degrees, kernels)]
    row = BettiRow(w, degrees, dims, kernels, betti)
    row.validate()
    return row


def betti_table(gs: GeneratorSystem, w_max: int, algebra: str = "",
                params: dict[str, Fraction] | None = None,
                report_sink: dict[tuple[int, int], EliminationReport] | None = None) -> BettiTable:
    """Checked rows for every weight up to w_max, computed in order."""
    rows = [betti_row(gs, w, report_sink=report_sink) for w in range(w_max + 1)]
    return BettiTable(algebra=algebra or gs.sc.name, params=dict(params or {}), rows=rows)


def euler_check(gs: GeneratorSystem, w: int) -> int:
    """Alternating sum of the weight-w chain dimensions; 0 for every Lie algebra."""
    return sum((-1) ** m * chain_dim(gs, m, w) for m in range(0, w + gs.dim + 1))


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
