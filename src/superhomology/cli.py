"""Command-line interface.

Subcommands: ``catalog``, ``check-jacobi``, ``bracket-table``, ``basis``,
``table``, ``verify``.  Exit codes: 0 success, 1 verification difference,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import (AlgebraError, JacobiError, catalog_entry, catalog_get, catalog_names,
                      format_rational, load_algebra, parse_rational)
from .chain import (boundary_matrix, chain_basis, chain_dim, format_monomial, max_weight,
                    support_dims)
from .exterior import generator_system, render_bracket_table
from .homology import BettiTable, betti_table, verify_table

# admits gl2 to w=12 (largest cell 140,736; (13, 13) has 205,626) and heis3 to w=257; alone in
# one process on a 2-core host, row 257 of heis3 took 1.4 s and 143 MB, row 12 of gl2 0.05 s, 18 MB
DEFAULT_MAX_DIM = 200_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhomology",
        description="Weight-graded super homology tables of low-dimensional Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--algebra", help="catalog name (see `catalog`)")
        p.add_argument("--file", help="path to an algebra JSON document")
        p.add_argument("--param", action="append", default=[], metavar="NAME=P/Q",
                       help="bind a parameter (repeatable)")

    def add_system(p):
        add_source(p)
        p.add_argument("--basis", choices=("canonical", "paper"), default="canonical",
                       help="level-2 basis: canonical wedge order or the printed-table basis")

    def add_max_dim(p):
        p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, metavar="N",
                       help="refuse a chain space of more than N monomials before "
                            f"listing any basis (default {DEFAULT_MAX_DIM})")

    sub.add_parser("catalog", help="list catalog algebras and their parameters")

    p = sub.add_parser("check-jacobi", help="verify the Jacobi identity")
    add_source(p)

    p = sub.add_parser("bracket-table", help="print the multiplication tables")
    add_system(p)

    p = sub.add_parser("basis", help="list the monomial basis of one chain space")
    add_system(p)
    p.add_argument("--m", type=int, required=True, help="degree")
    p.add_argument("--w", type=int, required=True, help="weight")
    add_max_dim(p)

    p = sub.add_parser("table", help="compute the Betti table up to a weight")
    add_system(p)
    p.add_argument("--wmax", type=int, required=True)
    add_max_dim(p)
    p.add_argument("--format", choices=("json", "csv", "md"),
                   help="table format (default md; --sweep prints its own report)")
    p.add_argument("--dump-matrix", metavar="DIR",
                   help="write every boundary matrix as 'rows cols' + 'r c p/q' triplets")
    p.add_argument("--report", metavar="PATH",
                   help="write elimination reports of the eliminated pieces (shape, rank, "
                        "pivots, fill-in, time, forced and cell rank, the torus weight of the "
                        "piece; with a mirror, as on heis3, the half of mirror weight >= 0) "
                        "as JSON")
    p.add_argument("--sweep", metavar="NAME=V1,V2,...",
                   help="run the table per parameter value and report differing cells")

    p = sub.add_parser("verify", help="compare a computed table against an expected file")
    add_system(p)
    p.add_argument("--wmax", type=int, required=True)
    add_max_dim(p)
    p.add_argument("--expected", required=True, metavar="PATH")

    return parser


def _parse_params(items) -> dict:
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise AlgebraError(f"bad --param {item!r}; want NAME=P/Q")
        if name in out:
            raise AlgebraError(f"--param {name} is given twice")
        out[name] = parse_rational(value)
    return out


def _load_source(args, params):
    if bool(args.algebra) == bool(args.file):
        raise AlgebraError("exactly one of --algebra or --file is required")
    if args.algebra:
        return catalog_get(args.algebra, params)
    # --file is always a path, even one that starts with a brace
    return load_algebra(Path(args.file), params)


def _system(args, params):
    return generator_system(_load_source(args, params), args.basis)


def _check_size(w: int, m: int, size: int, max_dim: int) -> None:
    """Refuse the cell (w, m) if its chain space, of ``size`` monomials, counted (nothing is
    listed before the refusal), has more than max_dim."""
    if size > max_dim:
        raise ValueError(f"chain space at w={w}, m={m} has {size} monomials, "
                         f"more than --max-dim {max_dim}")


def _check_basis_size(gs, m: int, w: int, max_dim: int) -> None:
    """Refuse the cell (w, m) if it has more than max_dim monomials.

    Multiplying by an odd letter is injective, and the odd grades are 1, 3,
    ..., top (levels 2, 4, ...), so (m - dm, w - dw) embeds in (m, w) when
    dw - dm is even and 0 <= dw - dm <= (top - 1) dm.  They are counted by
    ascending weight, then degree, so a huge cell is refused before the
    count tables reach w.
    """
    top = gs.grades[gs.odd_ids[-1]] if gs.odd_ids else 0
    # an empty cell holds no other; a degree is at most the weight plus the dim letters of grade 0
    for w2 in range(w) if top and w <= max_weight(gs, m) else ():
        for m2 in range(max(0, m - w + w2), min(m, w2 + gs.dim) + 1):
            dm, dw = m - m2, w - w2
            if not (dw - dm) % 2 and dw <= top * dm and (size := chain_dim(gs, m2, w2)) > max_dim:
                raise ValueError(f"chain space at w={w}, m={m} has at least {size} monomials, "
                                 f"as many as at w={w2}, m={m2}; more than --max-dim {max_dim}")
    _check_size(w, m, chain_dim(gs, m, w), max_dim)


def _table(args, gs, params, on_cell=None):
    """The Betti table to --wmax once its cells, in weight order, pass the size check, counted
    on ``gs.ranked`` (its letters have the given grades), whose tables ``betti_table`` reuses."""
    gs = gs.ranked
    for w in range(args.wmax + 1):
        for m, size in support_dims(gs, w).items():
            _check_size(w, m, size, args.max_dim)
    return betti_table(gs, args.wmax, params=params, on_cell=on_cell)


def _cmd_catalog(out) -> int:
    for name in catalog_names():
        doc = catalog_entry(name)
        desc = f"{name}  dim={doc['dim']}"
        if doc.get("params"):
            nonzero = {c["param"] for c in doc.get("constraints", []) if c.get("nonzero")}
            parts = [p + (" != 0" if p in nonzero else "") for p in doc["params"]]
            desc += "  params: " + ", ".join(parts)
        out.write(desc + "\n")
    return 0


def _cmd_table(args, out) -> int:
    params = _parse_params(args.param)
    if args.sweep:
        return _cmd_sweep(args, params, out)
    gs = _system(args, params)
    reports: list[dict] = []

    def on_cell(w, m, shape, report, forced_rank, piece):
        reports.append({"w": w, "m": m, "rows": shape[0], "cols": shape[1], "rank": report.rank,
                        **vars(report), "backend": report.backend, "forced_rank": forced_rank,
                        "cell_rank": report.rank + forced_rank, "piece": list(piece)})

    table = _table(args, gs, params, on_cell if args.report else None)
    if args.dump_matrix:
        # written once the table is checked, so a table that raises leaves no partial dump
        os.makedirs(args.dump_matrix, exist_ok=True)
        for row in table.rows:
            # record the basis ordering the matrix files refer to
            basis_path = os.path.join(args.dump_matrix, f"basis_w{row.w}.txt")
            with open(basis_path, "w", encoding="utf-8") as fh:
                for m in row.degrees:
                    for i, mono in enumerate(chain_basis(gs, m, row.w)):
                        fh.write(f"m={m} {i} {format_monomial(gs, mono)}\n")
            for m in row.degrees:
                if m >= 1:
                    path = os.path.join(args.dump_matrix, f"boundary_w{row.w}_m{m}.txt")
                    with open(path, "w", encoding="utf-8") as fh:
                        boundary_matrix(gs, m, row.w).dump(fh)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            # each piece's cells arrive from the top degree down
            json.dump(sorted(reports, key=lambda r: (r["w"], r["m"], r["piece"])), fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        out.write(table.to_json())
    elif args.format == "csv":
        out.write(table.to_csv())
    else:
        out.write(table.to_markdown())
    return 0


def _cmd_sweep(args, params, out) -> int:
    for flag in ("--format", "--dump-matrix", "--report"):
        if getattr(args, flag[2:].replace("-", "_")):
            raise ValueError(f"--sweep prints its own text report; drop {flag}")
    name, sep, values = args.sweep.partition("=")
    name = name.strip()
    if not sep or not name or not values:
        raise AlgebraError(f"bad --sweep {args.sweep!r}; want NAME=V1,V2,...")
    if name in params:
        raise AlgebraError(f"--sweep {name} and --param {name} both bind {name}; drop one")
    bindings = [parse_rational(v) for v in values.split(",")]
    swept = [{**params, name: value} for value in bindings]
    # every value is bound and Jacobi-checked before the first table
    algebras = [_load_source(args, binds) for binds in swept]
    tables = [_table(args, generator_system(sc, args.basis), binds)
              for sc, binds in zip(algebras, swept)]
    labels = [format_rational(v) for v in bindings]
    differing = []
    for w in range(args.wmax + 1):
        rows = [t.row(w) for t in tables]
        degrees = sorted({m for r in rows if r for m in r.degrees})
        for m in degrees:
            cells = [r.cell(m) if r else (0, 0, 0) for r in rows]
            for pos, field in enumerate(("space_dim", "kernel_dim", "betti")):
                vals = [c[pos] for c in cells]
                if len(set(vals)) > 1:
                    differing.append((w, m, field, vals))
    out.write(f"sweep {name} over {', '.join(labels)} "
              f"(algebra {tables[0].algebra}, w <= {args.wmax})\n")
    if not differing:
        out.write("all cells identical across the sweep\n")
        return 0
    out.write(f"{len(differing)} differing cells:\n")
    for w, m, field, vals in differing:
        pairs = ", ".join(f"{name}={lab}: {v}" for lab, v in zip(labels, vals))
        out.write(f"  w={w} degree={m} {field}: {pairs}\n")
    return 0


def run_cli(argv, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command in ("table", "verify") and args.wmax < 0:
            raise ValueError(f"--wmax must be >= 0, got {args.wmax}")
        if args.command in ("table", "verify", "basis") and args.max_dim < 0:
            raise ValueError(f"--max-dim must be >= 0, got {args.max_dim}")

        if args.command == "catalog":
            return _cmd_catalog(out)

        if args.command == "check-jacobi":
            # the file's Jacobi violations are the report, not a load error
            try:
                sc = _load_source(args, _parse_params(args.param))
            except JacobiError as exc:
                for triple, residual in exc.violations:
                    res = ", ".join(format_rational(c) for c in residual)
                    out.write(f"violation at {triple}: residual ({res})\n")
                return 1
            out.write(f"{sc.name or 'algebra'}: Jacobi identity holds\n")
            return 0

        if args.command == "bracket-table":
            out.write(render_bracket_table(_system(args, _parse_params(args.param))))
            return 0

        if args.command == "basis":
            gs = _system(args, _parse_params(args.param))
            _check_basis_size(gs, args.m, args.w, args.max_dim)
            monos = chain_basis(gs, args.m, args.w)
            out.write(f"dim C_{args.m}^(w={args.w}) = {len(monos)}\n")
            for mono in monos:
                out.write(format_monomial(gs, mono) + "\n")
            return 0

        if args.command == "table":
            return _cmd_table(args, out)

        if args.command == "verify":
            params = _parse_params(args.param)
            with open(args.expected, encoding="utf-8") as fh:
                expected = json.load(fh)
            # a malformed document is refused by comparing it with an empty table first
            verify_table(BettiTable(""), expected)
            diff = verify_table(_table(args, _system(args, params), params), expected)
            out.write(diff.render())
            return 0 if diff.ok else 1

    except (AlgebraError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
