import hashlib
import io
import json
import os
import random
import time
from math import comb
from operator import mul

import pytest

from superhomology import catalog_get, chain_basis, chain_dim, cli, generator_system, homology
from superhomology.cli import run_cli

from conftest import EXPECTED_DIR
from oracles import (algebra_document, change_basis, code_monomial, load_matrix,
                     monomial_degree, monomial_weight, naive_rank, random_invertible,
                     zero_piece_matrix)
from test_algebra import MALFORMED_DOCUMENTS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_catalog_lists_algebras():
    code, out, _ = run(["catalog"])
    assert code == 0
    assert "heis3  dim=3" in out
    assert "g3d2  dim=3  params: alpha != 0" in out
    assert "g3d3  dim=3  params: alpha != 0, beta != 0" in out


def test_check_jacobi_ok_and_violation(tmp_path):
    code, out, _ = run(["check-jacobi", "--algebra", "sl2_efh"])
    assert code == 0 and "holds" in out

    bad = {"name": "broken", "dim": 3, "brackets": [
        {"i": 1, "j": 2, "out": {"3": "1"}},
        {"i": 1, "j": 3, "out": {"1": "1"}},
    ]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, out, err = run(["check-jacobi", "--file", str(path)])
    assert code == 1
    assert "violation at (1, 2, 3)" in out
    assert "residual (0, 0, -1)" in out


def test_check_jacobi_prints_every_violation(tmp_path):
    # JacobiError's message names five triples; the report lists all eight
    doc = {"name": "many", "dim": 5, "brackets": [
        {"i": 1, "j": 2, "out": {"3": "1"}}, {"i": 1, "j": 3, "out": {"1": "1"}},
        {"i": 2, "j": 4, "out": {"5": "2/3"}}, {"i": 3, "j": 5, "out": {"4": "1"}},
        {"i": 4, "j": 5, "out": {"1": "-1"}}, {"i": 1, "j": 4, "out": {"2": "1"}},
    ]}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["check-jacobi", "--file", str(path)])
    assert code == 1 and not err
    assert out == ("violation at (1, 2, 3): residual (0, 0, -1, 0, 0)\n"
                   "violation at (1, 2, 5): residual (0, 0, 0, 1, 0)\n"
                   "violation at (1, 3, 4): residual (0, 1, 0, 0, 0)\n"
                   "violation at (1, 3, 5): residual (0, -1, 0, 0, 0)\n"
                   "violation at (2, 3, 4): residual (0, 0, 0, 2/3, 0)\n"
                   "violation at (2, 3, 5): residual (0, 0, 0, 0, -2/3)\n"
                   "violation at (2, 4, 5): residual (0, 0, -1, 0, 0)\n"
                   "violation at (3, 4, 5): residual (-1, 0, 0, 0, 0)\n")
    # check-jacobi builds no generators, so it takes no level-2 basis
    code, out, err = run(["check-jacobi", "--algebra", "heis3", "--basis", "paper"])
    assert code == 2 and not out


def test_bracket_table_output():
    code, out, _ = run(["bracket-table", "--algebra", "heis3", "--basis", "paper"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["z1", "z2", "z3", "z4", "u1", "u2", "u3"]
    assert any(line.startswith("z1") and "-u2" in line for line in lines)


BRACKET_TABLE_PARAMS = {"g3d2": ["--param", "alpha=2/3"],
                        "g3d3": ["--param", "alpha=2/3", "--param", "beta=-5/7"]}
BRACKET_TABLE_SHA256 = {
    ("abelian1", "canonical"): "36e810dae8c9081fb1b93f92458d466b65a8025accfc17b25b4115c8b58afe1d",
    ("abelian2", "canonical"): "1f72ef0b69bd85e4ebf0d598e740f02d1bccd0cb1d27baa8c678610c0345d033",
    ("abelian3", "canonical"): "2a2ef033c44d1692d59c2e30a3e9f647cec3b82dfa9446b0a8c1c849b32c963d",
    ("abelian4", "canonical"): "162dba9dc80a63ea52ae3471a1abeb23e5282dedb66a611b5008e87bf8e2f698",
    ("abelian5", "canonical"): "a2e49a71edcba955a88edfef53f6dff576f825d2de8906eb0209511628f6478d",
    ("abelian6", "canonical"): "6390906f5dfc7db51a75581d3fccb02498643594b72c6b59870c2c878d4521ae",
    ("aff1", "canonical"): "40ebaf0c9db79a63fdbeda3689d5a86da5144dee756be4c5c5dc6a985cb86d5d",
    ("aff1", "paper"): "40ebaf0c9db79a63fdbeda3689d5a86da5144dee756be4c5c5dc6a985cb86d5d",
    ("g3d1n", "canonical"): "580492c88e005c0e9712acfdaf3aba9bf4332176b29552dc8933fb77022a15c9",
    ("g3d1n", "paper"): "768d0743f5de5c74d5d55745c11d823fe8031bc891d41973ce742a6b1587b093",
    ("g3d2", "canonical"): "727c62de4bd9a903db6595ab1298c5368a8b8e6a8ea7c4f4b7e825d3d24d6862",
    ("g3d2", "paper"): "727c62de4bd9a903db6595ab1298c5368a8b8e6a8ea7c4f4b7e825d3d24d6862",
    ("g3d3", "canonical"): "d544d58c1952919d031d5f0cf5f7ade58ab7a6fd994efd9f3ad8cdfadad04d81",
    ("g3d3", "paper"): "d1d631d250ef3ea342a31ba978cdeb930d254d05cbc2b3e1c4413d743d4a4d6c",
    ("gl2", "canonical"): "44474d4d5f0543674d67278b51b3d085ec3a264a0ecee1756277801e4706d1c9",
    ("heis3", "canonical"): "c99d6e55549aa3fb2375af48bd800cb2f6722b4a7c147b72dae6ee85db62ed32",
    ("heis3", "paper"): "3c5babe41cadfe9b670f8cd65d5b1a93cb676e22ccbb1e2917df4f97ad6704f8",
    ("sl2_efh", "canonical"): "a44bbf0a93169a1fda217e635f4cab4e5de6611f11c32ac4b3d83b0e8bcd69ad",
    ("sl2_efh", "paper"): "0b65596fd86a02b9456e543f6b7e19b4154bda38d8e5aaff266962090b9b5033",
}


def test_bracket_table_text_is_pinned():
    # every catalog algebra, in the canonical basis and in the printed-table one
    # where it exists; g3d2 and g3d3 are bound to non-integer parameters
    for (name, basis), sha in BRACKET_TABLE_SHA256.items():
        code, out, err = run(["bracket-table", "--algebra", name,
                              *BRACKET_TABLE_PARAMS.get(name, []), "--basis", basis])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha, (name, basis)
    code, out, _ = run(["catalog"])
    assert {line.split()[0] for line in out.splitlines()} == {n for n, _ in BRACKET_TABLE_SHA256}


def test_basis_listing():
    code, out, _ = run(["basis", "--algebra", "heis3", "--m", "3", "--w", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim C_3^(w=4) = 6"
    assert lines[1] == "W^{0001} ∧ U^{0,0,2}"
    assert len(lines) == 7


def test_table_formats_and_determinism():
    argv = ["table", "--algebra", "g3d2", "--param", "alpha=-1", "--wmax", "4",
            "--format", "md"]
    code, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert code == code2 == 0
    assert out1 == out2
    assert "| Betti | 0 | 0 | 1 | 2 | 1 |" in out1

    code, out, _ = run(["table", "--algebra", "g3d2", "--param", "alpha=-1",
                        "--wmax", "4", "--format", "csv"])
    assert code == 0 and out.startswith("w,degree,space_dim,kernel_dim,betti")

    code, out, _ = run(["table", "--algebra", "abelian3", "--wmax", "2",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert row["betti"] == row["dims"]


def test_table_json_round_trips_through_verify(tmp_path):
    code, out, _ = run(["table", "--algebra", "heis3", "--wmax", "3",
                        "--format", "json"])
    assert code == 0
    expected_path = tmp_path / "self.json"
    expected_path.write_text(out, encoding="utf-8")
    code, out2, _ = run(["verify", "--algebra", "heis3", "--wmax", "3",
                         "--expected", str(expected_path)])
    assert code == 0 and "all cells match" in out2


def test_verify_pass_and_fail(tmp_path):
    expected = os.path.join(EXPECTED_DIR, "a1.json")
    code, out, _ = run(["verify", "--algebra", "sl2_efh", "--wmax", "4",
                        "--expected", expected])
    assert code == 0 and "all cells match" in out

    doc = json.load(open(expected, encoding="utf-8"))
    doc["rows"][0]["betti"][0] = 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(["verify", "--algebra", "sl2_efh", "--wmax", "4",
                        "--expected", str(bad)])
    assert code == 1
    assert "mismatching" in out


def test_verify_refuses_a_bad_expected_file_before_the_table(tmp_path, monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "_table", lambda *args: computed.append(args))
    bad_json, no_rows, bad_row = (tmp_path / "bad.json", tmp_path / "no_rows.json",
                                  tmp_path / "bad_row.json")
    bad_json.write_text('{"rows": [', encoding="utf-8")
    no_rows.write_text('{"algebra": "gl2"}', encoding="utf-8")
    bad_row.write_text('{"rows": [{"w": 1, "degrees": [1, 2], "betti": [0]}]}', encoding="utf-8")
    fraction, typo = tmp_path / "fraction.json", tmp_path / "typo.json"
    fraction.write_text('{"rows": [{"w": 1, "degrees": [1], "betti": [1.5]}]}', encoding="utf-8")
    typo.write_text('{"rows": [{"w": 1, "degrees": [1], "bettti": [0]}]}', encoding="utf-8")
    for path, why in ((tmp_path / "missing.json", "No such file"), (bad_json, "Expecting"),
                      (no_rows, "'rows' list"), (bad_row, "length differs"),
                      (fraction, "must be integers"), (typo, "unknown key 'bettti'")):
        code, out, err = run(["verify", "--algebra", "gl2", "--wmax", "8",
                              "--expected", str(path)])
        assert (code, out) == (2, "") and why in err, (path, err)
    assert computed == []


def test_sweep_reports_kappa_jump():
    code, out, _ = run(["table", "--algebra", "g3d2", "--wmax", "3",
                        "--sweep", "alpha=-1,1,2"])
    assert code == 0
    assert "differing cells" in out
    assert "alpha=-1: 1" in out and "alpha=1: 0" in out


def test_dump_matrix_and_report(tmp_path, monkeypatch):
    # record the assemblies the table makes: betti_row assembles each cell's columns through
    # homology.boundary_columns, and the whole matrices of --dump-matrix do not pass there;
    # each piece is listed through homology.numbered_bases before its cells are assembled
    assembled, listed = [], [()]
    real, real_bases = homology.boundary_columns, homology.numbered_bases

    def listing(gs, w, degrees, coords=None, piece=(), *halves):
        listed[0] = piece[:len(gs.torus)]  # the torus weight the report names
        return real_bases(gs, w, degrees, coords, piece, *halves)

    def recording(gs, w, tails, codes, rows):
        columns = real(gs, w, tails, codes, rows)
        # the cell (w, m) read off a decoded column or row code; None when both are empty
        mono, shift = next(((code_monomial(gs, w, basis[0]), s)
                            for basis, s in ((codes, 0), (list(rows), 1)) if basis), (None, 0))
        cell = None if mono is None else (monomial_weight(gs, mono), monomial_degree(mono) + shift)
        assert cell is None or cell[0] == w
        assembled.append((w, listed[0], cell, len(rows), len(codes)))
        return columns

    def in_report_order(reports):
        # each piece of a weight is assembled from its top degree down, once per reported
        # cell, and the cells are reported sorted by (w, m, piece)
        queues = {}
        for w, piece, *rest in reversed(assembled):
            queues.setdefault((w, piece), []).append(tuple(rest))
        return [queues[r["w"], tuple(r["piece"])].pop(0) for r in reports]

    monkeypatch.setattr(homology, "numbered_bases", listing)
    monkeypatch.setattr(homology, "boundary_columns", recording)
    # a forked worker's assemblies are not counted here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    dump_dir = tmp_path / "mats"
    report = tmp_path / "report.json"
    code, out, _ = run(["table", "--algebra", "heis3", "--wmax", "2",
                        "--format", "csv", "--dump-matrix", str(dump_dir),
                        "--report", str(report)])
    assert code == 0
    dumped = sorted(os.listdir(dump_dir))
    assert "boundary_w2_m3.txt" in dumped
    assert "basis_w2.txt" in dumped
    basis_lines = (dump_dir / "basis_w2.txt").read_text().splitlines()
    assert "m=3 0 W^{0001} ∧ U^{0,0,0}" in basis_lines[0] or \
        basis_lines[0].startswith("m=1")
    first = (dump_dir / "boundary_w2_m3.txt").read_text().splitlines()
    rows, cols = map(int, first[0].split())
    assert (rows, cols) == (9, 21)
    entries = [line.split() for line in first[1:]]
    assert entries == sorted(entries, key=lambda e: (int(e[0]), int(e[1])))
    reports = json.loads(report.read_text())
    assert any(r["w"] == 2 and r["m"] == 3 for r in reports)
    # the shape, then the elimination report's fields in order, then the forced ranks and
    # the torus weight of the piece (heis3 has no torus)
    assert all(list(r) == ["w", "m", "rows", "cols", "rank", "pivots", "fill_in",
                           "nonzero_rows", "elapsed", "backend", "forced_rank", "cell_rank",
                           "piece"] and r["piece"] == [] for r in reports)
    assert all(r["rank"] >= 0 and "pivots" in r for r in reports)
    # the columns indexed by pivot rows of the cell above are never assembled
    ranks = {(r["w"], r["m"]): r["rank"] for r in reports}
    assert all(0 <= r["nonzero_rows"] <= r["cols"] - ranks.get((r["w"], r["m"] + 1), 0)
               for r in reports)
    assert any(ranks.get((r["w"], r["m"] + 1)) for r in reports)
    # one assembly per cell, of its kept columns and those the probe reaches, and the
    # dump and the report cover the same cells
    cells = [(r["w"], r["m"]) for r in reports]
    assert cells == sorted(set(cells)) and len(assembled) == len(reports)
    for (cell, rows, cols), r, reported in zip(in_report_order(reports), reports, cells):
        assert (cell, rows) == (reported, r["rows"])
        assert r["cols"] - ranks.get((r["w"], r["m"] + 1), 0) <= cols <= r["cols"]
    assert sorted(f"boundary_w{w}_m{m}.txt" for w, m in cells) == \
        sorted(f for f in dumped if f.startswith("boundary_"))
    # heis3's mirror: the eliminated matrix is the half of the dumped one at mirror weight
    # >= 0 (counted here monomial by monomial), and nothing is forced
    heis3 = generator_system(catalog_get("heis3"))
    assert heis3.mirror == (1, -1, 0, 0, 0, 1, -1)

    def half(m, w):
        return sum(sum(map(mul, heis3.mirror, mono)) >= 0 for mono in chain_basis(heis3, m, w))

    for r in reports:
        w, m = r["w"], r["m"]
        header = (dump_dir / f"boundary_w{w}_m{m}.txt").read_text().split("\n")[0]
        whole = [chain_dim(heis3, m - 1, w), chain_dim(heis3, m, w)]
        assert list(map(int, header.split())) == whole
        assert [r["rows"], r["cols"]] == [half(m - 1, w), half(m, w)]
        assert r["forced_rank"] == 0 and r["cell_rank"] == r["rank"]
    assert any(2 * r["cols"] > chain_dim(heis3, r["m"], r["w"]) > r["cols"] for r in reports)

    # gl2 is graded, and its level 1 is z = e1 + e4 and an sl2 whose h gives the torus: only
    # the pieces of L>=2 at torus weights 0 and 2 are eliminated (Hochschild-Serre), in the
    # adapted basis of gl2.ranked, and the dump stays whole, in gl2's basis
    assembled.clear()
    gl2_dir = tmp_path / "gl2"
    gl2_report = tmp_path / "gl2.json"
    code, out, _ = run(["table", "--algebra", "gl2", "--wmax", "3", "--format", "csv",
                        "--dump-matrix", str(gl2_dir), "--report", str(gl2_report)])
    assert code == 0
    gs = generator_system(catalog_get("gl2")).ranked
    assert sum(gs.split) == 4 and gs.sl2 == 2
    reports = json.loads(gl2_report.read_text())
    # one assembly per cell: the i-th assembly in report order made the i-th reported
    # matrix, and its cell is that report's wherever a basis monomial names it
    cells = [(r["w"], r["m"], tuple(r["piece"])) for r in reports]
    assert cells and cells == sorted(set(cells)) and len(assembled) == len(reports)
    assert {piece for _, _, piece in cells} == {(0,), (2,)}
    for (cell, rows, cols), r in zip(in_report_order(reports), reports):
        assert cell in (None, (r["w"], r["m"])) and rows == r["rows"] and cols <= r["cols"]
    assert any(cell for _, _, cell, _, _ in assembled)
    # the pieces of L>=2 are not acyclic, so no rank is forced
    assert not any(r["forced_rank"] for r in reports)
    kernels = {(int(w), int(m)): int(k) for w, m, _, k, _ in
               (line.split(",") for line in out.splitlines()[1:])}
    for w, m in kernels:
        if m >= 1:  # the whole matrices give the kernels of the table, by a second route
            with open(gl2_dir / f"boundary_w{w}_m{m}.txt", encoding="utf-8") as fh:
                whole = load_matrix(fh)
            assert (whole.rows, whole.cols) == (chain_dim(gs, m - 1, w), chain_dim(gs, m, w))
            assert whole.cols - naive_rank(whole) == kernels[w, m], (w, m)
    for r in reports:
        w, m = r["w"], r["m"]
        assert r["cell_rank"] == r["rank"]
        piece = zero_piece_matrix(gs, m, w, tuple(r["piece"]))
        assert (r["rows"], r["cols"]) == (piece.rows, piece.cols)
        assert len(r["pivots"]) == r["rank"] == naive_rank(piece) <= min(piece.rows, piece.cols)
        assert r["rank"] <= r["nonzero_rows"] <= r["cols"]


# sha256 of every dump file (name and content, in sorted order) and of the
# report's kernel-order-free fields; a change to the assembled boundary or to
# a rank shows here.  gl2 and sl2_efh report the cells of two pieces of L>=2
# (torus weights 0, then 2, at each (w, m)); heis3 the cells of its half of mirror
# weight >= 0, while its dump stays whole.
PINNED_DUMPS = [
    (["--algebra", "heis3", "--wmax", "4"],
     "3d52606cd7dcd65357b55568a6aaa1652476af38cae922c9d937c0ccfd3ef7a5",
     "bdf3329b9f8a7423f9b8961e61c6d1a508ec10a0a1d39274c49cb0744951c2b6"),
    (["--algebra", "g3d3", "--param", "alpha=2/3", "--param", "beta=-5/7", "--wmax", "4",
      "--basis", "canonical"],
     "01c6f7fb9f4fb891fe0666c1fea7ace7672169bc507c11e663e1d11641d965cb",
     "48b63a80bd953c90290528e5d8a91bb5cdf74518cf5b48be1c584ddd53a3bcf7"),
    (["--algebra", "g3d3", "--param", "alpha=2/3", "--param", "beta=-5/7", "--wmax", "4",
      "--basis", "paper"],
     "c510b43123bc23724a6eae1627895165d20396970832a8e04d6f990b0a67d674",
     "48b63a80bd953c90290528e5d8a91bb5cdf74518cf5b48be1c584ddd53a3bcf7"),
    (["--algebra", "gl2", "--wmax", "3"],
     "5f1411677660ffdf6d771cb9f00a4cf3342ace45ee185f2afaf9e51545cc99d0",
     "65612149fca06413e2b2aeac06ac8d3e6c86dc3ac1583ca536e50b79bf9e47be"),
    (["--algebra", "sl2_efh", "--wmax", "8"],
     "1057698ad62d3f89d96ef8e0f3705dedb0054fce32bd752c048bee78ca2cba3c",
     "73b88fee142a9cb828f17b56a4d4a0a854a40268ce19d18954805627834c8a6d"),
]


def test_dump_and_report_digests_are_pinned(tmp_path):
    # pivots, fill_in, nonzero_rows and elapsed depend on the kernel's order: left out
    fields = ("w", "m", "rows", "cols", "rank", "cell_rank", "forced_rank")
    for n, (argv, dump_sha, report_sha) in enumerate(PINNED_DUMPS):
        dump_dir, report = tmp_path / f"d{n}", tmp_path / f"r{n}.json"
        code, _, _ = run(["table", *argv, "--dump-matrix", str(dump_dir),
                          "--report", str(report)])
        assert code == 0
        digest = hashlib.sha256()
        for name in sorted(os.listdir(dump_dir)):
            digest.update(name.encode() + b"\0" + (dump_dir / name).read_bytes() + b"\0")
        cells = [[r[f] for f in fields] for r in json.loads(report.read_text())]
        assert digest.hexdigest() == dump_sha, argv
        assert hashlib.sha256(json.dumps(cells).encode()).hexdigest() == report_sha, argv


def test_a_table_that_raises_leaves_no_dump(tmp_path, monkeypatch):
    # the matrices are written after the table, not cell by cell as it runs
    def validate(row):
        if row.w == 3:
            raise homology.TableInvariantError("planted")

    monkeypatch.setattr(homology.BettiRow, "validate", validate)
    dump_dir = tmp_path / "dump"
    with pytest.raises(homology.TableInvariantError, match="planted"):
        run(["table", "--algebra", "heis3", "--wmax", "3", "--dump-matrix", str(dump_dir)])
    assert not dump_dir.exists()


def test_usage_errors_exit_2(tmp_path):
    code, _, err = run(["table", "--wmax", "3"])  # no algebra source
    assert code == 2 and "exactly one" in err
    code, _, err = run(["table", "--algebra", "heis3", "--file", "x.json",
                        "--wmax", "3"])
    assert code == 2
    code, _, err = run(["table", "--algebra", "nope", "--wmax", "3"])
    assert code == 2 and "unknown catalog" in err
    code, _, err = run(["table", "--algebra", "g3d2", "--param", "alpha",
                        "--wmax", "3"])
    assert code == 2
    code, _, err = run(["table", "--algebra", "g3d2", "--param", "alpha=0.5",
                        "--wmax", "3"])
    assert code == 2
    code, _, err = run(["check-jacobi", "--algebra", "heis3", "--file", "x.json"])
    assert code == 2 and "exactly one" in err
    code, out, err = run(["table", "--algebra", "heis3", "--wmax", "-3"])
    assert code == 2 and "--wmax must be >= 0" in err and not out
    code, out, err = run(["verify", "--algebra", "heis3", "--wmax", "-1",
                          "--expected", os.path.join(EXPECTED_DIR, "g3d1_central.json")])
    assert code == 2 and "--wmax must be >= 0" in err and not out
    # --max-dim refuses from chain_dim counts, before any basis is listed
    code, out, err = run(["table", "--algebra", "gl2", "--wmax", "40"])
    assert code == 2 and "w=13, m=13 has 205626 monomials" in err and not out
    code, out, err = run(["basis", "--algebra", "gl2", "--m", "7", "--w", "6",
                          "--max-dim", "3000"])
    assert code == 2 and "w=6, m=7 has 5628 monomials" in err and not out
    # a basis cell holds u times the cell (m - 1, w - 1), which is counted first
    code, out, err = run(["basis", "--algebra", "gl2", "--m", "7", "--w", "6",
                          "--max-dim", "100"])
    assert code == 2 and not out
    assert "w=6, m=7 has at least 108 monomials, as many as at w=2, m=3" in err
    code, out, err = run(["verify", "--algebra", "heis3", "--wmax", "6", "--max-dim", "50",
                          "--expected", os.path.join(EXPECTED_DIR, "g3d1_central.json")])
    assert code == 2 and "more than --max-dim 50" in err and not out
    code, out, err = run(["table", "--algebra", "g3d2", "--sweep", "alpha=1,2",
                          "--wmax", "6", "--max-dim", "50"])
    assert code == 2 and "w=4, m=5 has 63 monomials" in err and not out
    code, out, err = run(["table", "--algebra", "heis3", "--wmax", "3", "--max-dim", "-1"])
    assert code == 2 and "--max-dim must be >= 0" in err and not out
    # the cells are checked in weight order, so a huge --wmax is refused at once
    start = time.perf_counter()
    code, out, err = run(["table", "--algebra", "heis3", "--wmax", "100000"])
    assert time.perf_counter() - start < 2
    assert code == 2 and "w=258, m=259 has 200469 monomials" in err and not out
    # a parameter bound twice, or both swept and bound, is refused
    code, out, err = run(["table", "--algebra", "g3d2", "--param", "alpha=-1",
                          "--param", "alpha=1", "--wmax", "2"])
    assert code == 2 and "--param alpha is given twice" in err and not out
    code, out, err = run(["table", "--algebra", "g3d2", "--param", "alpha=-1",
                          "--sweep", "alpha=1,2", "--wmax", "2"])
    assert code == 2 and "--sweep alpha and --param alpha" in err and not out
    # --sweep prints its own text report, so it refuses --format
    code, out, err = run(["table", "--algebra", "g3d2", "--sweep", "alpha=1,2",
                          "--wmax", "2", "--format", "md"])
    assert code == 2 and "--sweep" in err and "--format" in err and not out
    # --sweep writes neither matrices nor reports, so it refuses both
    for flag, name in (("--dump-matrix", "mats"), ("--report", "report.json")):
        code, out, err = run(["table", "--algebra", "g3d2", "--sweep", "alpha=1,2",
                              "--wmax", "2", flag, str(tmp_path / name)])
        assert code == 2 and "--sweep" in err and flag in err and not out
        assert not (tmp_path / name).exists()
    # malformed algebra documents name the bad field
    for doc, field in MALFORMED_DOCUMENTS:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(["table", "--file", str(path), "--wmax", "1"])
        assert code == 2 and field in err and not out
    code, _, _ = run(["no-such-command"])
    assert code == 2
    code, _, _ = run([])
    assert code == 2


def test_default_max_dim_admits_gl2_to_w_12(monkeypatch):
    # only the size walk runs: gl2's largest cell to w = 12 has 140,736 monomials, and
    # the first cell over the default is (13, 13)
    reached = []
    monkeypatch.setattr(cli, "betti_table", lambda gs, w_max, **kwargs:
                        reached.append(w_max) or homology.BettiTable("gl2"))
    code, out, err = run(["table", "--algebra", "gl2", "--wmax", "12"])
    assert code == 0 and reached == [12] and out, err
    code, out, err = run(["table", "--algebra", "gl2", "--wmax", "13"])
    assert code == 2 and not out and reached == [12]
    assert "w=13, m=13 has 205626 monomials, more than --max-dim 200000" in err


def test_far_empty_cell_is_answered_at_once():
    # a degree-m monomial has weight <= (dim - 1) m, so these cells are empty, and
    # no count table is built to their weight (gl2 at w = 1000 took over a minute)
    for name, w in (("gl2", 1000), ("heis3", 10000)):
        start = time.perf_counter()
        code, out, err = run(["basis", "--algebra", name, "--m", "3", "--w", str(w)])
        assert time.perf_counter() - start < 1
        assert code == 0 and out == f"dim C_3^(w={w}) = 0\n", err


def test_huge_basis_cell_is_refused_at_once():
    # the cells (m - k, w - k) embed in (m, w) and are counted first, so the
    # count tables are built only to about w = 13, not to w = 1000
    start = time.perf_counter()
    code, out, err = run(["basis", "--algebra", "gl2", "--m", "1000", "--w", "1000"])
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert "w=1000, m=1000 has at least 205626 monomials, as many as at w=13, m=13" in err
    code, out, err = run(["basis", "--algebra", "heis3", "--m", "1000", "--w", "1000"])
    assert code == 2 and "w=1000, m=1000 has at least" in err and not out
    # dim 1 has no level-2 generator, so only the requested (empty) cell is counted
    code, out, err = run(["basis", "--algebra", "abelian1", "--m", "1", "--w", "1",
                          "--max-dim", "0"])
    assert code == 0 and out == "dim C_1^(w=1) = 0\n", err
    code, out, err = run(["basis", "--algebra", "abelian2", "--m", "1", "--w", "1",
                          "--max-dim", "0"])
    assert code == 2 and "w=1, m=1 has at least 1 monomials" in err and not out


def test_cell_beyond_the_tightest_weight_is_answered_at_once():
    # on dim 3 the even top letter appears at most once, so a degree-m monomial
    # weighs at most m + 1, not 2 m; counting these cells up to their weight took
    # about 4 s for w = 790 and over a minute for w = 3990
    for name, m, w in (("heis3", 2000, 3990), ("heis3", 400, 790), ("g3d1n", 400, 790)):
        start = time.perf_counter()
        code, out, err = run(["basis", "--algebra", name, "--m", str(m), "--w", str(w)])
        assert time.perf_counter() - start < 1, (name, m, w)
        assert code == 0 and out == f"dim C_{m}^(w={w}) = 0\n", err


def test_huge_basis_cell_off_the_diagonal_is_refused_at_once():
    # gl2's odd grades 1 and 3 embed (13, 13) in (400, 1000); the diagonal cells
    # (400 - k, 1000 - k) are empty until the count tables reach about w = 900
    start = time.perf_counter()
    code, out, err = run(["basis", "--algebra", "gl2", "--m", "400", "--w", "1000"])
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert "w=1000, m=400 has at least 205626 monomials, as many as at w=13, m=13" in err


def test_file_algebra_of_dim_10(tmp_path):
    # 1023 generators: the basis listing takes no stack frame per generator, and
    # the count tables and listings at w = 0 walk only the 10 letters of grade 0
    path = tmp_path / "abelian10.json"
    path.write_text(json.dumps({"name": "abelian10", "dim": 10, "brackets": []}),
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["table", "--file", str(path), "--wmax", "0", "--format", "json"])
    assert time.perf_counter() - start < 1
    assert code == 0, err
    [row] = json.loads(out)["rows"]
    assert row["degrees"] == list(range(11))
    assert row["dims"] == [comb(10, m) for m in range(11)]
    assert row["betti"] == row["dims"]  # the boundary is zero


def test_bracket_table_of_a_huge_grid_is_refused(tmp_path):
    # an abelian dim 10 would print 527,873 entries in about a minute
    path = tmp_path / "abelian10.json"
    path.write_text(json.dumps({"dim": 10, "brackets": []}), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["bracket-table", "--file", str(path)])
    assert time.perf_counter() - start < 3
    assert code == 2 and not out and "hold 527873 entries, more than 200000" in err, err


def test_file_algebra_over_the_dim_cap_is_refused(tmp_path):
    # 2^dim - 1 generators: dim 13 takes over 10 s and dim 40 runs out of memory
    for dim in (13, 40):
        path = tmp_path / f"abelian{dim}.json"
        path.write_text(json.dumps({"dim": dim, "brackets": []}), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(["table", "--file", str(path), "--wmax", "0"])
        assert time.perf_counter() - start < 1
        assert code == 2 and f"dim {dim} needs 2^{dim} - 1 generators" in err and not out
        # check-jacobi builds no generators
        code, out, _ = run(["check-jacobi", "--file", str(path)])
        assert code == 0 and "Jacobi identity holds" in out


def test_large_abelian_file_fails_fast(tmp_path):
    # the Jacobi check visits stored brackets only, so a dim-100 document with none
    # is checked at once and the table is refused by the dim cap
    path = tmp_path / "abelian100.json"
    path.write_text(json.dumps({"dim": 100, "brackets": []}), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(["check-jacobi", "--file", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 0 and "Jacobi identity holds" in out
    start = time.perf_counter()
    code, out, err = run(["table", "--file", str(path), "--wmax", "0"])
    assert time.perf_counter() - start < 1
    assert code == 2 and "dim 100 needs 2^100 - 1 generators" in err and not out


def test_file_source_with_params(tmp_path):
    doc = {"name": "custom", "dim": 2,
           "brackets": [{"i": 1, "j": 2, "out": {"1": "lambda"}}],
           "params": ["lambda"]}
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(["table", "--file", str(path), "--param", "lambda=1",
                        "--wmax", "2", "--format", "csv"])
    assert code == 0
    # same table as aff1
    code2, out2, _ = run(["table", "--algebra", "aff1", "--wmax", "2",
                          "--format", "csv"])
    assert out == out2


def test_sweep_refuses_a_bad_value_before_the_first_table(tmp_path, monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "_table", lambda *args: computed.append(args))
    code, out, err = run(["table", "--algebra", "g3d3", "--param", "beta=1", "--wmax", "20",
                          "--sweep", "alpha=1,0"])
    assert (code, out) == (2, "") and "alpha must be nonzero" in err, err
    # [z1, z2] = z3 and [z1, z3] = t z1 satisfy the Jacobi identity only at t = 0
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"name": "family", "dim": 3, "params": ["t"], "brackets": [
        {"i": 1, "j": 2, "out": {"3": "1"}}, {"i": 1, "j": 3, "out": {"1": "t"}}]}),
        encoding="utf-8")
    code, out, err = run(["table", "--file", str(path), "--wmax", "20", "--sweep", "t=0,1"])
    assert (code, out) == (2, "") and "Jacobi identity fails" in err, err
    assert computed == []


def test_table_of_a_conjugated_document_equals_the_catalog_table(tmp_path):
    sc = catalog_get("g3d2", {"alpha": "-1"})
    conjugated = change_basis(sc, random_invertible(3, random.Random("g3d2,1")))
    document = algebra_document(conjugated)
    assert any("/" in c for b in document["brackets"] for c in b["out"].values())
    path = tmp_path / "g3d2_conjugated.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    want = run(["table", "--algebra", "g3d2", "--param", "alpha=-1", "--wmax", "8",
                "--format", "csv"])
    assert want[0] == 0
    assert run(["table", "--file", str(path), "--wmax", "8", "--format", "csv"]) == want
