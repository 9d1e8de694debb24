"""The torus split: grading detection, the whole-matrix second route,
acyclic nonzero pieces and the checks on forced ranks."""

import os
import subprocess
import sys

import pytest

from superhomology import (betti_row, betti_table, catalog_get, catalog_names,
                           generator_system, homology, load_algebra, torus_pieces)

from conftest import REPO_ROOT
from oracles import piece_tables, whole_matrix_betti_table

PARAMS = {"g3d2": [{"alpha": "-1"}, {"alpha": "2"}, {"alpha": "1/2"}],
          "g3d3": [{"alpha": "2/3", "beta": "5/7"}, {"alpha": "2/3", "beta": "-5/7"}]}
PAPER_BASIS = {"aff1", "heis3", "g3d1n", "g3d2", "g3d3", "sl2_efh"}
GRADED = {"aff1", "g3d1n", "g3d2", "gl2", "sl2_efh"}


def catalog_cases():
    for name in catalog_names():
        for binds in PARAMS.get(name, [{}]):
            for basis in ("canonical", "paper") if name in PAPER_BASIS else ("canonical",):
                yield name, binds, basis


def test_grading_detection_across_the_catalog():
    for name, binds, basis in catalog_cases():
        gs = generator_system(catalog_get(name, binds), basis)
        assert "torus" not in vars(gs)  # computed on first use, not at construction
        assert bool(gs.torus) == (name in GRADED), (name, binds, basis)
        assert "torus" in vars(gs)  # and then kept
        assert len(gs.torus) <= 1  # gl2's E22 coordinate is minus E11's
    gl2 = generator_system(catalog_get("gl2"))
    # ad E11 on E11, E12, E21, E22: 0, 1, -1, 0
    assert gl2.torus[0][:4] == (0, 1, -1, 0)
    half = generator_system(catalog_get("g3d2", {"alpha": "1/2"}))
    assert half.torus[0][:3] == (-2, -1, 0)  # -1 and -1/2 scaled to integers


@pytest.mark.parametrize("name,binds,basis", list(catalog_cases()))
def test_tables_equal_the_whole_matrix_route(name, binds, basis):
    gs = generator_system(catalog_get(name, binds), basis)
    wmax = {"gl2": 5, "aff1": 12}.get(name, 3 if name.startswith("abelian") else 7)
    if name in ("abelian5", "abelian6"):
        wmax = 1
    got = [r.to_dict() for r in betti_table(gs, wmax).rows]
    oracle = generator_system(catalog_get(name, binds), basis)
    assert got == [r.to_dict() for r in whole_matrix_betti_table(oracle, wmax).rows]


def test_two_coordinate_grading_of_a_direct_sum():
    # aff1 + aff1: ad z2 and ad z4 are both diagonal and independent
    doc = {"name": "aff1x2", "dim": 4, "brackets": [{"i": 1, "j": 2, "out": {"1": "1"}},
                                                    {"i": 3, "j": 4, "out": {"3": "1"}}]}
    gs = generator_system(load_algebra(doc))
    assert len(gs.torus) == 2
    assert [coord[:4] for coord in gs.torus] == [(-1, 0, 0, 0), (0, 0, -1, 0)]
    got = [r.to_dict() for r in betti_table(gs, 4).rows]
    oracle = generator_system(load_algebra(doc))
    assert got == [r.to_dict() for r in whole_matrix_betti_table(oracle, 4).rows]
    for w in range(5):
        pieces = piece_tables(oracle, w)
        assert {k: dims for k, (dims, _) in pieces.items()} == torus_pieces(gs, w)
        assert all(set(betti.values()) == {0} for k, (_, betti) in pieces.items() if any(k))


ACYCLIC_CASES = [("gl2", {}, 6, "canonical")] + [
    (name, binds, wmax, basis)
    for name, binds, wmax in [("sl2_efh", {}, 10), ("g3d2", {"alpha": "-1"}, 8),
                              ("g3d2", {"alpha": "2"}, 8), ("g3d2", {"alpha": "1/2"}, 8),
                              ("aff1", {}, 8), ("g3d1n", {}, 8)]
    for basis in ("canonical", "paper")]


@pytest.mark.parametrize("name,binds,wmax,basis", ACYCLIC_CASES)
def test_every_nonzero_piece_is_acyclic(name, binds, wmax, basis):
    gs = generator_system(catalog_get(name, binds), basis)
    zero = (0,) * len(gs.torus)
    assert zero
    for w in range(wmax + 1):
        pieces = piece_tables(gs, w)
        # the listing agrees with the count, piece by piece
        assert {k: dims for k, (dims, _) in pieces.items()} == torus_pieces(gs, w)
        for key, (dims, betti) in pieces.items():
            if key != zero:
                assert set(betti.values()) == {0}, (w, key, betti)
        row = betti_row(gs, w)
        zero_betti = pieces.get(zero, ({}, {}))[1]
        assert row.betti == [zero_betti.get(m, 0) for m in row.degrees], w


def test_gl2_w7_ranks_pinned():
    row = betti_row(generator_system(catalog_get("gl2")), 7)
    ranks = dict(zip(row.degrees, (d - k for d, k in zip(row.dims, row.kernels))))
    assert [ranks[m] for m in range(4, 12)] == [12, 144, 821, 2729, 5310, 5861, 3383, 792]
    assert not any(ranks.get(m, 0) for m in row.degrees if not 4 <= m <= 11)
    assert row.euler() == 0
    assert sum((-1) ** m * b for m, b in zip(row.degrees, row.betti)) == 0


CORRUPT = """
from superhomology import TableInvariantError, betti_row, catalog_get, generator_system, homology
from superhomology.matrix import RationalMatrix
real_pieces, real_assemble = homology.torus_pieces, homology.assemble

def corrupted(move):
    def pieces(gs, w):
        out = {k: dict(v) for k, v in real_pieces(gs, w).items()}
        plus, minus = sorted(k for k in out if any(k))[:2]
        m = max(set(out[plus]) & set(out[minus]))
        out[plus][m] += 1
        if move:  # the sum over pieces stays, both pieces break
            out[minus][m] -= 1
        return out
    return pieces

def padded(gs, cols, rows):  # one row more than the zero piece has
    matrix = real_assemble(gs, cols, rows)
    return RationalMatrix(matrix.rows + 1, matrix.cols,
                          [(r, c, v) for (r, c), v in matrix.entries.items()])

for pieces, assemble in ((corrupted(False), real_assemble), (corrupted(True), real_assemble),
                         (real_pieces, padded)):
    homology.torus_pieces, homology.assemble = pieces, assemble
    try:
        betti_row(generator_system(catalog_get("gl2")), 3)
    except TableInvariantError as exc:
        print(exc)
    else:
        print("accepted")
homology.torus_pieces, homology.assemble = real_pieces, real_assemble
"""


def _check_corruption_messages(lines):
    assert len(lines) == 3, lines
    for line, why in zip(lines, ["add up to", "forced rank", "counted piece"]):
        assert why in line, (why, line)


def test_corrupted_piece_count_raises(monkeypatch, capsys):
    for name in ("torus_pieces", "assemble"):  # restored after the test
        monkeypatch.setattr(homology, name, getattr(homology, name))
    exec(compile(CORRUPT, "corrupt", "exec"), {})
    _check_corruption_messages(capsys.readouterr().out.splitlines())


def test_corrupted_piece_count_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", CORRUPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _check_corruption_messages(done.stdout.splitlines())

