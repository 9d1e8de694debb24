"""The torus split: grading detection, the whole-matrix second route,
acyclic nonzero pieces, the twist, and the checks on forced ranks and d o d = 0;
and the split letters: the central level-1 letters outside [g, g], and a level-1 sl2
with a torus (the Hochschild-Serre route)."""

import os
import random
import subprocess
import sys
from itertools import combinations
from operator import add

import pytest

from superhomology import (GeneratorSystem, betti_row, betti_table, catalog_get, catalog_names,
                           generator_system, homology, load_algebra, torus_pieces)
from superhomology import exterior
from superhomology.ranklin import RationalMatrix

from conftest import REPO_ROOT
from oracles import (assemble, change_basis, dd_probe_every_column, naive_rank,
                     numbered_piece_matrix, piece_dims, piece_tables, random_invertible,
                     semidirect_matrix, semidirect_product, whole_matrix_betti_table,
                     witness_every_cell, zero_piece_basis, zero_piece_matrix)
from test_chain import AFF1_SQUARED

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


@pytest.mark.parametrize("name,binds,basis", list(catalog_cases()))
def test_int_rows_are_scaled_word_route_matrices(name, binds, basis):
    # the table path's int columns are D_w times the boundary on the zero piece,
    # checked entry by entry against the word route
    gs = generator_system(catalog_get(name, binds), basis)
    wmax = {"gl2": 3, "abelian5": 1, "abelian6": 1}.get(name, 5)
    scales = set()
    for w in range(wmax + 1):
        scale = gs.int_brackets(w)[0]
        scales.add(scale)
        bases = {m: zero_piece_basis(gs, m, w) for m in range(w + gs.dim + 1)}
        for m in range(1, w + gs.dim + 1):
            columns = assemble(gs, w, bases[m], bases[m - 1])
            assert len(columns) == len(bases[m])
            got = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
            assert all(type(v) is int and v for v in got.values())
            oracle = zero_piece_matrix(gs, m, w)
            assert got == {key: scale * v for key, v in oracle.entries.items()}, (w, m)
    # D_w is 1 exactly for the integral structure constants (in both bases here);
    # g3d3's paper basis raises it from 21 to 105 at w = 2
    integral = all(c.denominator == 1 for vec in gs.sc.entries.values() for c in vec)
    assert (scales == {1}) == integral, scales


def test_only_ints_reach_elimination(monkeypatch):
    seen = []
    real = homology.rank_rows

    def checking(rows):
        seen.extend(type(v) for row in rows for v in row.values())
        return real(rows)

    monkeypatch.setattr(homology, "rank_rows", checking)
    # a forked worker's eliminations are not seen here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    for name, binds, basis, wmax in [("g3d3", {"alpha": "2/3", "beta": "-5/7"}, "paper", 8),
                                     ("g3d3", {"alpha": "2/3", "beta": "5/7"}, "canonical", 8),
                                     ("g3d2", {"alpha": "1/2"}, "canonical", 6),
                                     ("gl2", {}, "canonical", 4)]:
        gs = generator_system(catalog_get(name, binds), basis)
        assert gs.int_brackets(wmax)[0] > 1 or name == "gl2"
        betti_table(gs, wmax)
    assert seen and set(seen) == {int}


def test_int_brackets_bracket_only_pairs_the_weight_can_reach():
    # every level-1 letter is central and outside [g, g] = 0, so all of them split off and
    # nothing is bracketed at w = 0; the torus detection, in the given system and in the
    # rebuilt one, skips the central level-1 generators and brackets nothing.  Asked for,
    # w = 0 brackets only the 45 level-1 pairs
    gs = generator_system(load_algebra({"name": "abelian10", "dim": 10, "brackets": []}))
    betti_table(gs, 0)
    assert sum(gs.ranked.split) == 10
    assert len(gs._pair_cache) == 0 and len(gs.ranked._pair_cache) == 0
    assert gs.int_brackets(0) == (1, {})
    assert len(gs._pair_cache) == 45


def test_two_coordinate_grading_of_a_direct_sum():
    # aff1 + aff1: ad z2 and ad z4 are both diagonal and independent
    doc = AFF1_SQUARED
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


@pytest.mark.parametrize("name, w_max", [("gl2", 4), ("heis3", 6)])
def test_table_pivots_are_nonsingular_in_the_uncleared_piece(name, w_max):
    # the pivots name rows and columns of the piece with both degrees numbered odd
    # part first, and they span a nonsingular submatrix of it; on gl2 that is a piece of
    # L>=2 at torus weight 0 or 2 in the adapted basis of the ranked system
    given = generator_system(catalog_get(name))
    gs = given.ranked

    def on_cell(w, m, shape, report, forced, piece):
        matrix = numbered_piece_matrix(gs, m, w, piece)
        square = RationalMatrix(report.rank, report.rank)
        for i, (r, _) in enumerate(report.pivots):
            for j, (_, c) in enumerate(report.pivots):
                square.set(i, j, matrix.entries.get((r, c), 0))
        assert naive_rank(square) == report.rank, (w, m, piece)

    betti_table(given, w_max, on_cell=on_cell)


def test_gl2_w8_ranks_pinned():
    row = betti_row(generator_system(catalog_get("gl2")), 8)
    ranks = dict(zip(row.degrees, (d - k for d, k in zip(row.dims, row.kernels))))
    assert [ranks[m] for m in range(4, 13)] == [4, 69, 493, 2110, 5853, 10160, 10413, 5709, 1285]
    assert not any(ranks.get(m, 0) for m in row.degrees if not 4 <= m <= 12)
    assert row.euler() == 0
    assert sum((-1) ** m * b for m, b in zip(row.degrees, row.betti)) == 0


CORRUPT = """
from superhomology import TableInvariantError, betti_row, catalog_get, generator_system, homology
real_pieces, real_basis, real_columns = (homology.torus_pieces, homology.numbered_bases,
                                         homology.boundary_columns)

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

def padded(gs, w, degrees, *piece):  # one monomial listed twice in each degree
    bases = real_basis(gs, w, degrees, *piece)
    return {m: (tails + tails[:1], codes + codes[:1]) for m, (tails, codes) in bases.items()}

def flipped():  # one sign flipped in each column of the second cell from the top
    calls = []
    def columns_of(gs, w, tails, codes, rows):
        out = real_columns(gs, w, tails, codes, rows)
        calls.append(w)
        if calls.count(w) == 2:
            for column in out:
                if column:
                    column[min(column)] *= -1
        return out
    return columns_of

for pieces, basis, columns in ((corrupted(False), real_basis, real_columns),
                               (corrupted(True), real_basis, real_columns),
                               (real_pieces, padded, real_columns),
                               (real_pieces, real_basis, flipped())):
    homology.torus_pieces, homology.numbered_bases, homology.boundary_columns = (
        pieces, basis, columns)
    try:
        betti_row(generator_system(catalog_get("gl2")), 3)
    except TableInvariantError as exc:
        print(exc)
    else:
        print("accepted")
homology.torus_pieces, homology.numbered_bases, homology.boundary_columns = (
    real_pieces, real_basis, real_columns)
"""


def _check_corruption_messages(lines):
    assert len(lines) == 4, lines
    for line, why in zip(lines, ["add up to", "forced rank", "counted piece", "dd = 0 probe"]):
        assert why in line, (why, line)


def test_corrupted_piece_count_raises(monkeypatch, capsys):
    for name in ("torus_pieces", "numbered_bases", "boundary_columns"):  # restored after
        monkeypatch.setattr(homology, name, getattr(homology, name))
    exec(compile(CORRUPT, "corrupt", "exec"), {})
    _check_corruption_messages(capsys.readouterr().out.splitlines())


def test_corrupted_piece_count_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", CORRUPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _check_corruption_messages(done.stdout.splitlines())



def _rows(table):
    return [row.to_dict() for row in table.rows]


def test_gl2_is_ranked_in_a_basis_adapted_to_its_center():
    # z = e1 + e4 spans the center and lies outside [g, g] = span(e2, e3, e1 - e4): the
    # ranked system is gl2 on (z, e, f, h) = (e1 + e4, e2, e3, e1 - e4).  Level 1 is z and
    # an sl2 whose h gives the torus, so all four letters split off, and e weighs 2
    gs = generator_system(catalog_get("gl2"))
    ranked = gs.ranked
    assert ranked is not gs and ranked.split == (1,) * 4 + (0,) * 11 and not gs.split
    assert ranked.sl2 == 2 and gs.sl2 == 0
    assert {pair: list(map(int, vec)) for pair, vec in ranked.sc.entries.items()} == {
        (2, 3): [0, 0, 0, 1], (2, 4): [0, -2, 0, 0], (3, 4): [0, 0, 2, 0]}
    assert ranked.torus == ((0, 2, -2, 0, 0, 2, -2, 0, 2, -2, 0, 0, 2, -2, 0),)
    assert ranked.grading == ranked.torus + (ranked.split,) and gs.grading == gs.torus


@pytest.mark.parametrize("name", ["gl2", "g3d1n", "abelian4", "gl2-conjugated"])
def test_ranked_is_one_system_on_the_constants_in_the_adapted_basis(name, monkeypatch):
    # ranked inverts the adapted level-1 vectors b_i and brackets them on the given
    # constants, building no system but the one it returns: c'_ij = B^-1 [b_i, b_j], with
    # B holding the b_i as columns, as change_basis computes it apart
    if name == "gl2-conjugated":
        sc = change_basis(catalog_get("gl2"), random_invertible(4, random.Random("gl2,1")))
    else:
        sc = catalog_get(name)
    gs = generator_system(sc)
    built, inverted = [], []
    real_init, real_invert = GeneratorSystem.__init__, exterior._invert

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def seen(expansions, order):
        inverted.append([[mv.coeffs.get(idx, 0) for mv in expansions.values()] for idx in order])
        return real_invert(expansions, order)

    monkeypatch.setattr(GeneratorSystem, "__init__", counted)
    monkeypatch.setattr(exterior, "_invert", seen)
    ranked = gs.ranked
    assert built == [ranked] and ranked is not gs and len(inverted) == 1
    assert ranked.sc == change_basis(sc, inverted[0])


SPLIT_CASES = [("g3d1n", 10, 1, "canonical"), ("abelian3", 6, 3, "canonical"),
               ("abelian4", 4, 4, "canonical"), ("g3d1n", 10, 1, "paper")]


@pytest.mark.parametrize("name, w_max, split, basis", SPLIT_CASES, ids=[
    "-".join(map(str, case[:3])) + ("-paper" if case[3] == "paper" else "")
    for case in SPLIT_CASES])
def test_the_split_route_equals_the_whole_matrix_route(name, w_max, split, basis):
    # the central letters outside [g, g] are given letters, and they split off in a system
    # rebuilt in the adapted basis, with no alias level (g3d1n's paper level 2 is dropped)
    gs = generator_system(catalog_get(name), basis)
    got = _rows(betti_table(gs, w_max))
    ranked = gs.ranked
    assert ranked is not gs
    assert sum(ranked.split) == split and not gs.split
    # 1 on exactly the first c level-1 ids, and the given system keeps no split
    assert [x for x, s in enumerate(ranked.split) if s] == ranked.level_to_gens[1][:split]
    assert len(ranked.split) == ranked.count and gs.split == ()
    assert got == _rows(whole_matrix_betti_table(generator_system(catalog_get(name), basis),
                                                 w_max))
    assert not any(dd_probe_every_column(ranked, w) for w in range(w_max + 1))


def test_the_split_route_on_gl2_equals_the_whole_matrix_route():
    want = _rows(whole_matrix_betti_table(generator_system(catalog_get("gl2")), 6))
    gs = generator_system(catalog_get("gl2"))
    assert _rows(betti_table(gs, 6)) == want
    assert not any(dd_probe_every_column(gs.ranked, w) for w in range(7))
    # in two random bases the ranked system is rebuilt, ungraded and with D_w > 1; there
    # the whole-matrix route takes over 30 s for the one cell (4, 5), so it runs to w = 2,
    # and the catalog basis's whole-matrix table stands for it to w = 4
    for seed in (1, 2):
        sc = change_basis(catalog_get("gl2"), random_invertible(4, random.Random(f"gl2,{seed}")))
        gs = generator_system(sc)
        got = _rows(betti_table(gs, 4))
        assert sum(gs.ranked.split) == 1 and not gs.ranked.torus and not gs.split
        assert got == want[:5]
        assert got[:3] == _rows(whole_matrix_betti_table(generator_system(sc), 2))
        assert not any(dd_probe_every_column(gs.ranked, w) for w in range(5))


# (kind, n, w_max): Rx + R^n with [x, e_i] = A e_i for a seeded A of each kind
SEMIDIRECT = [("diagonal", 3, 5), ("jordan", 3, 4), ("rational", 2, 6), ("singular", 3, 5),
              ("conjugated", 3, 3)]


@pytest.mark.parametrize("kind, n, w_max", SEMIDIRECT)
def test_random_semidirect_products_equal_the_whole_matrix_route(kind, n, w_max):
    # graded or not, D_w = 1 or not, a split letter that is a given letter or not: the table
    # equals the whole-matrix route, and d o d = 0 holds on every column of the ranked system
    sc = semidirect_product(semidirect_matrix(n, kind, random.Random(f"semidirect,{kind}")), kind)
    gs = generator_system(sc)
    got = _rows(betti_table(gs, w_max))
    assert got == _rows(whole_matrix_betti_table(generator_system(sc), w_max))
    ranked = gs.ranked
    assert not any(dd_probe_every_column(ranked, w) for w in range(w_max + 1))
    # each kind takes the path it is drawn for
    central = [k for k in range(2, n + 2) if not any(k in pair for pair in sc.entries)]
    assert bool(gs.torus) == (kind in ("diagonal", "singular"))
    assert sum(ranked.split) == (kind in ("singular", "conjugated"))
    assert bool(central) == (kind == "singular")
    assert (ranked.int_brackets(w_max)[0] > 1) == (kind in ("rational", "conjugated"))


@pytest.mark.parametrize("name, binds", [("heis3", {}), ("g3d3", {"alpha": "2/3", "beta": "5/7"})])
def test_an_algebra_without_split_letters_runs_on_the_given_system(name, binds, monkeypatch):
    # its center lies in [g, g] (heis3) or is 0, and it is no sl2 with a torus (g3d3 at
    # these parameters is a form of sl2 with no rational h): the table runs on the given
    # object, and no second system is built
    real_row, real_init, seen, built = homology.betti_row, GeneratorSystem.__init__, set(), []
    monkeypatch.setattr(homology, "betti_row",
                        lambda gs, w, on_cell=None: seen.add(id(gs)) or real_row(gs, w, on_cell))
    monkeypatch.setattr(GeneratorSystem, "__init__",
                        lambda self, *args: built.append(args) or real_init(self, *args))
    # a forked worker's rows are not seen here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    gs = generator_system(catalog_get(name, binds))
    built.clear()
    betti_table(gs, 6)
    assert gs.ranked is gs and not gs.split and seen == {id(gs)} and not built


SPLIT_CORRUPT = """
from superhomology import TableInvariantError, betti_row, catalog_get, generator_system, homology
real_pieces = homology.torus_pieces

def moved(gs, w):  # a monomial with split letters counted into a piece of L>=2 left unranked
    out = real_pieces(gs, w)
    key = min(key for key in out if key[0] not in (0, gs.sl2))
    out[key][max(out[key])] += 1
    return out

homology.torus_pieces = moved
try:
    betti_row(generator_system(catalog_get("gl2")).ranked, 3)
except TableInvariantError as exc:
    print(exc)
else:
    print("accepted")
homology.torus_pieces = real_pieces
"""


def test_a_count_in_an_unranked_piece_must_meet_the_chain_dim_identity(monkeypatch, capsys):
    # gl2 ranks only the pieces of L>=2 at torus weights 0 and 2, and no row reads the
    # piece at -6 that the count moves into: only the identity (1 + t)^4 times the pieces,
    # summed, equals chain_dim sees it; also under python -O
    monkeypatch.setattr(homology, "torus_pieces", homology.torus_pieces)  # restored after
    exec(compile(SPLIT_CORRUPT, "split_corrupt", "exec"), {})
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", SPLIT_CORRUPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for out in (capsys.readouterr().out, done.stdout):
        assert out.count("\n") == 1 and "w=3, m=3 add up to" in out, out


@pytest.mark.parametrize("name, w_max", [("gl2", 6), ("sl2_efh", 10), ("abelian4", 4),
                                         ("g3d1n", 6)])
def test_pieces_with_split_letters_are_binomial_copies_of_those_without(name, w_max):
    # the identity the table checks against chain_dim, on listed monomials: a split letter
    # is even, so a set S of them shifts a piece with none |S| degrees up and by the torus
    # weight of S.  The pieces with none are the graded count table's
    gs = generator_system(catalog_get(name)).ranked
    split = [x for x, s in enumerate(gs.split) if s]
    for w in range(w_max + 1):
        pieces, copies = piece_dims(gs, w), {}
        bare = {key: dims for key, dims in pieces.items() if not key[-1]}
        for j in range(len(split) + 1):
            for letters in combinations(split, j):
                shift = tuple(sum(coord[x] for x in letters) for coord in gs.grading)
                for key, dims in bare.items():
                    into = copies.setdefault(tuple(map(add, key, shift)), {})
                    for m, d in dims.items():
                        into[m + j] = into.get(m + j, 0) + d
        assert copies == pieces, w
        assert torus_pieces(gs, w) == bare, w


def test_no_bracket_or_graded_count_of_gl2_holds_a_split_letter(monkeypatch):
    # after a table to w = 14 in this process, the int bracket table of every weight that
    # assembles a column (w = 0 and 1 have no cell with rows) leaves out the pairs with a
    # split letter, and every key of every graded suffix table holds none: its last digit,
    # the split coordinate, is its offset
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    gs = generator_system(catalog_get("gl2"))
    betti_table(gs, 14)
    ranked = gs.ranked
    split = {x for x, s in enumerate(ranked.split) if s}
    assert sorted(ranked._int_cache) == list(range(2, 15)) and len(split) == 4
    for w, (_, table) in ranked._int_cache.items():
        assert table and not split & {x for pair in table for x in pair}, w
    bound, tables, _, view, (places, offsets, _) = ranked._count_cache[ranked.grading]
    assert bound == 14 and tables[0]
    assert all(key % places[-2] == offsets[-1] for table in tables for key in table)
    assert all(key[-1] == 0 for pieces in view.values() for key in pieces)


def test_an_sl2_with_a_torus_splits_off_its_level_1():
    # sl2_efh is rebuilt on its own constants (e, f, h are given letters of [g, g]), with
    # e, f and h split off; e weighs 2 on h's torus coordinate
    gs = generator_system(catalog_get("sl2_efh"))
    ranked = gs.ranked
    assert ranked is not gs and ranked.sc == gs.sc and ranked.ranked is ranked
    assert ranked.split == (1, 1, 1, 0, 0, 0, 0) and ranked.sl2 == 2
    assert ranked.torus == gs.torus == ((-2, 2, 0, 0, 0, -2, 2),)
    assert not gs.split and gs.sl2 == 0


@pytest.mark.parametrize("name, w_max", [("gl2", 10), ("sl2_efh", 30)])
def test_the_hochschild_serre_route_equals_the_split_route(name, w_max, monkeypatch):
    # the table ranks the pieces of L>=2 at torus weights 0 and 2 (each rank witnessed mod
    # p).  With the sl2 left unseen it ranks the torus-weight-0 piece of L'' instead, gl2
    # with z split off and sl2_efh on its given system; the two tables are byte-identical
    gs = generator_system(catalog_get(name))
    new = betti_table(gs, w_max).to_json()
    assert gs.ranked.sl2 == 2 and sum(gs.ranked.split) == gs.dim
    assert witness_every_cell(gs, w_max)
    monkeypatch.setattr(exterior, "_sl2_weight", lambda gs: 0)
    given = generator_system(catalog_get(name))
    assert betti_table(given, w_max).to_json() == new
    ranked = given.ranked
    assert ranked.sl2 == 0 and sum(ranked.split) == (name == "gl2")
    assert (ranked is given) == (name == "sl2_efh")


ALPHA_FAULTS = """
from superhomology import TableInvariantError, betti_table, catalog_get, generator_system, homology
real_bases, real_rank = homology.numbered_bases, homology.rank_rows
piece = []

def bases(gs, w, degrees, coords=None, key=()):  # notes which piece is being ranked
    piece[:] = key[:1]
    return real_bases(gs, w, degrees, coords, key)

def made_up(rows):  # one pivot more, at a row reduced to zero and a column no pivot holds
    report = real_rank(rows)
    spare = set(range(len(rows))) - {r for r, _ in report.pivots}
    free = set().union(*rows) - {c for _, c in report.pivots}
    if piece == [2] and spare and free:
        report.pivots.append((min(spare), min(free)))
    return report

def dropped(rows):  # one pivot fewer
    report = real_rank(rows)
    if piece == [2]:
        del report.pivots[-1:]
    return report

homology.numbered_bases = bases
for fault in (made_up, dropped):
    homology.rank_rows = fault
    try:
        betti_table(generator_system(catalog_get("gl2")), 6)
    except TableInvariantError as exc:
        print(exc)
    else:
        print("accepted")
homology.numbered_bases, homology.rank_rows = real_bases, real_rank
"""


def test_a_wrong_rank_in_the_alpha_piece_raises(monkeypatch, capsys):
    # a kernel that reports one rank more, or one pivot fewer, in the piece of torus weight
    # 2 of gl2: b_0 - b_2 goes negative, and the table raises, also under python -O
    for name in ("numbered_bases", "rank_rows"):  # restored after
        monkeypatch.setattr(homology, name, getattr(homology, name))
    exec(compile(ALPHA_FAULTS, "alpha_faults", "exec"), {})
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", ALPHA_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for out in (capsys.readouterr().out, done.stdout):
        lines = out.splitlines()
        assert len(lines) == 2, out
        assert all("negative Betti number of the ranked pieces" in line for line in lines), out
