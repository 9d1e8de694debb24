import copy
import hashlib
import importlib.util
import inspect
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import weakref
from fractions import Fraction as F
from math import comb

import pytest

from superhomology import (BettiTable, GeneratorSystem, Multivector, TableInvariantError,
                           betti_row, betti_table, catalog_get, generator_system, homology,
                           verify_table, wedge_basis)
from superhomology import chain

from conftest import EXPECTED_DIR, REPO_ROOT
from oracles import (change_basis, dd_probe_every_column, euler_check, generator_coords, mv_add,
                     mv_scaled, random_invertible, witness_every_cell)


@pytest.fixture(scope="module")
def heis3_table():
    gs = generator_system(catalog_get("heis3"))
    return betti_table(gs, 6)


def test_betti_row_examples():
    heis = generator_system(catalog_get("heis3"))
    row = betti_row(heis, 3)
    assert row.degrees == [2, 3, 4, 5, 6]
    assert row.betti == [0, 3, 10, 11, 4]

    g3d1n = generator_system(catalog_get("g3d1n"))
    assert betti_row(g3d1n, 4).betti == [0, 1, 2, 1, 0]

    kappa1 = generator_system(catalog_get("g3d2", {"alpha": "-1"}))
    assert betti_row(kappa1, 5).betti == [0, 0, 1, 2, 1]
    kappa0 = generator_system(catalog_get("g3d2", {"alpha": "2"}))
    assert betti_row(kappa0, 5).betti == [0, 0, 0, 0, 0]

    sl2 = generator_system(catalog_get("sl2_efh"))
    assert betti_row(sl2, 4).betti == [0, 0, 0, 0, 0]

    abelian = generator_system(catalog_get("abelian3"))
    row = betti_row(abelian, 1)
    assert row.betti == row.dims  # zero boundary: Betti = dimensions


def test_case3_kernel_columns_track_kappa():
    # kernel at degree w+2 is C(w+2,2) + kappa, at w+3 it is kappa
    for alpha, kappa in [("-1", 1), ("2", 0), ("1", 0)]:
        gs = generator_system(catalog_get("g3d2", {"alpha": alpha}))
        for w in (2, 4):
            row = betti_row(gs, w)
            assert row.kernels[-2] == comb(w + 2, 2) + kappa
            assert row.kernels[-1] == kappa


def test_weight_zero_rows_reproduce_classical_homology():
    # the alpha family at weight 0, with and without the alpha = -1 jump
    for alpha, kappa in [("-1", 1), ("3", 0)]:
        gs = generator_system(catalog_get("g3d2", {"alpha": alpha}))
        row = betti_row(gs, 0)
        assert row.degrees == [0, 1, 2, 3]
        assert row.dims == [1, 3, 3, 1]
        assert row.kernels == [1, 3, 1, kappa]
        assert row.betti == [1, 1, kappa, kappa]
    # heis3 at weight 0: the classical Betti numbers 1, 2, 2, 1
    row = betti_row(generator_system(catalog_get("heis3")), 0)
    assert row.betti == [1, 2, 2, 1]


def test_aff1_table():
    gs = generator_system(catalog_get("aff1"))
    table = betti_table(gs, 3)
    assert table.row(0).betti == [1, 1, 0]
    for w in (1, 2, 3):
        row = table.row(w)
        assert row.degrees == [w, w + 1, w + 2]
        assert row.dims == [1, 2, 1]
        assert row.kernels == [1, 1, 0]
        assert row.betti == [0, 0, 0]


def test_gl2_low_weights():
    gs = generator_system(catalog_get("gl2"))
    assert betti_row(gs, 0).betti == [1, 1, 0, 1, 1]
    assert betti_row(gs, 2).betti == [0, 2, 2, 0, 2, 2]


# gl2 beyond the published rows 0-5 (expected/gl2.json): w -> (lowest degree, Betti numbers)
GL2_ROWS = {6: (2, [0, 1, 1, 0, 3, 3, 0, 2, 2]), 7: (3, [0, 0, 1, 2, 1, 1, 2, 1, 0]),
            8: (3, [0, 1, 2, 1, 1, 4, 3, 0, 2, 2]), 9: (3, [0, 1, 1, 0, 2, 3, 1, 1, 2, 1, 0]),
            10: (4, [0, 0, 1, 2, 1, 1, 4, 3, 0, 2, 2])}


def test_gl2_rows_6_to_10_are_pinned():
    # the JSON digest is that of the table computed on gl2's catalog basis, with z = e1 + e4
    # kept in every cell
    table = betti_table(generator_system(catalog_get("gl2")), 10)
    for w, (low, betti) in GL2_ROWS.items():
        row = table.row(w)
        assert (row.degrees, row.betti) == (list(range(low, low + len(betti))), betti), w
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == \
        "bf1442102ff4ee6b9177d93dd3814890154202749d2498187c733966574948f9"


def test_row_invariants_validate(heis3_table):
    for row in heis3_table.rows:
        row.validate()


def test_euler_check_examples():
    assert euler_check(generator_system(catalog_get("heis3")), 7) == 0
    assert euler_check(generator_system(catalog_get("abelian4")), 0) == 0
    assert euler_check(generator_system(catalog_get("gl2")), 5) == 0


def test_euler_zero_for_all_catalog_up_to_w20():
    from superhomology import catalog_names
    for name in catalog_names():
        binds = {}
        if name == "g3d2":
            binds = {"alpha": "4"}
        elif name == "g3d3":
            binds = {"alpha": "2", "beta": "-3"}
        gs = generator_system(catalog_get(name, binds))
        for w in range(0, 21):
            assert euler_check(gs, w) == 0, (name, w)


def test_betti_alternating_sum_vanishes(heis3_table):
    for row in heis3_table.rows:
        assert sum((-1) ** m * b for m, b in zip(row.degrees, row.betti)) == 0


def test_closed_forms_hold_beyond_the_published_range():
    heis = generator_system(catalog_get("heis3"))
    for w in (18, 20):
        row = betti_row(heis, w)
        assert row.betti == [0, w, 3 * w + 1, 3 * w + 2, w + 1]
    aff = generator_system(catalog_get("aff1"))
    assert betti_row(aff, 40).betti == [0, 0, 0]


def test_heis3_to_w40_equals_the_closed_form():
    # rows 1-40, dims and kernels included: the twist on cells up to heis3's largest tracked size
    spec = importlib.util.spec_from_file_location(
        "gen_expected", os.path.join(REPO_ROOT, "tools", "gen_expected.py"))
    gen_expected = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_expected)
    table = betti_table(generator_system(catalog_get("heis3")), 40)
    assert [row.to_dict() for row in table.rows[1:]] == gen_expected.central_rows(40)


def random_invertible_basis(sc, level, rng):
    """A seeded alias basis of one level: unit triangular in a shuffled order, so invertible."""
    elements = wedge_basis(sc, level)
    size = len(elements)
    perm = list(range(size))
    rng.shuffle(perm)
    basis = []
    for i in range(size):
        coeffs = {elements[perm[i]]: F(rng.choice([1, -1, 2, F(1, 2), F(-2, 3)]))}
        for j in range(i):
            if rng.random() < 0.5:
                coeffs[elements[perm[j]]] = F(rng.randint(-2, 2), rng.randint(1, 2))
        basis.append((f"b{i + 1}", Multivector(level, coeffs)))
    return basis


def test_betti_invariant_under_random_alias_bases():
    rng = random.Random(424242)
    for name, binds in [("heis3", {}), ("sl2_efh", {})]:
        sc = catalog_get(name, binds)
        reference = betti_table(generator_system(sc), 4)
        for level in (1, 2, 3):
            gs = GeneratorSystem(sc, {level: random_invertible_basis(sc, level, rng)})
            table = betti_table(gs, 4)
            assert [r.to_dict() for r in table.rows] == \
                [r.to_dict() for r in reference.rows], (name, level)


@pytest.mark.parametrize("name, binds", [("heis3", {}), ("g3d3", {"alpha": "2/3", "beta": "5/7"}),
                                         ("gl2", {})])
def test_the_alias_inverse_inverts_every_level(name, binds):
    # each alias generator has itself as coordinates, and each canonical wedge's
    # coordinates expand back to that wedge
    sc = catalog_get(name, binds)
    rng = random.Random(f"alias,{name}")
    for level in range(1, sc.dim + 1):
        gs = GeneratorSystem(sc, {level: random_invertible_basis(sc, level, rng)})
        gens = [gs.generators[g] for g in gs.level_to_gens[level]]
        for g in gens:
            assert generator_coords(gs, g.expansion) == {g.index: 1}, (level, g)
        for idx in wedge_basis(sc, level):
            coords = generator_coords(gs, Multivector.basis(idx))
            assert set(coords) <= {g.index for g in gens}
            expanded = [mv_scaled(gs.generators[g].expansion, c) for g, c in coords.items()]
            assert mv_add(*expanded) == Multivector.basis(idx), (level, idx)


def test_basis_independence_of_betti():
    for name, binds in [("heis3", {}), ("g3d1n", {}), ("g3d2", {"alpha": "-1"}),
                        ("g3d3", {"alpha": "2", "beta": "3"}), ("sl2_efh", {})]:
        sc = catalog_get(name, binds)
        canonical = betti_table(generator_system(sc, "canonical"), 4)
        alias = betti_table(generator_system(sc, "paper"), 4)
        assert [r.to_dict() for r in canonical.rows] == [r.to_dict() for r in alias.rows]


def test_parameter_stability_of_derived3_family():
    tables = []
    for alpha, beta in [(F(1), F(1)), (F(-1), F(1)), (F(2), F(3))]:
        gs = generator_system(catalog_get("g3d3", {"alpha": alpha, "beta": beta}))
        tables.append(betti_table(gs, 6))
    first = [r.to_dict() for r in tables[0].rows]
    for other in tables[1:]:
        assert [r.to_dict() for r in other.rows] == first


def test_verify_table_against_shipped_expected(heis3_table):
    with open(os.path.join(EXPECTED_DIR, "g3d1_central.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    diff = verify_table(heis3_table, expected)
    assert diff.ok, diff.render()
    assert diff.rows_checked == 6 and diff.rows_skipped == 9


def test_verify_table_detects_single_fault(heis3_table):
    with open(os.path.join(EXPECTED_DIR, "g3d1_central.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    expected = copy.deepcopy(expected)
    expected["rows"][2]["betti"][1] += 1
    diff = verify_table(heis3_table, expected)
    assert len(diff.mismatches) == 1
    entry = diff.mismatches[0]
    assert entry["w"] == 3 and entry["field"] == "betti"
    assert "mismatching" in diff.render()


def test_verify_table_partial_schema(heis3_table):
    expected = {"rows": [{"w": 2, "degrees": [1, 2, 3, 4, 5],
                          "betti": [0, 2, 7, 8, 3]}]}
    diff = verify_table(heis3_table, expected)
    assert diff.ok
    assert diff.cells_checked == 5  # dims and kernels were not provided


MALFORMED_EXPECTED = [
    ({"rows": [{"degrees": [1]}]}, "without 'w'"),
    ({"rows": [{"w": 1, "betti": [0]}]}, "no 'degrees'"),
    ({"rows": [{"w": 1, "degrees": [1, 2], "betti": [0]}]}, "length differs"),
    ({}, "'rows' list"),
    # each of these once failed with a traceback, was cut to an int, or compared nothing
    ({"rows": [{"w": 1, "degrees": [1], "betti": 7}]}, "'betti' must be a list"),
    ({"rows": [{"w": None, "degrees": [1], "betti": [0]}]}, "'w' must be an integer"),
    ({"rows": [{"w": 1, "degrees": [1, 2], "betti": [1.9, 1]}]}, "must be integers"),
    ({"rows": [{"w": 1.9, "degrees": [1], "betti": [1]}]}, "'w' must be an integer"),
    ({"rows": [{"w": 1, "degrees": "12", "betti": [0, 0]}]}, "'degrees' must be a list"),
    ({"rows": [{"w": 1, "degrees": [1], "bettti": [0]}]}, "unknown key 'bettti'"),
    ({"rows": [{"w": 1, "degrees": [True], "betti": [0]}]}, "must be integers"),
]


def test_verify_table_malformed_documents(heis3_table):
    # refused whether or not the computed table reaches the row (the CLI checks an empty one first)
    for doc, why in MALFORMED_EXPECTED:
        for computed in (heis3_table, BettiTable("")):
            with pytest.raises(ValueError, match=re.escape(why)):
                verify_table(computed, doc)


def test_json_round_trip_through_expected_schema(heis3_table):
    doc = json.loads(heis3_table.to_json())
    diff = verify_table(heis3_table, doc)
    assert diff.ok and diff.rows_checked == len(heis3_table.rows)


def test_renderings(heis3_table):
    csv = heis3_table.to_csv()
    assert csv.splitlines()[0] == "w,degree,space_dim,kernel_dim,betti"
    assert "3,4,39,26,10" in csv
    md = heis3_table.to_markdown()
    assert "### weight w = 3" in md
    assert "| Betti | 0 | 3 | 10 | 11 | 4 |" in md


def test_empty_weight_rows_render_without_error():
    gs = generator_system(catalog_get("abelian1"))
    table = betti_table(gs, 2)  # weights 1, 2 have no chain spaces at dim 1
    assert table.row(1).degrees == []
    assert "(empty complex)" in table.to_markdown()
    table.row(1).validate()


def test_validate_raises_under_optimize():
    # python -O strips asserts; the row checks must still raise there
    script = (
        "from superhomology import BettiRow, TableInvariantError\n"
        "bad = [BettiRow(1, [1, 2, 3], [1, 3, 2], [1, 3, 2], [1, -1, 0]),\n"
        "       BettiRow(2, [1, 2], [1, 1], [2, 1], [0, 0]),\n"
        "       BettiRow(3, [1, 2], [1, 2], [0, 1], [0, 1]),\n"
        "       BettiRow(4, [1, 2], [1, 1], [1, 1], [1, 0])]\n"
        "for row in bad:\n"
        "    try:\n"
        "        row.validate()\n"
        "    except TableInvariantError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    for line, why in zip(lines, ["negative Betti", "kernel outside",
                                 "Euler sum of dimensions", "Euler sum of Betti"]):
        assert why in line


def _repeat_last_pivot(report):
    """A rank one too high that the pivots carry: the last pivot, when there is one, twice."""
    report.pivots += report.pivots[-1:]
    return report


def test_wrong_rank_raises_instead_of_returning_row(monkeypatch):
    real = homology.rank_rows
    monkeypatch.setattr(homology, "rank_rows", lambda rows: _repeat_last_pivot(real(rows)))
    with pytest.raises(TableInvariantError, match="pivot column repeats"):
        betti_table(generator_system(catalog_get("heis3")), 3)


def test_a_repeated_pivot_raises_at_weight_0_under_python_O():
    # heis3 w = 0 passes every row check with each rank one too high, so the one guard on
    # the pivots must raise there, also with asserts stripped
    script = (
        "from superhomology import TableInvariantError, betti_row, catalog_get, "
        "generator_system, homology\n"
        "real = homology.rank_rows\n"
        "def repeated(rows):\n"
        "    report = real(rows)\n"
        "    report.pivots += report.pivots[-1:]\n"
        "    return report\n"
        "homology.rank_rows = repeated\n"
        "try:\n"
        "    print(betti_row(generator_system(catalog_get('heis3')), 0).betti)\n"
        "except TableInvariantError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "a pivot column repeats at w=0, m=2\n"


class _Listed(tuple):
    """A monomial as the table listed it, told apart from the other tuples on ``gs``."""


def _held_monomials(value) -> int:
    """Listed monomials reachable from ``value`` through dicts, lists, tuples and sets."""
    if isinstance(value, _Listed):
        return 1
    if isinstance(value, dict):
        return sum(_held_monomials(k) + _held_monomials(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(map(_held_monomials, value))
    return 0


@pytest.mark.parametrize("name, w_max", [("heis3", 25), ("gl2", 6)])
def test_table_leaves_no_basis_on_the_generator_system(name, w_max, monkeypatch):
    # each weight's bases are listed by its row and dropped when the row returns;
    # a monomial is a plain tuple, so the listed ones are marked to be found
    real = homology.numbered_bases
    listed = []

    def marked(gs, w, degrees):
        bases = {m: ([_Listed(tail) for tail in tails], codes)
                 for m, (tails, codes) in real(gs, w, degrees).items()}
        listed.append(sum(len(tails) for tails, _ in bases.values()))
        return bases

    monkeypatch.setattr(homology, "numbered_bases", marked)
    real_build = chain._suffix_tables
    built = []

    def counted(grades, coords, w):
        built.append((coords, w))
        return real_build(grades, coords, w)

    monkeypatch.setattr(chain, "_suffix_tables", counted)
    # a forked worker's listings are not seen here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    given = generator_system(catalog_get(name))
    betti_table(given, w_max)
    gs = given.ranked  # gl2's system in its adapted basis; heis3's own
    assert sum(listed) > 0
    assert _held_monomials(vars(given)) == _held_monomials(vars(gs)) == 0
    # what stays is one suffix-count table per coordinate set, built once at w_max
    assert set(gs._count_cache) <= {(), gs.grading}
    assert sorted(built) == sorted((coords, w_max) for coords in {(), gs.grading})
    for bound, tables, *_ in gs._count_cache.values():
        assert bound == w_max
        assert all(type(n) is int for table in tables for n in table.values())


class _Tails(list):
    """A degree's listing of odd tails, which a weak reference can watch."""


class _Column(dict):
    """An assembled column, which a weak reference can watch."""


class _Codes(list):
    """A degree's codes, which tell the numbering that sorts them which degree it is."""


@pytest.mark.parametrize("name, w_max", [("gl2", 8), ("heis3", 25)])
def test_a_row_holds_one_cell_at_a_time(name, w_max, monkeypatch):
    # a cell hands the one below only its pivots and its probe vector: while the cell
    # (w, m) is assembled, no listing of a degree above m and no kept column of the cell
    # above is alive, and a degree is numbered only as the rows of the cell above it, or
    # as the columns of its own cell when on_cell reads its pivots
    real_bases, real_columns, real_rank = (homology.numbered_bases, homology.boundary_columns,
                                           homology.rank_rows)
    listings, cells, kept, events, expected = {}, [], [], [], []

    def bases(gs, w, degrees):
        out = {m: (_Tails(tails), _Codes(codes)) for m, (tails, codes) in
               real_bases(gs, w, degrees).items()}
        listings.clear()
        for m, (tails, codes) in out.items():
            listings[m], codes.degree = weakref.ref(tails), (w, m)
        kept.clear()
        cells[:] = [m for m in reversed(degrees) if m >= 1]  # the cells of the row, in order
        for m in cells:
            expected.extend([("number", w, m - 1)] * (m - 1 in degrees) + [("assemble", w, m)]
                            + [("number", w, m)] * numbers_columns)
        return out

    def columns(gs, w, tails, codes, rows):
        m = cells.pop(0)
        assert listings[m]() is not None and len(tails) <= len(listings[m]())
        assert [d for d, ref in listings.items() if d > m and ref() is not None] == [], (w, m)
        assert sum(ref() is not None for ref in kept) == 0, (w, m)
        kept.clear()
        events.append(("assemble", w, m))
        return list(map(_Column, real_columns(gs, w, tails, codes, rows)))

    def rank(rows):
        kept.extend(map(weakref.ref, rows))
        return real_rank(rows)

    def spy(iterable, key=None, **kwargs):  # each numbering sorts one degree's codes
        codes = getattr(key, "__self__", iterable)
        if isinstance(codes, _Codes):
            events.append(("number", *codes.degree))
        return sorted(iterable, key=key, **kwargs)

    monkeypatch.setattr(homology, "numbered_bases", bases)
    monkeypatch.setattr(homology, "boundary_columns", columns)
    monkeypatch.setattr(homology, "rank_rows", rank)
    monkeypatch.setattr(homology, "sorted", spy, raising=False)
    # a forked worker's cells are not seen here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    gs = generator_system(catalog_get(name))
    for numbers_columns in (False, True):
        events.clear()
        expected.clear()
        betti_table(gs, w_max, on_cell=(lambda *call: None) if numbers_columns else None)
        assert not cells and events == expected
        assert any(m > 1 for _, _, m in events)


def test_a_negative_w_max_is_refused_before_any_table_is_built():
    gs = generator_system(catalog_get("heis3"))
    with pytest.raises(ValueError, match="w_max must be >= 0, got -1"):
        betti_table(gs, -1)
    assert "ranked" not in vars(gs) and not gs._count_cache


def test_a_worker_that_raised_claims_no_heavier_weight(monkeypatch):
    # every g3d1n weight weighs 2, so the weights are claimed in w order: after the raise at
    # w = 3, the worker skips every later claim, and the table raises that error
    real_row, entered = homology.betti_row, []

    def row(gs, w, on_cell=None):
        entered.append(w)
        if w == 3:
            raise TableInvariantError("a fault at w = 3")
        return real_row(gs, w, on_cell)

    monkeypatch.setattr(homology, "betti_row", row)
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    with pytest.raises(TableInvariantError, match="a fault at w = 3"):
        betti_table(generator_system(catalog_get("g3d1n")), 8)
    assert entered == [0, 1, 2, 3]


def test_the_ranked_system_of_a_ranked_system_is_itself():
    gs = generator_system(catalog_get("gl2"))
    assert gs.ranked is not gs and gs.ranked.ranked is gs.ranked
    assert betti_table(gs.ranked, 6).to_dict() == betti_table(gs, 6).to_dict()


@pytest.mark.parametrize("name, w_max", [("gl2", 6), ("heis3", 10)])
def test_twist_skips_the_columns_the_cell_above_proves_dependent(name, w_max, monkeypatch):
    # d o d = 0: the columns of the cell (w, m) indexed by pivots of the cell (w, m+1)
    # are never assembled, so cols - rank(w, m+1) columns enter elimination
    real_row, real, current = homology.betti_row, homology.rank_rows, []
    entered = {}  # {w: (rows, nonzero rows) of each elimination of that weight's row}

    def row(gs, w, on_cell=None):
        current.append(w)
        return real_row(gs, w, on_cell)

    def counting(rows):
        entered.setdefault(current[-1], []).append((len(rows), sum(1 for row in rows if row)))
        report = real(rows)
        assert report.nonzero_rows == entered[current[-1]][-1][1]
        return report

    monkeypatch.setattr(homology, "betti_row", row)
    monkeypatch.setattr(homology, "rank_rows", counting)
    # a forked worker's eliminations are not counted here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    cells = {}

    def on_cell(w, m, shape, report, forced):
        cells[w, m] = (shape[1], report.rank)

    betti_table(generator_system(catalog_get(name)), w_max, on_cell=on_cell)
    # the rows run heaviest first and their cells are replayed in w order, so each
    # elimination is matched to its cell by (w, m): a row ranks its cells in their order
    assert sorted(current) == list(range(w_max + 1))
    assert current != sorted(current)
    live = {}
    for w, calls in entered.items():
        degrees = [m for v, m in cells if v == w]
        assert len(degrees) == len(calls), w
        live.update(((w, m), call) for m, call in zip(degrees, calls))
    assert live.keys() == cells.keys()
    # each weight from its top degree down
    assert list(cells) == sorted(cells, key=lambda cell: (cell[0], -cell[1]))
    skipped = 0
    for (w, m), (cols, _) in cells.items():
        kept, nonzero = live[w, m]
        above = cells.get((w, m + 1), (0, 0))[1]
        assert nonzero <= kept == cols - above, (w, m)
        skipped += above
    assert skipped > 0


# the three benchmark tables and their summed fill-in
BENCHMARK_TABLES = [("heis3", {}, 25, 0), ("gl2", {}, 6, 1_378),
                    ("g3d3", {"alpha": F(2, 3), "beta": F(5, 7)}, 16, 4_523)]


@pytest.mark.parametrize("name, binds, w_max, fill_in", BENCHMARK_TABLES)
def test_benchmark_tables_fill_in_is_pinned(name, binds, w_max, fill_in):
    # the kernel breaks ties in input order, so fill-in changes with the order of its
    # input rows (kept columns in lex order) even where the tables and ranks do not
    filled = []
    betti_table(generator_system(catalog_get(name, binds)), w_max,
                on_cell=lambda w, m, shape, report, forced: filled.append(report.fill_in))
    assert sum(filled) == fill_in


def _timeless(*call):
    """An ``on_cell`` call with its report as a dict, less the elapsed time."""
    w, m, shape, report, forced = call
    return w, m, shape, {**vars(report), "elapsed": None}, forced


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, binds, w_max, fill_in", BENCHMARK_TABLES)
def test_the_worker_count_changes_no_table_and_no_cell(name, binds, w_max, fill_in, monkeypatch):
    # the weights claimed by 1, 2 or 3 workers, 0, 1 or 2 of them forked: the same JSON, the
    # same on_cell calls in the same order, and every report field but the time equal
    real_fork, seen = os.fork, []
    for workers in (1, 2, 3):
        monkeypatch.setattr(homology, "_workers", lambda n=workers: n)
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        gs = generator_system(catalog_get(name, binds))
        calls = []
        table = betti_table(gs, w_max, on_cell=lambda *call: calls.append(_timeless(*call)))
        assert len(forks) == workers - 1 and [row.w for row in table.rows] == list(range(w_max + 1))
        assert sum(report["fill_in"] for _, _, _, report, _ in calls) == fill_in
        seen.append((table.to_json(), calls))
    assert seen[0] == seen[1] == seen[2]
    _no_child_is_left()


def test_a_live_thread_keeps_every_share_in_this_process(monkeypatch):
    # a child forked while another thread runs can deadlock on a lock that thread held, so
    # the table then runs every weight here: the same JSON and on_cell calls as forked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert homology._workers() == 2
    forked = []
    want = betti_table(generator_system(catalog_get("gl2")), 6,
                       on_cell=lambda *call: forked.append(_timeless(*call)))

    def no_fork():
        raise AssertionError("forked while another thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait, daemon=True)
    helper.start()
    try:
        assert homology._workers() == 1
        calls = []
        got = betti_table(generator_system(catalog_get("gl2")), 6,
                          on_cell=lambda *call: calls.append(_timeless(*call)))
    finally:
        stop.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert (got.to_json(), calls) == (want.to_json(), forked)
    _no_child_is_left()


@pytest.fixture
def child_first(monkeypatch):
    """Stubs ``betti_row`` with a given one whose first call in this process waits until a
    forked worker has begun a row, so that a child claims a weight whoever wins the race.
    Each stub signals through a pipe of its own, which replaces the last one."""
    parent, pipe = os.getpid(), []

    def stub(row):
        for fd in pipe:
            os.close(fd)
        pipe[:] = ready, began = os.pipe()
        waited = []

        def first_in_a_child(gs, w, on_cell=None):
            if os.getpid() != parent:
                os.write(began, b".")
            elif not waited:
                waited.append(os.read(ready, 1))
            return row(gs, w, on_cell)

        monkeypatch.setattr(homology, "betti_row", first_in_a_child)

    yield stub
    for fd in pipe:
        os.close(fd)


def test_a_fault_in_a_forked_share_raises_as_in_one_process(monkeypatch, child_first):
    # one rank off by one at a weight, in any worker or only in a forked one: the same
    # exception after the same on_cell calls, those of every weight up to it, and no child
    # is left
    parent, real_row, real_rank, current = os.getpid(), homology.betti_row, homology.rank_rows, []
    bad, ranked = 6, []  # ranked: a 1 for each cell of the current row ranked so far

    def row(gs, w, on_cell=None):
        current.append(w)
        ranked.clear()
        return real_row(gs, w, on_cell)

    def off_by_one(rows):  # at the second cell of the row, so the first one's call is made
        report = real_rank(rows)
        ranked.append(1)
        return _repeat_last_pivot(report) if current[-1] == bad and len(ranked) == 2 else report

    monkeypatch.setattr(homology, "rank_rows", off_by_one)

    def table(workers):
        monkeypatch.setattr(homology, "_workers", lambda: workers)
        calls = []
        with pytest.raises(TableInvariantError) as exc:
            betti_table(generator_system(catalog_get("heis3")), 10,
                        on_cell=lambda *call: calls.append(_timeless(*call)))
        _no_child_is_left()
        return type(exc.value), str(exc.value), calls

    monkeypatch.setattr(homology, "betti_row", row)
    raised = [table(workers) for workers in (1, 2, 3)]
    assert raised[0] == raised[1] == raised[2]
    assert f"at w={bad}," in raised[1][1]
    assert {w for w, *_ in raised[1][2]} == set(range(bad + 1))

    # a fault in every elimination of a forked worker and none here: the lowest weight a
    # child ranked raises, after the calls one process makes before that fault
    def in_a_child(rows):
        if os.getpid() != parent or current[-1] == bad:
            raise TableInvariantError(f"a rank fault at weight {current[-1]}")
        return real_rank(rows)

    monkeypatch.setattr(homology, "rank_rows", in_a_child)
    for workers in (2, 3):
        bad = None
        child_first(row)
        got = table(workers)
        bad = int(got[1].rsplit(" ", 1)[1])
        monkeypatch.setattr(homology, "betti_row", row)
        assert table(1) == got
        assert {w for w, *_ in got[2]} <= set(range(bad))


def test_a_dead_worker_or_an_interrupt_leaves_no_process(monkeypatch, child_first):
    # a child that exits without a result raises RuntimeError with its status; an
    # interrupt of the parent's own rows kills and reaps the child
    monkeypatch.setattr(homology, "_workers", lambda: 2)
    parent, real_row = os.getpid(), homology.betti_row

    def dying(gs, w, on_cell=None):
        if os.getpid() != parent:
            os._exit(3)
        return real_row(gs, w, on_cell)

    child_first(dying)
    with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
        betti_table(generator_system(catalog_get("heis3")), 10)
    _no_child_is_left()

    def interrupted(gs, w, on_cell=None):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_row(gs, w, on_cell)

    child_first(interrupted)
    with pytest.raises(KeyboardInterrupt):
        betti_table(generator_system(catalog_get("heis3")), 10)
    _no_child_is_left()


def test_rows_that_are_not_each_weight_once_raise(monkeypatch, child_first):
    # a child's row for a weight it did not claim, or a weight claimed twice (the first
    # record written twice to the queue), is a RuntimeError, not a table
    monkeypatch.setattr(homology, "_workers", lambda: 2)
    parent, real_row = os.getpid(), homology.betti_row
    child_first(lambda gs, w, on_cell=None: real_row(gs, w + (os.getpid() != parent), on_cell))
    with pytest.raises(RuntimeError, match=r"rows are not w = 0\.\.10, each once"):
        betti_table(generator_system(catalog_get("heis3")), 10)
    _no_child_is_left()
    monkeypatch.setattr(homology, "betti_row", real_row)
    real_write = os.write
    for workers in (1, 2):
        monkeypatch.setattr(homology, "_workers", lambda n=workers: n)
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data + data[:4]))
        with pytest.raises(RuntimeError, match=r"rows are not w = 0\.\.10, each once"):
            betti_table(generator_system(catalog_get("heis3")), 10)
        monkeypatch.setattr(os, "write", real_write)
        _no_child_is_left()


def test_more_weights_than_records_come_back_once_each(monkeypatch):
    # 3,001 weights in 1,001 records of 3 (one write of 4,004 bytes): every row once, under
    # 1, 2 and 3 workers, within the alarm
    gs = generator_system(catalog_get("heis3"))
    monkeypatch.setattr(homology, "count_up_to", lambda gs, w_max: None)
    monkeypatch.setattr(homology, "torus_pieces",
                        lambda gs, w: {(0,) * len(gs.grading): {0: w % 7}})
    monkeypatch.setattr(homology, "betti_row",
                        lambda gs, w, on_cell=None: homology.BettiRow(w, [], [], [], []))
    real_write, written = os.write, []
    monkeypatch.setattr(os, "write",
                        lambda fd, data: written.append(len(data)) or real_write(fd, data))

    def hung(signum, frame):
        raise TimeoutError("the table hung")

    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(homology, "_workers", lambda n=workers: n)
            signal.alarm(60)
            table = betti_table(gs, 3000)
            signal.alarm(0)
            assert [row.w for row in table.rows] == list(range(3001))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert written == [4004] * 3
    _no_child_is_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the fds in /proc/self/fd")
def test_a_table_closes_every_pipe_it_opens(monkeypatch, child_first):
    # the queue pipe and each child's pipe are closed after a table, a raise, a dead child,
    # and os.fork raising on the second of three workers
    parent, real_row, real_rank = os.getpid(), homology.betti_row, homology.rank_rows
    gs = generator_system(catalog_get("heis3"))

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    child_first(real_row)  # its pipe is open before and after, then replaced by one as many
    before = open_fds()
    monkeypatch.setattr(homology, "_workers", lambda: 3)
    betti_table(gs, 10)
    assert open_fds() == before

    monkeypatch.setattr(homology, "rank_rows", lambda rows: _repeat_last_pivot(real_rank(rows)))
    with pytest.raises(TableInvariantError):
        betti_table(gs, 10)
    monkeypatch.setattr(homology, "rank_rows", real_rank)
    assert open_fds() == before

    def dying(gs, w, on_cell=None):
        if os.getpid() != parent:
            os._exit(3)
        return real_row(gs, w, on_cell)

    child_first(dying)
    with pytest.raises(RuntimeError, match="no result"):
        betti_table(gs, 10)
    monkeypatch.setattr(homology, "betti_row", real_row)
    assert open_fds() == before
    real_fork, forks = os.fork, []

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("fork: no process left")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(BlockingIOError):
        betti_table(gs, 10)
    assert len(forks) == 2 and open_fds() == before
    _no_child_is_left()


def test_a_forked_table_loads_no_module_it_does_not_use():
    # a table's start-up time is mostly imports: none of these is on its path, forked
    # workers included; -S keeps site's .pth files from loading any of them first
    script = (
        "import sys\n"
        "from superhomology import betti_table, catalog_get, generator_system, homology\n"
        "gs = generator_system(catalog_get('gl2'))\n"
        "homology._workers = lambda: 2\n"
        "assert len(betti_table(gs, 5).rows) == 6\n"
        "print(sorted(set(sys.modules) & {'dataclasses', 'inspect', 'json', 'pickle', "
        "'copy', 'typing'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_gap_in_the_support_skips_nothing(monkeypatch):
    # hide a middle degree of heis3 at w = 3 from the support, the counts and the
    # piece: the cell above the gap maps into an empty space, and the cell below
    # the gap keeps every column
    gs = generator_system(catalog_get("heis3"))
    real_support, real_dim, real_pieces = (homology.support_degrees, homology.chain_dim,
                                           homology.torus_pieces)
    hidden = real_support(gs, 3)[2]
    monkeypatch.setattr(homology, "support_degrees",
                        lambda gs, w: [m for m in real_support(gs, w) if m != hidden])
    monkeypatch.setattr(homology, "chain_dim",
                        lambda gs, m, w: 0 if m == hidden else real_dim(gs, m, w))
    monkeypatch.setattr(homology, "torus_pieces", lambda gs, w: {
        key: {m: n for m, n in dims.items() if m != hidden}
        for key, dims in real_pieces(gs, w).items()})
    real_rank = homology.rank_rows
    entered = []
    monkeypatch.setattr(homology, "rank_rows",
                        lambda rows: entered.append(len(rows)) or real_rank(rows))
    reports = {}
    with pytest.raises(TableInvariantError, match="Euler sum"):  # the row lacks a degree
        betti_row(gs, 3, on_cell=lambda w, m, shape, report, forced:
                  reports.__setitem__(m, (shape, report, entered[-1])))
    assert reports[hidden + 2][1].rank > 0
    shape, report, kept = reports[hidden + 1]
    assert shape[0] == 0 and report.rank == 0
    assert kept == shape[1] - reports[hidden + 2][1].rank
    assert reports[hidden - 1][2] == reports[hidden - 1][0][1] > 0


@pytest.mark.parametrize("name, binds, w_max", [
    ("gl2", {}, 6), ("heis3", {}, 25), ("g3d3", {"alpha": "2/3", "beta": "5/7"}, 16),
    ("sl2_efh", {}, 30), ("aff1", {}, 30)])
def test_assembly_passes_the_probe_over_every_column(name, binds, w_max):
    # the table's probe samples; this one reads every column the assembly can give
    gs = generator_system(catalog_get(name, binds))
    assert not [(w, bad) for w in range(w_max + 1) if (bad := dd_probe_every_column(gs, w))]


@pytest.mark.parametrize("name, binds, w_max", [
    ("heis3", {}, 25), ("gl2", {}, 10), ("g3d3", {"alpha": F(2, 3), "beta": F(5, 7)}, 16)])
def test_every_rank_a_table_takes_has_a_mod_p_witness(name, binds, w_max):
    # each kept matrix has as many pivots as its rank mod a prime near 2^61, and a pivot
    # minor nonsingular mod p; the witness covers exactly the cells the table reports
    gs = generator_system(catalog_get(name, binds))
    cells = []
    betti_table(gs, w_max, on_cell=lambda w, m, shape, report, forced:
                cells.append((w, m, report.rank)))
    assert witness_every_cell(gs, w_max) == sorted(cells, key=lambda cell: (cell[0], -cell[1]))


def test_the_mod_p_witness_refuses_a_dropped_or_a_made_up_pivot(monkeypatch):
    # a kernel that drops its last pivot, or adds one at a row it reduced to zero and a
    # column no pivot holds: whatever the table's own checks make of it, the witness raises
    # at the first cell it changes
    gs, real = generator_system(catalog_get("heis3")), homology.rank_rows

    def dropped(rows):
        report = real(rows)
        del report.pivots[-1:]
        return report

    def made_up(rows):
        columns = set().union(*rows)
        report = real(rows)
        spare = set(range(len(rows))) - {r for r, _ in report.pivots}
        free = columns - {c for _, c in report.pivots}
        if spare and free:
            report.pivots.append((min(spare), min(free)))
        return report

    # a dropped pivot leaves a nonsingular minor, so only the rank mod p can refuse it
    for fault, why in ((dropped, "nonsingular: True"), (made_up, "nonsingular: False")):
        monkeypatch.setattr(homology, "rank_rows", fault)
        with pytest.raises(AssertionError, match=why):
            witness_every_cell(gs, 6)
        assert homology.rank_rows is fault  # the witness puts back the kernel it wrapped


# the sign exponent of each case of chain._boundary_terms, as its source writes it
SIGN_CASES = {"A": ["si"], "B": ["start[k]"],
              "C": ["si", "+ start[j]", "- 1", "- start[k]", "+ (i < k)", "+ (j < k)"]}


def _sign_faults():
    """(label, source of _boundary_terms with one sign fault) for every fault tried.

    Each case has every one of its terms negated (its sign exponent plus 1),
    then each summand of its exponent dropped in turn: negating a summand
    keeps its parity, so dropping it is the fault that moves a sign.
    """
    source = inspect.getsource(chain._boundary_terms)
    for case, summands in SIGN_CASES.items():
        line = re.search(rf"s = (.*)  # {case}\b", source)
        assert line and line[1] == " ".join(summands), (case, line)
        variants = [(f"{case} negated", line[1] + " + 1")]
        variants += [(f"{case} without {summands[n]}",
                      " ".join(summands[:n] + summands[n + 1:]).lstrip("+ ") or "0")
                     for n in range(len(summands))]
        for label, exponent in variants:
            yield label, source.replace(line[0], f"s = {exponent}  # {case}")


@pytest.mark.parametrize("name, w_max", [("gl2", 6), ("heis3", 25), ("g3d3", 16)])
def test_systematic_sign_faults_make_the_probe_raise(name, w_max, monkeypatch):
    # a fault the sampled probe lets through must be one no d o d = 0 probe can see:
    # the full-strength probe passes it (to w = 10) and the table is unchanged; g3d3
    # assembles D_w times the boundary, D_w > 1
    binds = {"alpha": F(2, 3), "beta": F(5, 7)} if name == "g3d3" else None
    truth = betti_table(generator_system(catalog_get(name, binds)), w_max).to_dict()
    faults, raised = list(_sign_faults()), set()
    for label, source in faults:
        namespace = dict(vars(chain))
        exec(source, namespace)
        monkeypatch.setattr(chain, "_boundary_terms", namespace["_boundary_terms"])
        gs = generator_system(catalog_get(name, binds))
        try:
            table = betti_table(gs, w_max)
        except TableInvariantError as exc:
            assert "dd = 0 probe" in str(exc), (label, exc)
            raised.add(label)
        else:
            assert table.to_dict() == truth, label
            assert not any(dd_probe_every_column(gs, w) for w in range(min(w_max, 10) + 1)), label
    # every fault that drops a summand of case A or B moves a sign that d o d = 0 sees
    assert {"A without si", "B without start[k]"} <= raised
    if name == "gl2":
        assert len(raised) == len(faults) - 1  # all but "B negated"
    if name == "g3d3":
        assert len(raised) == len(faults) - 2  # all but "B negated" and "C without si"


@pytest.mark.parametrize("name, binds, w_max", [
    ("heis3", {}, 12), ("g3d1n", {}, 12), ("g3d2", {"alpha": "-1"}, 12), ("aff1", {}, 12),
    ("sl2_efh", {}, 8), ("g3d3", {"alpha": "2/3", "beta": "-5/7"}, 8)])
def test_betti_table_is_invariant_under_a_change_of_basis(name, binds, w_max):
    # the same algebra in a random rational basis: its brackets have denominators
    # (D_w > 1) and mostly no torus grading, yet dims, kernels and Betti numbers agree
    sc = catalog_get(name, binds)
    want = [r.to_dict() for r in betti_table(generator_system(sc), w_max).rows]
    for seed in (1, 2):
        conjugated = change_basis(sc, random_invertible(sc.dim, random.Random(f"{name},{seed}")))
        assert conjugated != sc
        got = [r.to_dict() for r in betti_table(generator_system(conjugated), w_max).rows]
        assert got == want, (name, seed)
