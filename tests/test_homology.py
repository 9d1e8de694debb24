import copy
import importlib.util
import inspect
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction as F
from math import comb

import pytest

from superhomology import (BettiTable, TableInvariantError, betti_row,
                           betti_table, catalog_get, generator_system, homology,
                           verify_table)
from superhomology import chain

from conftest import EXPECTED_DIR, REPO_ROOT
from oracles import change_basis, dd_probe_every_column, euler_check, random_invertible


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


def test_betti_invariant_under_random_alias_bases():
    import random

    from superhomology import GeneratorSystem, Multivector, wedge_basis

    rng = random.Random(424242)

    def random_invertible_basis(sc, level):
        elements = wedge_basis(sc, level)
        size = len(elements)
        perm = list(range(size))
        rng.shuffle(perm)
        basis = []
        for i in range(size):
            # unit triangular in a shuffled order: always invertible
            coeffs = {elements[perm[i]]: F(rng.choice([1, -1, 2, F(1, 2), F(-2, 3)]))}
            for j in range(i):
                if rng.random() < 0.5:
                    coeffs[elements[perm[j]]] = F(rng.randint(-2, 2), rng.randint(1, 2))
            basis.append((f"b{i + 1}", Multivector(level, coeffs)))
        return basis

    for name, binds in [("heis3", {}), ("sl2_efh", {})]:
        sc = catalog_get(name, binds)
        reference = betti_table(generator_system(sc), 4)
        for level in (1, 2, 3):
            gs = GeneratorSystem(sc, {level: random_invertible_basis(sc, level)})
            table = betti_table(gs, 4)
            assert [r.to_dict() for r in table.rows] == \
                [r.to_dict() for r in reference.rows], (name, level)


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


def test_wrong_rank_raises_instead_of_returning_row(monkeypatch):
    real = homology.rank_rows

    def off_by_one(rows):
        report = real(rows)
        report.rank += 1
        return report

    monkeypatch.setattr(homology, "rank_rows", off_by_one)
    with pytest.raises(TableInvariantError):
        betti_table(generator_system(catalog_get("heis3")), 3)


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
        radix, bases = real(gs, w, degrees)
        bases = {m: ([_Listed(mono) for mono in monos], codes)
                 for m, (monos, codes) in bases.items()}
        listed.append(sum(len(monos) for monos, _ in bases.values()))
        return radix, bases

    monkeypatch.setattr(homology, "numbered_bases", marked)
    real_build = chain._suffix_tables
    built = []

    def counted(grades, coords, w):
        built.append((coords, w))
        return real_build(grades, coords, w)

    monkeypatch.setattr(chain, "_suffix_tables", counted)
    # a forked worker's listings are not seen here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    gs = generator_system(catalog_get(name))
    betti_table(gs, w_max)
    assert sum(listed) > 0
    assert _held_monomials(vars(gs)) == 0
    # what stays is one suffix-count table per torus coordinate set, built once at w_max
    assert set(gs._count_cache) <= {(), gs.torus}
    assert sorted(built) == sorted((coords, w_max) for coords in {(), gs.torus})
    for bound, tables, *_ in gs._count_cache.values():
        assert bound == w_max
        assert all(type(n) is int for table in tables for n in table.values())


@pytest.mark.parametrize("name, w_max", [("gl2", 6), ("heis3", 10)])
def test_twist_skips_the_columns_the_cell_above_proves_dependent(name, w_max, monkeypatch):
    # d o d = 0: the columns of the cell (w, m) indexed by pivots of the cell (w, m+1)
    # are never assembled, so cols - rank(w, m+1) columns enter elimination
    real = homology.rank_rows
    entered = []

    def counting(rows):
        entered.append((len(rows), sum(1 for row in rows if row)))
        report = real(rows)
        assert report.nonzero_rows == entered[-1][1]
        return report

    monkeypatch.setattr(homology, "rank_rows", counting)
    # a forked worker's eliminations are not counted here, so every weight runs in this process
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    cells = {}

    def on_cell(w, m, shape, report, forced):
        cells[w, m] = (shape[1], report.rank)

    betti_table(generator_system(catalog_get(name)), w_max, on_cell=on_cell)
    assert len(entered) == len(cells)
    # each weight from its top degree down
    assert list(cells) == sorted(cells, key=lambda cell: (cell[0], -cell[1]))
    skipped = 0
    for ((w, m), (cols, _)), (kept, nonzero) in zip(cells.items(), entered):
        above = cells.get((w, m + 1), (0, 0))[1]
        assert nonzero <= kept == cols - above, (w, m)
        skipped += above
    assert skipped > 0


# the three benchmark tables and their summed fill-in
BENCHMARK_TABLES = [("heis3", {}, 25, 0), ("gl2", {}, 6, 21_202),
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
    return w, m, shape, {**asdict(report), "elapsed": None}, forced


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, binds, w_max, fill_in", BENCHMARK_TABLES)
def test_the_worker_count_changes_no_table_and_no_cell(name, binds, w_max, fill_in, monkeypatch):
    # the weights split over 1, 2 or 3 forked workers: the same JSON, the same on_cell
    # calls in the same order, and every report field but the time equal
    seen = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(homology, "_workers", lambda n=workers: n)
        gs = generator_system(catalog_get(name, binds))
        shares = homology._shares(gs, w_max)
        assert len(shares) == workers and sorted(sum(shares, [])) == list(range(w_max + 1))
        calls = []
        table = betti_table(gs, w_max, on_cell=lambda *call: calls.append(_timeless(*call)))
        assert sum(report["fill_in"] for _, _, _, report, _ in calls) == fill_in
        seen.append((table.to_json(), calls))
    assert seen[0] == seen[1] == seen[2]
    _no_child_is_left()


def test_a_fault_in_a_forked_share_raises_as_in_one_process(monkeypatch):
    # one rank off by one at a weight of the child's share: the same exception after the
    # same on_cell calls, those of every weight up to it, and no child is left
    monkeypatch.setattr(homology, "_workers", lambda: 2)
    bad = homology._shares(generator_system(catalog_get("heis3")), 10)[1][1]
    real_row, real_rank, current = homology.betti_row, homology.rank_rows, []

    def row(gs, w, on_cell=None):
        current.append(w)
        return real_row(gs, w, on_cell)

    def off_by_one(rows):
        report = real_rank(rows)
        report.rank += current[-1] == bad
        return report

    monkeypatch.setattr(homology, "betti_row", row)
    monkeypatch.setattr(homology, "rank_rows", off_by_one)
    raised = []
    for workers in (1, 2):
        monkeypatch.setattr(homology, "_workers", lambda n=workers: n)
        calls = []
        with pytest.raises(TableInvariantError) as exc:
            betti_table(generator_system(catalog_get("heis3")), 10,
                        on_cell=lambda *call: calls.append(_timeless(*call)))
        raised.append((type(exc.value), str(exc.value), calls))
    assert raised[0] == raised[1]
    assert f"at weight {bad}:" in raised[1][1]
    assert {w for w, *_ in raised[1][2]} == set(range(bad + 1))
    _no_child_is_left()


def test_a_dead_worker_or_an_interrupt_leaves_no_process(monkeypatch):
    # a child that exits without a result raises RuntimeError with its status; an
    # interrupt of the parent's own share kills and reaps the child
    monkeypatch.setattr(homology, "_workers", lambda: 2)
    parent, real_row = os.getpid(), homology.betti_row
    last_here = homology._shares(generator_system(catalog_get("heis3")), 10)[0][-1]

    def dying(gs, w, on_cell=None):
        if os.getpid() != parent:
            os._exit(3)
        return real_row(gs, w, on_cell)

    monkeypatch.setattr(homology, "betti_row", dying)
    with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
        betti_table(generator_system(catalog_get("heis3")), 10)
    _no_child_is_left()

    def interrupted(gs, w, on_cell=None):
        if os.getpid() == parent and w == last_here:
            raise KeyboardInterrupt
        return real_row(gs, w, on_cell)

    monkeypatch.setattr(homology, "betti_row", interrupted)
    with pytest.raises(KeyboardInterrupt):
        betti_table(generator_system(catalog_get("heis3")), 10)
    _no_child_is_left()


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
