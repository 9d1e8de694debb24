"""The mirror: a signed swap of two letters that negates a diagonal derivation d carries
the d-weight-t piece of the complex onto the weight -t piece, so the table ranks only
mirror weight >= 0 and counts the positive half twice (heis3 in the catalog)."""

import importlib.util
import io
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from operator import mul

import pytest

from superhomology import (AlgebraError, BettiTable, betti_table, catalog_get, catalog_names,
                           chain, chain_basis, chain_dim, cli, exterior, generator_system,
                           homology)
from superhomology.chain import numbered_bases, support_degrees, support_dims

from conftest import REPO_ROOT
from oracles import (change_basis, code_monomial, mirror_by_enumeration, random_invertible,
                     semidirect_product)

HEIS3 = {"canonical": (1, -1, 0, 0, 0, 1, -1), "paper": (1, -1, 0, 0, -1, 1, 0)}
BINDS = {"g3d2": [{"alpha": a} for a in (F(-1), F(1), F(2), F(1, 2))],
         "g3d3": [{"alpha": F(2, 3), "beta": F(5, 7)}, {"alpha": F(2, 3), "beta": F(-5, 7)}]}


def systems():
    """(label, given system, its mirror) for every catalog system in both bases, and
    conjugated gl2 and heis3."""
    for name in catalog_names():
        for binds in BINDS.get(name, [None]):
            for basis in ("canonical", "paper"):
                try:
                    gs = generator_system(catalog_get(name, binds), basis)
                except AlgebraError:  # no printed basis
                    continue
                yield f"{name} {binds} {basis}", gs, HEIS3[basis] if name == "heis3" else ()
    for name, n in (("gl2", 4), ("heis3", 3)):
        sc = change_basis(catalog_get(name), random_invertible(n, random.Random(f"{name},1")))
        yield f"{name} conjugated", generator_system(sc), ()


def test_only_heis3_has_a_mirror():
    # sought only where the ranked system has no torus and no split letter: g3d2 at
    # alpha = +-1 has a signed swap too, but its torus comes first
    seen = []
    for label, gs, want in systems():
        assert gs.mirror == gs.ranked.mirror == want, label
        seen.append(label)
        # the search alone agrees with trying every sign vector of every swap
        assert exterior._mirror_weights(gs) == mirror_by_enumeration(gs), label
    assert len(seen) == 29
    g3d2 = generator_system(catalog_get("g3d2", {"alpha": F(-1)}))
    assert g3d2.torus and exterior._mirror_weights(g3d2) == (1, -1, 0, 0, 0, 1, -1)


def test_the_search_solves_the_signs_and_agrees_with_enumeration():
    # on x + R^3 with ad x = diag(1, -1, 1), swapping e1 and e2 keeps every magnitude,
    # but [x, e1] = e1 asks s_x = -1 and [x, e3] = e3 asks s_x = 1: the first pair whose
    # signs solve is e1 and e3
    gs = generator_system(semidirect_product([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert exterior._mirror_weights(gs)[:4] == mirror_by_enumeration(gs)[:4] == (0, 1, 0, -1)
    rng = random.Random("mirror")
    found = 0
    for _ in range(300):
        n = rng.choice([2, 3])
        gs = generator_system(semidirect_product(
            [[rng.choice([-1, 0, 0, 1]) for _ in range(n)] for _ in range(n)]))
        assert exterior._mirror_weights(gs) == mirror_by_enumeration(gs)
        found += bool(exterior._mirror_weights(gs))
    assert 0 < found < 300


def test_the_mirror_is_sought_at_table_time():
    for name, binds in (("heis3", None), ("gl2", None), ("g3d3", BINDS["g3d3"][0])):
        gs = generator_system(catalog_get(name, binds))
        assert "mirror" not in vars(gs)
        betti_table(gs, 2)
        assert "mirror" in vars(gs.ranked) and bool(gs.ranked.mirror) == (name == "heis3")


@pytest.mark.parametrize("basis", ["canonical", "paper"])
def test_the_halves_are_the_listing_filtered_by_mirror_weight(basis):
    # lex order and codes kept; the weight-0 codes and the number left out come back
    gs = generator_system(catalog_get("heis3"), basis)
    for w in range(13):
        degrees = support_degrees(gs, w)
        whole, halves = numbered_bases(gs, w, degrees), {}
        half = numbered_bases(gs, w, degrees, None, (), halves)
        assert set(halves) == set(half) == set(degrees)
        for m in degrees:
            weights = [sum(map(mul, gs.mirror, code_monomial(gs, w, code)))
                       for code in whole[m][1]]
            assert half[m] == tuple([x for x, t in zip(part, weights) if t >= 0]
                                    for part in whole[m]), (w, m)
            zero, below = halves[m]
            assert zero == {c for c, t in zip(whole[m][1], weights) if t == 0}, (w, m)
            assert below == sum(t < 0 for t in weights) == len(half[m][1]) - len(zero)


def _closed_form():
    spec = importlib.util.spec_from_file_location(
        "gen_expected", os.path.join(REPO_ROOT, "tools", "gen_expected.py"))
    gen_expected = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_expected)
    return gen_expected.central_rows


@pytest.mark.parametrize("basis", ["canonical", "paper"])
def test_the_mirror_route_equals_the_whole_route(basis, monkeypatch):
    # byte for byte to w = 30, with the search patched out (the whole cell ranked), and the
    # closed form to w = 40
    gs = generator_system(catalog_get("heis3"), basis)
    new = betti_table(gs, 40)
    assert gs.mirror == HEIS3[basis]
    assert [row.to_dict() for row in new.rows[1:]] == _closed_form()(40)
    monkeypatch.setattr(exterior, "_mirror_weights", lambda gs: ())
    given = generator_system(catalog_get("heis3"), basis)
    assert betti_table(given, 30).to_json() == BettiTable(new.algebra, new.params,
                                                          new.rows[:31]).to_json()
    assert given.mirror == ()


def test_the_half_is_ranked_one_cell_per_degree():
    # heis3 at w = 25: each support degree is one cell, of the monomials of mirror weight
    # >= 0, which is more than half of the cell and less than all of it
    gs = generator_system(catalog_get("heis3"))
    cells = []
    homology.betti_row(gs, 25, lambda w, m, shape, report, *_: cells.append((m, shape)))
    degrees = support_degrees(gs, 25)
    assert [m for m, _ in cells] == [m for m in reversed(degrees) if m >= 1]
    for m, (rows, cols) in cells:
        half = sum(sum(map(mul, gs.mirror, mono)) >= 0 for mono in chain_basis(gs, m, 25))
        assert cols == half and chain_dim(gs, m, 25) < 2 * cols
    assert sum(cols for _, (_, cols) in cells) < 0.53 * sum(
        chain_dim(gs, m, 25) for m, _ in cells)


MIRROR_FAULTS = """
from superhomology import (TableInvariantError, betti_table, catalog_get, exterior,
                           generator_system, homology)
from oracles import witness_every_cell
real_bases, real_columns, real_rank = (homology.numbered_bases, homology.boundary_columns,
                                       homology.rank_rows)
real_weights = exterior._mirror_weights
zero, assembled = set(), []

def bases(gs, w, degrees, *args):  # notes the weight-0 codes of the weight's half
    out = real_bases(gs, w, degrees, *args)
    zero.clear()
    for codes, _ in args[2].values():
        zero.update(codes)
    return out

def columns(gs, w, tails, codes, rows):  # the kept columns come first, in the kernel's order
    assembled[:] = codes
    return real_columns(gs, w, tails, codes, rows)

def dropped(rows):  # the last pivot on an input row of weight > 0 goes
    report = real_rank(rows)
    above = [p for p in report.pivots if assembled[p[0]] not in zero]
    if above:
        report.pivots.remove(above[-1])
    return report

def made_up(weight_0):  # one pivot more, at a row reduced to zero and a free column
    def rank(rows):
        report = real_rank(rows)
        spare = {k for k in range(len(rows)) if (assembled[k] in zero) == weight_0}
        spare -= {k for k, _ in report.pivots}
        free = set().union(*rows) - {c for _, c in report.pivots}
        if spare and free:
            report.pivots.append((min(spare), min(free)))
        return report
    return rank

def flipped(x):  # one letter weight with its sign flipped
    def weights(gs):
        out = list(real_weights(gs))
        out[x] = -out[x]
        return tuple(out)
    return weights

homology.numbered_bases, homology.boundary_columns = bases, columns
for basis in ("canonical", "paper"):
    for fault in (dropped, made_up(False), made_up(True)):
        homology.rank_rows = fault
        try:
            betti_table(generator_system(catalog_get("heis3"), basis), 8)
            witness_every_cell(generator_system(catalog_get("heis3"), basis), 8)
        except (TableInvariantError, AssertionError) as exc:
            print(f"{type(exc).__name__}: {exc}")
        else:
            print("accepted")
        homology.rank_rows = real_rank
    for x, weight in enumerate(real_weights(generator_system(catalog_get("heis3"), basis))):
        if weight:
            exterior._mirror_weights = flipped(x)
            try:
                betti_table(generator_system(catalog_get("heis3"), basis), 8)
            except TableInvariantError as exc:
                print(f"{type(exc).__name__}: {exc}")
            else:
                print("accepted")
            exterior._mirror_weights = real_weights
homology.numbered_bases, homology.boundary_columns = real_bases, real_columns
"""


def _check_fault_lines(out):
    lines = out.splitlines()
    assert len(lines) == 14, out  # per basis: three kernel faults, four letter weights
    for basis, made_up_at_0 in ((lines[:7], "TableInvariantError: negative Betti number of a "
                                 "mirror half at weight 2"), (lines[7:], "AssertionError")):
        assert basis[0].startswith("AssertionError") and "nonsingular: True" in basis[0], out
        assert basis[1].startswith("AssertionError") and "nonsingular: False" in basis[1], out
        assert basis[2].startswith(made_up_at_0), out
        assert all(line.startswith("TableInvariantError: mirror halves") for line in basis[3:])


def test_a_wrong_pivot_or_letter_weight_in_the_half_is_refused(monkeypatch, capsys):
    # a kernel that drops or adds one pivot on a row of weight > 0 in every cell passes the
    # table's checks on heis3 to w = 8 (B_+ is large there) and fails the mod-p witness; one
    # made up on a row of weight 0 takes B_0 below zero in the canonical basis; a letter
    # weight with its sign flipped breaks #C_+ = #C_- at once.  In process and under -O
    for name in ("numbered_bases", "boundary_columns", "rank_rows"):  # restored after
        monkeypatch.setattr(homology, name, getattr(homology, name))
    monkeypatch.setattr(exterior, "_mirror_weights", exterior._mirror_weights)
    exec(compile(MIRROR_FAULTS, "mirror_faults", "exec"), {})
    _check_fault_lines(capsys.readouterr().out)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")]))
    done = subprocess.run([sys.executable, "-O", "-c", MIRROR_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _check_fault_lines(done.stdout)


def test_support_dims_are_the_nonzero_chain_dims():
    for name in catalog_names():
        gs = generator_system(catalog_get(name, BINDS.get(name, [None])[0]))
        for system in (gs, gs.ranked):
            for w in range(-1, 6):
                dims = support_dims(system, w)
                assert list(dims) == sorted(dims) == support_degrees(system, w)
                assert dims == {m: n for m in range(w + gs.dim + 2)
                                if (n := chain_dim(system, m, w))}, (name, w)


def test_each_weight_counts_its_support_once(monkeypatch):
    # a table reads {m: dim} off the count view once per weight in the CLI's size check
    # and once in betti_row, and calls chain_dim nowhere
    calls = []
    real = chain.support_dims
    monkeypatch.setattr(homology, "_workers", lambda: 1)
    for module in (homology, cli):
        monkeypatch.setattr(module, "support_dims",
                            lambda gs, w, name=module.__name__: calls.append((name, w))
                            or real(gs, w))
    for module in (chain, cli):
        monkeypatch.setattr(module, "chain_dim", lambda *args: calls.append("chain_dim"))
    assert cli.run_cli(["table", "--algebra", "gl2", "--wmax", "6"], out=io.StringIO()) == 0
    assert sorted(calls) == sorted((module.__name__, w) for module in (cli, homology)
                                   for w in range(7))
