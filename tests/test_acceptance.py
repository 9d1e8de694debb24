"""Acceptance suite: every published table at its stated range and tolerance.

All comparisons are exact (integer equality); run with ``pytest -v -s
tests/test_acceptance.py`` to see one pass/fail line per criterion.
"""

import json
import os
import random
import time
from fractions import Fraction as F
from math import comb

import pytest

from superhomology import (Multivector, betti_row, betti_table, boundary_matrix,
                           catalog_get, catalog_names, chain_basis, chain_dim,
                           generator_system, schouten, support_degrees,
                           verify_table)

import test_exterior
from conftest import EXPECTED_DIR
from oracles import (Chain, boundary_monomial, euler_check, matmul, mv_add, mv_is_zero,
                     mv_scaled, mv_wedge, naive_rank, rank)


def report(criterion, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"


THREE_DIM = [("abelian3", {}), ("heis3", {}), ("g3d1n", {}),
             ("g3d2", {"alpha": "3"}), ("g3d3", {"alpha": "2", "beta": "3"}),
             ("sl2_efh", {})]


def window_cells(row, w):
    """(dims, kernels, betti) over degrees w-1 .. w+3, empty cells as zeros."""
    cells = [row.cell(m) for m in range(w - 1, w + 4)]
    return ([c[0] for c in cells], [c[1] for c in cells], [c[2] for c in cells])


def test_criterion_1_generic_3dim_dimension_table():
    start = time.perf_counter()
    worst = 0.0
    for name, binds in THREE_DIM:
        t0 = time.perf_counter()
        gs = generator_system(catalog_get(name, binds))
        for w in range(2, 21):
            lo, hi = comb(w, 2), comb(w + 2, 2)
            dims = [chain_dim(gs, m, w) for m in range(w - 1, w + 4)]
            assert dims == [lo, 3 * lo + hi, 3 * lo + 3 * hi, lo + 3 * hi, hi], (name, w)
            others = [m for m in range(0, w + 4) if not (w - 1 <= m <= w + 3)]
            assert all(chain_dim(gs, m, w) == 0 for m in others), (name, w)
        worst = max(worst, time.perf_counter() - t0)
    report(1, worst < 1.0, time.perf_counter() - start,
           f"3-dim chain dimensions for 6 algebras, w=2..20 (slowest {worst:.3f}s < 1s)")


def test_criterion_2_central_case_table():
    start = time.perf_counter()
    gs = generator_system(catalog_get("heis3"))
    for w in range(1, 16):
        lo, hi = comb(w, 2), comb(w + 2, 2)
        _, kernels, betti = window_cells(betti_row(gs, w), w)
        assert betti == [0, w, 3 * w + 1, 3 * w + 2, w + 1], w
        assert kernels == [lo, 2 * lo + hi, lo + 2 * hi + w, -lo + 2 * hi, w + 1], w
    elapsed = time.perf_counter() - start
    report(2, elapsed < 60.0, elapsed,
           "heis3 Betti and kernel columns exact for w=1..15")


def test_criterion_3_noncentral_case_table():
    start = time.perf_counter()
    gs = generator_system(catalog_get("g3d1n"))
    for w in range(1, 16):
        _, _, betti = window_cells(betti_row(gs, w), w)
        assert betti == [0, 1, 2, 1, 0], w
    report(3, True, time.perf_counter() - start, "g3d1n Betti (0,1,2,1,0) for w=1..15")


@pytest.mark.parametrize("alpha,kappa", [("-1", 1), ("1", 0), ("2", 0), ("-1/2", 0)])
def test_criterion_4_derived2_family(alpha, kappa):
    start = time.perf_counter()
    gs = generator_system(catalog_get("g3d2", {"alpha": alpha}))
    zero_row = betti_row(gs, 0)
    assert zero_row.betti == [1, 1, kappa, kappa]
    for w in range(1, 16):
        _, _, betti = window_cells(betti_row(gs, w), w)
        assert betti == [0, 0, kappa, 2 * kappa, kappa], (alpha, w)
    report(4, True, time.perf_counter() - start,
           f"g3d2 alpha={alpha}: kappa={kappa} rows for w=0..15")


@pytest.mark.parametrize("name,binds", [
    ("g3d3", {"alpha": "1", "beta": "1"}),
    ("g3d3", {"alpha": "-1", "beta": "1"}),
    ("sl2_efh", {}),
])
def test_criterion_5_derived3_all_zero(name, binds):
    start = time.perf_counter()
    gs = generator_system(catalog_get(name, binds))
    for w in range(1, 16):
        row = betti_row(gs, w)
        assert row.betti == [0] * len(row.betti), (name, w)
    label = ",".join(f"{k}={v}" for k, v in binds.items()) or "e,f,h basis"
    report(5, True, time.perf_counter() - start,
           f"{name} ({label}): all Betti zero for w=1..15")


def test_criterion_6_gl2_experiment_table():
    start = time.perf_counter()
    gs = generator_system(catalog_get("gl2"))
    table = betti_table(gs, 5)
    with open(os.path.join(EXPECTED_DIR, "gl2.json"), encoding="utf-8") as fh:
        diff = verify_table(table, json.load(fh))
    elapsed = time.perf_counter() - start
    report(6, diff.ok and elapsed < 600.0, elapsed,
           f"gl(2) Betti table w=0..5 cell-for-cell ({diff.cells_checked} cells)")


def test_criterion_7_dim2_table():
    start = time.perf_counter()
    gs = generator_system(catalog_get("aff1"))
    row0 = betti_row(gs, 0)
    assert row0.betti == [1, 1, 0]
    for w in range(1, 31):
        row = betti_row(gs, w)
        assert row.degrees == [w, w + 1, w + 2]
        assert row.dims == [1, 2, 1]
        assert row.kernels == [1, 1, 0]
        assert row.betti == [0, 0, 0]
    report(7, True, time.perf_counter() - start,
           "aff1: w=0 Betti (1,1,0); (1,2,1)/(1,1,0)/(0,0,0) for w=1..30")


# ---------------------------------------------------------------------------
# Criterion 8: the invariant-based property suite.
# ---------------------------------------------------------------------------

def _catalog_with_defaults():
    for name in catalog_names():
        binds = {}
        if name == "g3d2":
            binds = {"alpha": "3"}
        elif name == "g3d3":
            binds = {"alpha": "2", "beta": "3"}
        yield name, binds


def _check_dd_zero_full(gs, w):
    degrees = support_degrees(gs, w)
    for m in degrees:
        if m - 1 in degrees and m + 1 in degrees:
            a = boundary_matrix(gs, m, w)
            b = boundary_matrix(gs, m + 1, w)
            assert matmul(a, b).is_zero(), (gs.sc.name, m, w)


def _check_dd_zero_sampled(gs, w, rng, samples):
    degrees = support_degrees(gs, w)
    bases = {}  # each degree is listed once, however often it is drawn
    picked = 0
    while picked < samples:
        m = rng.choice(degrees)
        if m not in bases:
            bases[m] = chain_basis(gs, m, w)
        basis = bases[m]
        if not basis:
            continue
        mono = basis[rng.randrange(len(basis))]
        image = boundary_monomial(gs, mono)
        total = Chain()
        for target, coeff in image.terms.items():
            total = total + boundary_monomial(gs, target).scaled(coeff)
        assert total.is_zero(), (gs.sc.name, m, w, mono)
        picked += 1


def test_criterion_8_boundary_squared_zero_catalog():
    start = time.perf_counter()
    rng = random.Random(88001)
    full = sampled = structural = 0
    for name, binds in _catalog_with_defaults():
        sc = catalog_get(name, binds)
        gs = generator_system(sc)
        if not sc.entries:
            # abelian: every generator bracket vanishes, so the boundary is
            # identically zero and so is its square; verify the premise.
            for gi in range(gs.count):
                for gj in range(gs.count):
                    assert gs.pair_bracket(gi, gj) == ()
            structural += 1
            continue
        for w in range(0, 13):
            # full check while the complex stays desk-sized, seeded samples
            # beyond (gl2 weights above 6 have 10^5..10^6 monomials)
            if sum(chain_dim(gs, m, w) for m in range(0, w + gs.dim + 1)) <= 20000:
                _check_dd_zero_full(gs, w)
                full += 1
            else:
                _check_dd_zero_sampled(gs, w, rng, samples=250)
                sampled += 1
    report("8 (d∘d=0)", True, time.perf_counter() - start,
           f"catalog x w<=12: {full} weights exact, {sampled} sampled (250 monomials each), "
           f"{structural} abelian algebras proven structurally")


def test_criterion_8_euler_zero_everywhere():
    start = time.perf_counter()
    checked = 0
    for name, binds in _catalog_with_defaults():
        gs = generator_system(catalog_get(name, binds))
        for w in range(0, 21):
            assert euler_check(gs, w) == 0, (name, w)
            checked += 1
    for name, binds in THREE_DIM:
        gs = generator_system(catalog_get(name, binds))
        for w in range(0, 13):
            row = betti_row(gs, w)
            assert row.euler() == 0
            assert sum((-1) ** m * b for m, b in zip(row.degrees, row.betti)) == 0
    report("8 (Euler)", True, time.perf_counter() - start,
           f"alternating dimension sums vanish ({checked} weights, all catalog algebras)")


def _random_decomposable(sc, level, rng):
    letters = rng.sample(range(1, sc.dim + 1), level)
    out = Multivector.basis(letters[:1])
    for letter in letters[1:]:
        out = mv_wedge(out, Multivector.basis((letter,)))
    return mv_scaled(out, F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1]))


def test_criterion_8_bracket_identities_1000_triples():
    start = time.perf_counter()
    rng = random.Random(314159)
    triples = 0
    while triples < 1000:
        name, binds = rng.choice(THREE_DIM + [("gl2", {}), ("aff1", {})])
        sc = catalog_get(name, binds)
        n = sc.dim
        p = rng.randint(1, n)
        q = rng.randint(1, n)
        r = rng.randint(1, max(1, n - q))
        a = _random_decomposable(sc, p, rng)
        b = _random_decomposable(sc, q, rng)
        c = _random_decomposable(sc, r, rng)
        sign = -((-1) ** ((p - 1) * (q - 1)))
        assert schouten(sc, b, a) == mv_scaled(schouten(sc, a, b), sign)
        lhs = schouten(sc, a, mv_wedge(b, c))
        rhs = mv_add(mv_wedge(schouten(sc, a, b), c),
                     mv_scaled(mv_wedge(b, schouten(sc, a, c)), (-1) ** ((p - 1) * q)))
        assert lhs == rhs
        jac = mv_add(mv_scaled(schouten(sc, schouten(sc, a, b), c), (-1) ** ((p - 1) * (r - 1))),
                     mv_scaled(schouten(sc, schouten(sc, b, c), a), (-1) ** ((q - 1) * (p - 1))),
                     mv_scaled(schouten(sc, schouten(sc, c, a), b), (-1) ** ((r - 1) * (q - 1))))
        assert mv_is_zero(jac)
        triples += 1
    report("8 (bracket ids)", True, time.perf_counter() - start,
           "antisymmetry + Leibniz + Jacobi on 1000 random decomposable triples")


def test_criterion_8_rank_oracle_200_matrices():
    start = time.perf_counter()
    rng = random.Random(271828)
    from superhomology.ranklin import RationalMatrix
    for trial in range(200):
        rows = rng.randint(1, 40)
        cols = rng.randint(1, 40)
        matrix = RationalMatrix(rows, cols)
        density = rng.uniform(0.05, 0.5)
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    matrix.set(i, j, F(rng.randint(-9, 9), rng.randint(1, 5)))
        assert rank(matrix) == naive_rank(matrix), trial
    report("8 (rank oracle)", True, time.perf_counter() - start,
           "elimination rank = naive rational elimination on 200 matrices <= 40x40")


def test_criterion_8_bracket_tables_match_paper():
    start = time.perf_counter()
    test_exterior.test_bracket_table_sl2()
    test_exterior.test_bracket_table_heis3()
    test_exterior.test_bracket_table_g3d1n()
    for alpha in (F(-1), F(2), F(1, 2)):
        test_exterior.test_bracket_table_g3d2(alpha)
    for alpha, beta in [(F(1), F(1)), (F(-1), F(1)), (F(2), F(3))]:
        test_exterior.test_bracket_table_g3d3(alpha, beta)
    report("8 (tables)", True, time.perf_counter() - start,
           "multiplication tables match the printed ones for all five cases")


def test_criterion_8_basis_independence():
    start = time.perf_counter()
    for name, binds in [("heis3", {}), ("g3d1n", {}), ("g3d2", {"alpha": "-1"}),
                        ("g3d2", {"alpha": "2"}), ("g3d3", {"alpha": "2", "beta": "3"}),
                        ("sl2_efh", {})]:
        sc = catalog_get(name, binds)
        canonical = betti_table(generator_system(sc, "canonical"), 6)
        alias = betti_table(generator_system(sc, "paper"), 6)
        assert [r.to_dict() for r in canonical.rows] == [r.to_dict() for r in alias.rows]
    report("8 (basis indep)", True, time.perf_counter() - start,
           "Betti tables identical in canonical and printed-table bases (w<=6)")


def test_shipped_expected_files_all_verify():
    # end-to-end: the shipped transcriptions of every published table
    start = time.perf_counter()
    cases = [
        ("g3d1_central.json", "heis3", {}, 15),
        ("g3d1_noncentral.json", "g3d1n", {}, 15),
        ("g3d2_kappa1.json", "g3d2", {"alpha": "-1"}, 15),
        ("g3d2_kappa0.json", "g3d2", {"alpha": "2"}, 15),
        ("a1.json", "sl2_efh", {}, 15),
        ("a1.json", "g3d3", {"alpha": "1", "beta": "1"}, 15),
        ("aff1.json", "aff1", {}, 30),
        ("gl2.json", "gl2", {}, 5),
    ]
    cells = 0
    for fname, algebra, binds, wmax in cases:
        gs = generator_system(catalog_get(algebra, binds))
        table = betti_table(gs, wmax)
        with open(os.path.join(EXPECTED_DIR, fname), encoding="utf-8") as fh:
            diff = verify_table(table, json.load(fh))
        assert diff.ok, (fname, algebra, diff.render())
        cells += diff.cells_checked
    report("tables end-to-end", True, time.perf_counter() - start,
           f"all shipped expected files verify ({cells} cells)")
