import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhomology import (AlgebraError, GeneratorSystem, Multivector, catalog_get,
                           generator_system, schouten, wedge_basis)
from superhomology.exterior import render_bracket_table

from oracles import (change_basis, fraction_pair_bracket, fraction_schouten, mv_add, mv_is_zero,
                     mv_scaled, mv_wedge, random_invertible, sort_generator_word as normalize_word)
from test_torus import catalog_cases

# the (alpha, beta) pairs the g3d3-rational benchmark draws from
RATIONAL_PAIRS = [("2/3", "5/7"), ("3/5", "7/4"), ("-4/3", "2/5"), ("5/2", "-3/7"),
                  ("-3/4", "5/3"), ("7/5", "-2/3"), ("4/7", "3/2"), ("-5/3", "-4/5")]


def bracket_systems():
    """Every catalog algebra in each basis, g3d3 in the paper basis over the benchmark's
    (alpha, beta) pairs, and gl2 in two seeded random bases."""
    for name, binds, basis in catalog_cases():
        yield f"{name}-{'-'.join(binds.values())}-{basis}", catalog_get(name, binds), basis
    for alpha, beta in RATIONAL_PAIRS:
        sc = catalog_get("g3d3", {"alpha": alpha, "beta": beta})
        yield f"g3d3-{alpha}-{beta}-paper", sc, "paper"
    for seed in (1, 2):
        B = random_invertible(4, random.Random(f"gl2,{seed}"))
        yield f"gl2-conjugated-{seed}", change_basis(catalog_get("gl2"), B), "canonical"


def test_wedge_basis_enumeration():
    sc = catalog_get("abelian3")
    assert wedge_basis(sc, 2) == [(1, 2), (1, 3), (2, 3)]
    vol = wedge_basis(sc, 3)
    assert vol == [(1, 2, 3)]
    # the level-3 wedge is the one generator of grade 2, which is even
    [top] = [g for g in generator_system(sc).generators if g.level == 3]
    assert top.grade == 2 and top.parity == 0
    assert len(wedge_basis(catalog_get("abelian4"), 2)) == 6
    with pytest.raises(AlgebraError):
        wedge_basis(sc, 4)
    with pytest.raises(AlgebraError):
        wedge_basis(sc, 0)


def _gens(gs):
    return {g.name: g.index for g in gs.generators}


def test_normalize_word_examples():
    gs = generator_system(catalog_get("heis3"))
    g = _gens(gs)
    assert normalize_word(gs, (g["z2"], g["z1"])) == (-1, (g["z1"], g["z2"]))
    assert normalize_word(gs, (g["u2"], g["u1"])) == (1, (g["u1"], g["u2"]))
    assert normalize_word(gs, (g["z1"], g["z1"])) is None
    assert normalize_word(gs, (g["u1"], g["z1"])) == (-1, (g["z1"], g["u1"]))
    # the top generator z4 has grade 2: even, so it also anticommutes
    assert normalize_word(gs, (g["z4"], g["z1"])) == (-1, (g["z1"], g["z4"]))
    # odd letters may repeat
    assert normalize_word(gs, (g["u3"], g["u3"])) == (1, (g["u3"], g["u3"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=7),
       st.randoms(use_true_random=False))
def test_normalize_word_idempotent_and_involutive(word, rnd):
    gs = generator_system(catalog_get("heis3"))
    norm = normalize_word(gs, tuple(word))
    if norm is None:
        evens = [g for g in word if gs.grades[g] % 2 == 0]
        assert len(evens) != len(set(evens))
        return
    sign, canonical = norm
    assert sign in (1, -1)
    assert normalize_word(gs, canonical) == (1, canonical)
    # shuffling and renormalizing returns to the same monomial
    shuffled = list(canonical)
    rnd.shuffle(shuffled)
    norm2 = normalize_word(gs, tuple(shuffled))
    assert norm2 is not None and norm2[1] == canonical


def test_schouten_examples_from_tables():
    sc = catalog_get("sl2_efh")
    gs = generator_system(sc, "paper")
    z1 = Multivector.basis((1,))
    g = _gens(gs)
    u3 = gs.generators[g["u3"]].expansion
    u1 = gs.generators[g["u1"]].expansion
    out = schouten(sc, z1, u3)
    assert out == mv_scaled(u1, 2)
    out = schouten(sc, u3, u3)
    assert out == mv_scaled(Multivector.basis((1, 2, 3)), 2)
    # even letters bracket with themselves to zero
    for i in (1, 2, 3):
        assert mv_is_zero(schouten(sc, Multivector.basis((i,)), Multivector.basis((i,))))

    sc2 = catalog_get("g3d2", {"alpha": "5"})
    vol = Multivector.basis((1, 2, 3))
    out = schouten(sc2, Multivector.basis((3,)), vol)
    assert out == mv_scaled(vol, -6)  # -(1+alpha) V


def test_schouten_level_errors():
    sc = catalog_get("heis3")
    with pytest.raises(AlgebraError):
        schouten(sc, Multivector(0, {(): F(1)}), Multivector.basis((1,)))


def _random_multivector(sc, level, rng):
    out = Multivector(level)
    for e in wedge_basis(sc, level):
        if rng.random() < 0.7:
            out = mv_add(out, Multivector(level, {e: F(rng.randint(-3, 3), rng.randint(1, 2))}))
    return out


def _random_algebra(rng):
    name = rng.choice(["heis3", "g3d1n", "g3d2", "g3d3", "sl2_efh", "aff1", "gl2"])
    binds = {}
    if name == "g3d2":
        binds = {"alpha": F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))}
    elif name == "g3d3":
        binds = {"alpha": F(rng.choice([-2, 1, 3])), "beta": F(rng.choice([-1, 1, 2]))}
    return catalog_get(name, binds)


def test_graded_antisymmetry_random():
    rng = random.Random(11)
    for _ in range(150):
        sc = _random_algebra(rng)
        p = rng.randint(1, sc.dim)
        q = rng.randint(1, sc.dim)
        a = _random_multivector(sc, p, rng)
        b = _random_multivector(sc, q, rng)
        sign = -((-1) ** ((p - 1) * (q - 1)))
        assert schouten(sc, b, a) == mv_scaled(schouten(sc, a, b), sign)


def test_graded_jacobi_random():
    rng = random.Random(12)
    for _ in range(100):
        sc = _random_algebra(rng)
        p, q, r = (rng.randint(1, sc.dim) for _ in range(3))
        a = _random_multivector(sc, p, rng)
        b = _random_multivector(sc, q, rng)
        c = _random_multivector(sc, r, rng)
        total = mv_add(mv_scaled(schouten(sc, schouten(sc, a, b), c), (-1) ** ((p - 1) * (r - 1))),
                       mv_scaled(schouten(sc, schouten(sc, b, c), a), (-1) ** ((q - 1) * (p - 1))),
                       mv_scaled(schouten(sc, schouten(sc, c, a), b), (-1) ** ((r - 1) * (q - 1))))
        assert mv_is_zero(total)


def test_leibniz_random():
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        sc = _random_algebra(rng)
        p = rng.randint(1, sc.dim)
        q = rng.randint(1, sc.dim)
        r = rng.randint(1, sc.dim)
        if q + r > sc.dim:
            continue
        a = _random_multivector(sc, p, rng)
        b = _random_multivector(sc, q, rng)
        c = _random_multivector(sc, r, rng)
        lhs = schouten(sc, a, mv_wedge(b, c))
        rhs = mv_add(mv_wedge(schouten(sc, a, b), c),
                     mv_scaled(mv_wedge(b, schouten(sc, a, c)), (-1) ** ((p - 1) * q)))
        assert lhs == rhs
        checked += 1


def test_grade_additivity():
    rng = random.Random(14)
    for _ in range(80):
        sc = _random_algebra(rng)
        p = rng.randint(1, sc.dim)
        q = rng.randint(1, sc.dim)
        a = _random_multivector(sc, p, rng)
        b = _random_multivector(sc, q, rng)
        out = schouten(sc, a, b)
        assert mv_is_zero(out) or out.level == p + q - 1


# ---------------------------------------------------------------------------
# The five printed multiplication tables, cell by cell.
# ---------------------------------------------------------------------------

def _table_case(name, binds):
    # the complete pairwise table {(row name, col name): {generator name: coefficient}}
    gs = generator_system(catalog_get(name, binds), "paper")
    names = [g.name for g in gs.generators]
    return {(names[i], names[j]): {names[k]: c for c, k in gs.pair_bracket(i, j)}
            for i in range(gs.count) for j in range(gs.count)}


def _check_block(table, rows, cols, expected):
    for r, row_cells in zip(rows, expected):
        for c, cell in zip(cols, row_cells):
            assert table[(r, c)] == cell, (r, c, table[(r, c)], cell)


ZROWS = ["z1", "z2", "z3"]
ALLCOLS = ["z1", "z2", "z3", "z4", "u1", "u2", "u3"]
UROWS = ["u1", "u2", "u3"]
UCOLS = ["u1", "u2", "u3", "z4"]


def test_bracket_table_sl2():
    t = _table_case("sl2_efh", {})
    _check_block(t, ZROWS, ALLCOLS, [
        [{}, {"z3": 1}, {"z1": 2}, {}, {}, {"u3": 1}, {"u1": 2}],
        [{"z3": -1}, {}, {"z2": -2}, {}, {"u3": -1}, {}, {"u2": -2}],
        [{"z1": -2}, {"z2": 2}, {}, {}, {"u1": -2}, {"u2": 2}, {}],
    ])
    _check_block(t, UROWS, UCOLS, [
        [{}, {"z4": -1}, {}, {}],
        [{"z4": -1}, {}, {}, {}],
        [{}, {}, {"z4": 2}, {}],
    ])


def test_bracket_table_heis3():
    t = _table_case("heis3", {})
    _check_block(t, ZROWS, ALLCOLS, [
        [{}, {"z3": 1}, {}, {}, {}, {}, {"u2": -1}],
        [{"z3": -1}, {}, {}, {}, {}, {}, {"u1": 1}],
        [{}, {}, {}, {}, {}, {}, {}],
    ])
    _check_block(t, UROWS, UCOLS, [
        [{}, {}, {}, {}],
        [{}, {}, {}, {}],
        [{}, {}, {"z4": 2}, {}],
    ])


def test_bracket_table_g3d1n():
    t = _table_case("g3d1n", {})
    _check_block(t, ZROWS, ALLCOLS, [
        [{}, {"z2": 1}, {}, {"z4": 1}, {"u1": 1}, {"u2": 1}, {}],
        [{"z2": -1}, {}, {}, {}, {}, {}, {"u2": 1}],
        [{}, {}, {}, {}, {}, {}, {}],
    ])
    _check_block(t, UROWS, UCOLS, [
        [{}, {}, {"z4": 1}, {}],
        [{}, {}, {}, {}],
        [{"z4": 1}, {}, {}, {}],
    ])


@pytest.mark.parametrize("alpha", [F(-1), F(2), F(1, 2)])
def test_bracket_table_g3d2(alpha):
    t = _table_case("g3d2", {"alpha": alpha})
    _check_block(t, ZROWS, ALLCOLS, [
        [{}, {}, {"z1": 1}, {}, {}, {}, {"u1": -1}],
        [{}, {}, {"z2": alpha}, {}, {}, {"u1": alpha}, {}],
        [{"z1": -1}, {"z2": -alpha}, {},
         {"z4": -(1 + alpha)} if alpha != -1 else {},
         {"u1": -(1 + alpha)} if alpha != -1 else {},
         {"u2": -1}, {"u3": -alpha}],
    ])
    one_minus = {"z4": 1 - alpha} if alpha != 1 else {}
    _check_block(t, UROWS, UCOLS, [
        [{}, {}, {}, {}],
        [{}, {}, one_minus, {}],
        [{}, one_minus, {}, {}],
    ])


@pytest.mark.parametrize("alpha,beta", [(F(1), F(1)), (F(-1), F(1)), (F(2), F(3))])
def test_bracket_table_g3d3(alpha, beta):
    t = _table_case("g3d3", {"alpha": alpha, "beta": beta})
    _check_block(t, ZROWS, ALLCOLS, [
        [{}, {"z3": 1}, {"z2": -beta}, {}, {}, {"u3": 1}, {"u2": -beta}],
        [{"z3": -1}, {}, {"z1": alpha}, {}, {"u3": -1}, {}, {"u1": alpha}],
        [{"z2": beta}, {"z1": -alpha}, {}, {}, {"u2": beta}, {"u1": -alpha}, {}],
    ])
    _check_block(t, UROWS, UCOLS, [
        [{"z4": F(2) / alpha}, {}, {}, {}],
        [{}, {"z4": F(2) / beta}, {}, {}],
        [{}, {}, {"z4": 2}, {}],
    ])


def test_bracket_table_render_deterministic():
    gs = generator_system(catalog_get("sl2_efh"), "paper")
    text = render_bracket_table(gs)
    assert text == render_bracket_table(gs)
    assert "2·u1" in text  # the [z1, u3] cell
    assert "2·z4" in text  # the [u3, u3] cell


@pytest.mark.parametrize("name, basis", [("abelian4", "canonical"), ("gl2", "canonical"),
                                         ("heis3", "paper"), ("sl2_efh", "paper")])
def test_bracket_table_render_brackets_only_the_printed_pairs(name, basis):
    # grade-0 rows x every generator, then odd rows x (odd + even of grade > 0)
    gs = generator_system(catalog_get(name), basis)
    gens = gs.generators
    zero_rows = sum(1 for i in gs.even_ids if gens[i].grade == 0)
    high_even = sum(1 for i in gs.even_ids if gens[i].grade > 0)
    printed = zero_rows * gs.count + len(gs.odd_ids) * (len(gs.odd_ids) + high_even)
    render_bracket_table(gs)
    assert len(gs._pair_cache) == printed < gs.count ** 2


@pytest.mark.parametrize("sc, basis", [case[1:] for case in bracket_systems()],
                         ids=[case[0] for case in bracket_systems()])
def test_brackets_equal_the_fraction_route(sc, basis):
    # pair_bracket and schouten bracket on the int table D c_ij^k; the oracle sums Fractions
    gs = generator_system(sc, basis)
    for i, a in enumerate(gs.generators):
        for j, b in enumerate(gs.generators):
            assert gs.pair_bracket(i, j) == fraction_pair_bracket(gs, i, j), (a, b)
            assert schouten(sc, a.expansion, b.expansion) == fraction_schouten(
                sc, a.expansion, b.expansion), (a, b)


def test_alias_basis_must_be_invertible():
    sc = catalog_get("heis3")
    degenerate = [("a", Multivector(2, {(1, 2): F(1)})),
                  ("b", Multivector(2, {(1, 2): F(2)})),
                  ("c", Multivector(2, {(2, 3): F(1)}))]
    with pytest.raises(AlgebraError):
        GeneratorSystem(sc, {2: degenerate})
    with pytest.raises(AlgebraError):
        GeneratorSystem(sc, {2: degenerate[:2]})


def test_paper_basis_availability():
    # dim 2 has a printed basis (the canonical one); gl2 and abelian do not
    gs = generator_system(catalog_get("aff1"), "paper")
    assert [g.name for g in gs.generators] == ["z1", "z2", "u1"]
    with pytest.raises(AlgebraError):
        generator_system(catalog_get("gl2"), "paper")
    with pytest.raises(AlgebraError):
        generator_system(catalog_get("abelian3"), "paper")
    with pytest.raises(AlgebraError):
        generator_system(catalog_get("heis3"), "printed")


def test_generator_order_matches_table_layout():
    gs = generator_system(catalog_get("heis3"))
    assert [g.name for g in gs.generators] == ["z1", "z2", "z3", "z4", "u1", "u2", "u3"]
    assert gs.grades == (0, 0, 0, 2, 1, 1, 1)
    gl2 = generator_system(catalog_get("gl2"))
    assert [g.level for g in gl2.generators] == [1, 1, 1, 1, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 4]
