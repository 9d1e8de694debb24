import io
import random
from fractions import Fraction as F
from math import comb

import pytest

from superhomology import (boundary_matrix, catalog_get, catalog_names,
                           chain_basis, chain_dim, format_monomial,
                           generator_system, load_algebra, support_degrees, torus_pieces)
from superhomology.chain import max_weight, numbered_bases

from oracles import (Chain, _word_matrix, assemble, boundary_monomial, brute_basis,
                     induced_bracket, kernel_column, load_matrix, matmul, monomial_code,
                     monomial_degree, monomial_weight, monomial_word, naive_rank, normalize_word,
                     odd_first, piece_dims, torus_weight, wedge_chain, word_boundary_matrix,
                     word_boundary_monomial, zero_piece_basis)

# aff1 + aff1: two torus coordinates, ad z2 and ad z4
AFF1_SQUARED = {"name": "aff1x2", "dim": 4, "brackets": [{"i": 1, "j": 2, "out": {"1": "1"}},
                                                         {"i": 3, "j": 4, "out": {"3": "1"}}]}


def mono(eps, odds):
    return tuple(eps) + tuple(odds)


def chain(*terms):
    out = Chain()
    for coeff, eps, odds in terms:
        out.add_term(mono(eps, odds), F(coeff))
    return out


@pytest.fixture(scope="module")
def systems():
    out = {}
    for name, binds in [("heis3", {}), ("g3d1n", {}), ("sl2_efh", {}),
                        ("g3d2", {"alpha": F(2)}), ("g3d3", {"alpha": F(2), "beta": F(3)})]:
        out[name] = generator_system(catalog_get(name, binds), "paper")
    return out


def test_chain_basis_examples():
    gs = generator_system(catalog_get("heis3"))
    # lowest degree at w=4: z4 ^ U with two odd letters
    low = chain_basis(gs, 3, 4)
    assert len(low) == comb(4, 2) == 6
    assert all(m[:4] == (0, 0, 0, 1) and sum(m[4:]) == 2 for m in low)
    # top degree at w=2: W^{1110} ^ U with two odd letters
    top = chain_basis(gs, 5, 2)
    assert len(top) == comb(4, 2) == 6
    assert all(m[:4] == (1, 1, 1, 0) for m in top)
    # degree 0, weight 0: the empty monomial
    assert chain_basis(gs, 0, 0) == [mono((0, 0, 0, 0), (0, 0, 0))]
    assert chain_dim(gs, 4, 3) == 3 * comb(3, 2) + 3 * comb(5, 2) == 39
    assert chain_basis(gs, 0, 1) == []


_ORDER_BINDS = {"g3d2": {"alpha": "3"}, "g3d3": {"alpha": "2", "beta": "3"}}


@pytest.mark.parametrize("name", catalog_names())
def test_chain_basis_order_is_graded_lex_deterministic(name):
    # chain_basis emits lex order without sorting, so every cell must come out
    # strictly increasing and complete
    gs = generator_system(catalog_get(name, _ORDER_BINDS.get(name)))
    w_max = 6 if name == "gl2" else 3 if name.startswith("abelian") else 8
    for w in range(w_max + 1):
        for m in support_degrees(gs, w):
            basis = chain_basis(gs, m, w)
            assert len(basis) == chain_dim(gs, m, w), (m, w)
            assert all(a < b for a, b in zip(basis, basis[1:])), (m, w)
    if name == "heis3":
        basis = chain_basis(gs, 2, 2)
        assert basis[0][:4] == (0, 0, 0, 0)  # pure odd monomials come first
        assert basis == chain_basis(gs, 2, 2)


def test_chain_dim_factors_through_grade_zero_part():
    # dim C_m^w = sum_a C(n, a) * dim R_{m-a}^w where R drops the grade-0
    # letters; this factorization is what forces every Euler sum to zero
    for name in ("heis3", "gl2"):
        gs = generator_system(catalog_get(name))
        n = gs.dim
        zero_ids = set(range(n))  # grade-0 generators come first

        def restricted_dim(m, w):
            return sum(1 for mono in chain_basis(gs, m, w)
                       if not any(mono[i] for i in zero_ids))

        for w in range(0, 5):
            for m in range(0, 9):
                convolution = sum(comb(n, a) * restricted_dim(m - a, w)
                                  for a in range(0, min(n, m) + 1))
                assert chain_dim(gs, m, w) == convolution, (name, m, w)


def test_chain_dim_matches_enumeration():
    rng = random.Random(3)
    for name in ("heis3", "gl2", "abelian4"):
        gs = generator_system(catalog_get(name))
        for _ in range(12):
            m = rng.randint(0, 7)
            w = rng.randint(0, 6)
            assert chain_dim(gs, m, w) == len(chain_basis(gs, m, w)) == len(brute_basis(gs, m, w))


@pytest.mark.parametrize("name", catalog_names())
def test_bases_and_counts_match_brute_force(name):
    # the suffix tables count and list every basis, so both are checked against
    # a depth-first search that shares nothing with them
    gs = generator_system(catalog_get(name, _ORDER_BINDS.get(name)))
    zero = (0,) * len(gs.torus)
    w_max = 4 if name == "gl2" else 3 if name.startswith("abelian") else 6
    for w in range(w_max + 1):
        pieces, support = {}, []
        for m in range(-1, w + gs.dim + 2):
            basis = brute_basis(gs, m, w)
            assert chain_basis(gs, m, w) == basis, (m, w)
            # without a grading the zero piece is the whole basis
            zero_piece = brute_basis(gs, m, w, zero) if gs.torus else basis
            assert zero_piece_basis(gs, m, w) == zero_piece, (m, w)
            assert chain_dim(gs, m, w) == len(basis), (m, w)
            support += [m] if basis else []
            for mono in basis:
                dims = pieces.setdefault(torus_weight(gs, mono), {})
                dims[m] = dims.get(m, 0) + 1
        assert torus_pieces(gs, w) == pieces, w
        assert support_degrees(gs, w) == support, w


# the oracle lists every monomial of each weight, so the algebras with large weights stop
# early: the last weight holds 38,112 monomials on gl2, 72,208 on aff1x2, 129,424 on
# abelian4, 159,584 on abelian5 and 63,680 on abelian6
_VIEW_W_MAX = {"abelian4": 9, "abelian5": 5, "abelian6": 3, "aff1x2": 8, "gl2": 7}


@pytest.mark.parametrize("name", catalog_names() + ["aff1x2"])
def test_torus_pieces_follow_the_count_tables_through_a_rebuild(name):
    # torus_pieces reads table 0 by weight, built with the tables: the call at w = 3
    # builds them to 3 and the one at w_max rebuilds them, after which every weight
    # must still match the pieces listed on a system of its own
    def system():
        if name == "aff1x2":
            return generator_system(load_algebra(AFF1_SQUARED))
        return generator_system(catalog_get(name, _ORDER_BINDS.get(name)))

    gs, oracle = system(), system()
    w_max = _VIEW_W_MAX.get(name, 11)
    listed = [piece_dims(oracle, w) for w in range(w_max + 1)]
    assert torus_pieces(gs, 3) == listed[3]
    assert torus_pieces(gs, w_max) == listed[w_max]
    assert [torus_pieces(gs, w) for w in range(w_max + 1)] == listed
    # each call returns fresh pieces, so a caller may change them
    for dims in torus_pieces(gs, w_max).values():
        dims.clear()
    assert torus_pieces(gs, w_max) == listed[w_max]


@pytest.mark.parametrize("name", catalog_names())
def test_listed_codes_are_lex_ordered_and_numbered_odd_first(name):
    # the table lists each weight's zero pieces with one radix R, one above its top support
    # degree, and one tail memo for every degree; each code is sum_x e_x R^(n-1-x), so the
    # codes are distinct and in lex order, and the odd part code % R**n_odd orders the
    # numbering betti_row holds.  heis3's cell (299, 300) has exponents up to 298.
    # abelian5 and abelian6 stop at weights of 43,552 and 8,960 monomials (gl2 at w = 8 has
    # 72,208), one weight short of 159,584 and 63,680.
    gs = generator_system(catalog_get(name, _ORDER_BINDS.get(name)))
    w_max = {"abelian5": 4, "abelian6": 2}.get(name, 8)
    cells = [(gs, w, support_degrees(gs, w)) for w in range(w_max + 1)]
    cells += [(gs, 300, [299])] if name == "heis3" else []
    for gs, w, degrees in cells:
        if not degrees:
            continue
        top = max(degrees) + 1
        radix, bases = numbered_bases(gs, w, degrees)
        assert radix == top and set(bases) == set(degrees), w
        for m, (monos, codes) in bases.items():
            # the torus-weight-0 monomials of the cell, listed without a grading
            lex = [mono for mono in chain_basis(gs, m, w) if not any(torus_weight(gs, mono))]
            assert len(set(codes)) == len(codes) == len(lex), (w, m)
            assert [mono for _, mono in sorted(zip(codes, monos))] == lex, (w, m)
            assert codes == [monomial_code(mono, top) for mono in monos], (w, m)
            assert monos == odd_first(gs, lex), (w, m)
            odd_parts = [code % top ** len(gs.odd_ids) for code in codes]
            assert odd_parts == sorted(odd_parts), (w, m)


def test_max_weight_is_the_heaviest_monomial():
    # no letter has grade above dim - 1, so the search stops at (dim - 1) m; the
    # even top letter of an odd dim makes heis3's bound m + 1, not 2 m
    for name in catalog_names():
        gs = generator_system(catalog_get(name, _ORDER_BINDS.get(name)))
        for m in range(6 if gs.dim < 5 else 4):
            weights = [w for w in range((gs.dim - 1) * m + 1) if brute_basis(gs, m, w)]
            # dim 1 has no monomial of degree above 1, and 0 bounds that empty set
            assert max_weight(gs, m) == max(weights, default=0), (name, m)
        assert max_weight(gs, -1) == -1


def test_generic_3dim_dimension_table():
    for name, binds in [("heis3", {}), ("g3d2", {"alpha": "3"}), ("abelian3", {})]:
        gs = generator_system(catalog_get(name, binds))
        for w in range(2, 9):
            lo, hi = comb(w, 2), comb(w + 2, 2)
            dims = [chain_dim(gs, m, w) for m in range(w - 1, w + 4)]
            assert dims == [lo, 3 * lo + hi, 3 * lo + 3 * hi, lo + 3 * hi, hi]
            assert support_degrees(gs, w) == list(range(w - 1, w + 4))


# ---------------------------------------------------------------------------
# Boundary values printed in the case analyses.
# ---------------------------------------------------------------------------

W1110, W1101, W1011, W0111, W1111 = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
                                     (0, 1, 1, 1), (1, 1, 1, 1))
NOZ = (0, 0, 0)


def bnd(gs, eps, odds=NOZ):
    return boundary_monomial(gs, mono(eps, odds))


def test_boundary_w_words_sl2(systems):
    gs = systems["sl2_efh"]
    assert bnd(gs, W1111).is_zero()
    assert bnd(gs, W1110).is_zero()
    assert bnd(gs, W1101) == chain((1, (0, 0, 1, 1), NOZ))
    assert bnd(gs, W1011) == chain((2, (1, 0, 0, 1), NOZ))
    assert bnd(gs, W0111) == chain((-2, (0, 1, 0, 1), NOZ))


def test_boundary_w_words_heis3(systems):
    gs = systems["heis3"]
    assert bnd(gs, W1111).is_zero()
    assert bnd(gs, W1110).is_zero()
    assert bnd(gs, W1101) == chain((1, (0, 0, 1, 1), NOZ))
    assert bnd(gs, W1011).is_zero()
    assert bnd(gs, W0111).is_zero()


def test_boundary_w_words_g3d1n(systems):
    gs = systems["g3d1n"]
    assert bnd(gs, W1111) == chain((2, W0111, NOZ))
    assert bnd(gs, W1110) == chain((1, (0, 1, 1, 0), NOZ))
    assert bnd(gs, W1101) == chain((2, (0, 1, 0, 1), NOZ))
    assert bnd(gs, W1011) == chain((1, (0, 0, 1, 1), NOZ))
    assert bnd(gs, W0111).is_zero()


def test_boundary_w_words_g3d2():
    alpha = F(2)
    gs = generator_system(catalog_get("g3d2", {"alpha": alpha}), "paper")
    assert bnd(gs, W1111) == chain((-2 * (1 + alpha), (1, 1, 0, 1), NOZ))
    assert bnd(gs, W1110) == chain((-(1 + alpha), (1, 1, 0, 0), NOZ))
    assert bnd(gs, W1101).is_zero()
    assert bnd(gs, W1011) == chain((2 + alpha, (1, 0, 0, 1), NOZ))
    assert bnd(gs, W0111) == chain((2 * alpha + 1, (0, 1, 0, 1), NOZ))


def test_boundary_w_words_g3d3():
    alpha, beta = F(2), F(3)
    gs = generator_system(catalog_get("g3d3", {"alpha": alpha, "beta": beta}), "paper")
    assert bnd(gs, W1111).is_zero()
    assert bnd(gs, W1110).is_zero()
    assert bnd(gs, W1101) == chain((1, (0, 0, 1, 1), NOZ))
    assert bnd(gs, W1011) == chain((-beta, (0, 1, 0, 1), NOZ))
    assert bnd(gs, W0111) == chain((alpha, (1, 0, 0, 1), NOZ))


def _u_powers(wmax=5):
    for a in range(wmax + 1):
        for b in range(wmax + 1 - a):
            for c in range(wmax + 1 - a - b):
                yield a, b, c


def test_boundary_u_closed_form_sl2(systems):
    # z4 ^ (-ab U^{a-1,b-1,c} + 2 C(c,2) U^{a,b,c-2})
    gs = systems["sl2_efh"]
    z4 = (0, 0, 0, 1)
    for a, b, c in _u_powers():
        expect = Chain()
        if a and b:
            expect.add_term(mono(z4, (a - 1, b - 1, c)), F(-a * b))
        if c >= 2:
            expect.add_term(mono(z4, (a, b, c - 2)), F(2 * comb(c, 2)))
        assert bnd(gs, (0, 0, 0, 0), (a, b, c)) == expect, (a, b, c)


def test_boundary_u_closed_form_heis3(systems):
    gs = systems["heis3"]
    for a, b, c in _u_powers():
        expect = Chain()
        if c >= 2:
            expect.add_term(mono((0, 0, 0, 1), (a, b, c - 2)), F(2 * comb(c, 2)))
        assert bnd(gs, (0, 0, 0, 0), (a, b, c)) == expect


def test_boundary_u_closed_form_g3d1n(systems):
    gs = systems["g3d1n"]
    for a, b, c in _u_powers():
        expect = Chain()
        if a and c:
            expect.add_term(mono((0, 0, 0, 1), (a - 1, b, c - 1)), F(a * c))
        assert bnd(gs, (0, 0, 0, 0), (a, b, c)) == expect


@pytest.mark.parametrize("alpha", [F(-1), F(3), F(1)])
def test_boundary_u_closed_form_g3d2(alpha):
    # bc (1-alpha) z4 ^ U^{a,b-1,c-1}: the scalar is [u2, u3] from the
    # multiplication table, so the map vanishes identically at alpha = 1
    gs = generator_system(catalog_get("g3d2", {"alpha": alpha}), "paper")
    for a, b, c in _u_powers():
        expect = Chain()
        if b and c:
            expect.add_term(mono((0, 0, 0, 1), (a, b - 1, c - 1)), b * c * (1 - alpha))
        assert bnd(gs, (0, 0, 0, 0), (a, b, c)) == expect


def test_boundary_u_closed_form_g3d3():
    alpha, beta = F(2), F(3)
    gs = generator_system(catalog_get("g3d3", {"alpha": alpha, "beta": beta}), "paper")
    z4 = (0, 0, 0, 1)
    for a, b, c in _u_powers():
        expect = Chain()
        if a >= 2:
            expect.add_term(mono(z4, (a - 2, b, c)), 2 / alpha * comb(a, 2))
        if b >= 2:
            expect.add_term(mono(z4, (a, b - 2, c)), 2 / beta * comb(b, 2))
        if c >= 2:
            expect.add_term(mono(z4, (a, b, c - 2)), F(2 * comb(c, 2)))
        assert bnd(gs, (0, 0, 0, 0), (a, b, c)) == expect


def test_lowest_chain_space_boundary_is_trivial():
    # z4 ^ U^P maps to zero for every 3-dimensional algebra
    for name, binds in [("heis3", {}), ("g3d1n", {}), ("g3d2", {"alpha": "7"}),
                        ("g3d3", {"alpha": "1", "beta": "1"}), ("sl2_efh", {}),
                        ("abelian3", {})]:
        gs = generator_system(catalog_get(name, binds))
        for w in range(2, 7):
            for m in chain_basis(gs, w - 1, w):
                assert boundary_monomial(gs, m).is_zero()
        matrix = boundary_matrix(gs, w - 1, w)
        assert matrix.cols == comb(w, 2) and matrix.rows == 0


# ---------------------------------------------------------------------------
# The induced binary operation (the boundary's deviation from Leibniz).
# ---------------------------------------------------------------------------

def test_induced_bracket_on_even_letters_is_lie_bracket(systems):
    gs = systems["heis3"]
    z1 = mono((1, 0, 0, 0), NOZ)
    z2 = mono((0, 1, 0, 0), NOZ)
    assert induced_bracket(gs, z1, z2) == chain((1, (0, 0, 1, 0), NOZ))


def test_induced_bracket_heis3_table_entry(systems):
    gs = systems["heis3"]
    z1 = mono((1, 0, 0, 0), NOZ)
    u3 = mono((0, 0, 0, 0), (0, 0, 1))
    assert induced_bracket(gs, z1, u3) == chain((-1, (0, 0, 0, 0), (0, 1, 0)))


def test_induced_bracket_with_empty_is_zero(systems):
    gs = systems["sl2_efh"]
    one = mono((0, 0, 0, 0), NOZ)
    a = mono((1, 1, 0, 0), (0, 1, 2))
    assert induced_bracket(gs, a, one).is_zero()
    assert induced_bracket(gs, one, a).is_zero()


def _collected_z_bracket(gs, i, odds):
    """[z_i, U^A] via the induced bracket."""
    eps = [0, 0, 0, 0]
    eps[i - 1] = 1
    return induced_bracket(gs, mono(tuple(eps), NOZ), mono((0, 0, 0, 0), odds))


def test_z_action_closed_forms_sl2(systems):
    gs = systems["sl2_efh"]
    for a, b, c in _u_powers(4):
        got = _collected_z_bracket(gs, 1, (a, b, c))
        expect = Chain()
        if b:
            expect.add_term(mono((0, 0, 0, 0), (a, b - 1, c + 1)), F(b))
        if c:
            expect.add_term(mono((0, 0, 0, 0), (a + 1, b, c - 1)), F(2 * c))
        assert got == expect
        got = _collected_z_bracket(gs, 2, (a, b, c))
        expect = Chain()
        if a:
            expect.add_term(mono((0, 0, 0, 0), (a - 1, b, c + 1)), F(-a))
        if c:
            expect.add_term(mono((0, 0, 0, 0), (a, b + 1, c - 1)), F(-2 * c))
        assert got == expect
        got = _collected_z_bracket(gs, 3, (a, b, c))
        assert got == chain((2 * (-a + b), (0, 0, 0, 0), (a, b, c))) if a != b \
            else got.is_zero()


def test_z_action_closed_forms_heis3(systems):
    gs = systems["heis3"]
    for a, b, c in _u_powers(4):
        got1 = _collected_z_bracket(gs, 1, (a, b, c))
        exp1 = chain((-c, (0, 0, 0, 0), (a, b + 1, c - 1))) if c else Chain()
        assert got1 == exp1
        got2 = _collected_z_bracket(gs, 2, (a, b, c))
        exp2 = chain((c, (0, 0, 0, 0), (a + 1, b, c - 1))) if c else Chain()
        assert got2 == exp2
        assert _collected_z_bracket(gs, 3, (a, b, c)).is_zero()


def test_z_action_closed_forms_g3d2():
    alpha = F(5)
    gs = generator_system(catalog_get("g3d2", {"alpha": alpha}), "paper")
    for a, b, c in _u_powers(4):
        got = _collected_z_bracket(gs, 1, (a, b, c))
        assert got == (chain((-c, (0, 0, 0, 0), (a + 1, b, c - 1))) if c else Chain())
        got = _collected_z_bracket(gs, 2, (a, b, c))
        assert got == (chain((alpha * b, (0, 0, 0, 0), (a + 1, b - 1, c))) if b else Chain())
        got = _collected_z_bracket(gs, 3, (a, b, c))
        coeff = -(1 + alpha) * a - b - alpha * c
        assert got == (chain((coeff, (0, 0, 0, 0), (a, b, c))) if coeff else Chain())


def _eps_tilde(eps):
    """eps_i * (-1)^{eps_1 + ... + eps_i}, the sign bookkeeping of W-words."""
    out = []
    running = 0
    for e in eps:
        running += e
        out.append(e * (-1) ** running)
    return out


def _wedge_front(gs, coeff_by_gen, eps, odds=NOZ):
    """chain of (sum coeff * generator) ^ W^eps ^ U^odds, bracket letter first."""
    out = Chain()
    rest = monomial_word(gs, mono(eps, odds))
    for gid, coeff in coeff_by_gen.items():
        norm = normalize_word(gs, (gid,) + rest)
        if norm is not None:
            sign, target = norm
            out.add_term(target, coeff * sign)
    return out


@pytest.mark.parametrize("name,binds", [
    ("heis3", {}), ("g3d1n", {}), ("g3d2", {"alpha": F(-3, 2)}),
    ("g3d3", {"alpha": F(2), "beta": F(-1)}), ("sl2_efh", {})])
def test_boundary_of_w_words_via_pair_formula(name, binds):
    # d W^E = - sum_{i<j} e~_i e~_j [z_i, z_j] ^ W^{E - 1_i - 1_j}
    gs = generator_system(catalog_get(name, binds), "paper")
    from itertools import product
    for eps in product((0, 1), repeat=4):
        et = _eps_tilde(eps)
        expect = Chain()
        for i in range(4):
            for j in range(i + 1, 4):
                if not (eps[i] and eps[j]):
                    continue
                reduced = list(eps)
                reduced[i] = reduced[j] = 0
                coeffs = {g: -et[i] * et[j] * c
                          for c, g in gs.pair_bracket(i, j)}
                expect = expect + _wedge_front(gs, coeffs, tuple(reduced))
        assert boundary_monomial(gs, mono(eps, NOZ)) == expect, eps


@pytest.mark.parametrize("name,binds", [
    ("heis3", {}), ("g3d2", {"alpha": F(4)}), ("sl2_efh", {})])
def test_induced_bracket_of_w_against_u_via_letter_formula(name, binds):
    # [W^E, U^A] = - sum_{i<=3} e~_i W^{eps_i=0} ^ [z_i, U^A]
    gs = generator_system(catalog_get(name, binds), "paper")
    from itertools import product
    for eps in product((0, 1), repeat=4):
        for odds in [(1, 0, 0), (0, 2, 1), (1, 1, 2)]:
            et = _eps_tilde(eps)
            expect = Chain()
            for i in range(3):
                if not eps[i]:
                    continue
                reduced = list(eps)
                reduced[i] = 0
                action = induced_bracket(gs, mono((1 if k == i else 0 for k in range(4)), NOZ),
                                         mono((0, 0, 0, 0), odds))
                part = wedge_chain(gs, action, mono(tuple(reduced), NOZ), on_left=True)
                expect = expect + part.scaled(-et[i])
            got = induced_bracket(gs, mono(eps, NOZ), mono((0, 0, 0, 0), odds))
            assert got == expect, (eps, odds)


# ---------------------------------------------------------------------------
# Structural properties of the boundary.
# ---------------------------------------------------------------------------

def test_weight_preserved_degree_decremented():
    rng = random.Random(9)
    for name, binds in [("heis3", {}), ("g3d3", {"alpha": "1", "beta": "1"}), ("gl2", {})]:
        gs = generator_system(catalog_get(name, binds))
        for _ in range(40):
            w = rng.randint(0, 5)
            m = rng.randint(0, 7)
            basis = chain_basis(gs, m, w)
            if not basis:
                continue
            pick = rng.choice(basis)
            for target in boundary_monomial(gs, pick).terms:
                assert monomial_degree(target) == m - 1
                assert monomial_weight(gs, target) == w


def test_boundary_squared_is_zero_on_matrices():
    for name, binds, basis in [("heis3", {}, "paper"), ("g3d2", {"alpha": "-1"}, "canonical"),
                               ("sl2_efh", {}, "paper"), ("gl2", {}, "canonical")]:
        gs = generator_system(catalog_get(name, binds), basis)
        for w in range(0, 5):
            degrees = support_degrees(gs, w)
            for m in degrees:
                if m - 1 in degrees and m + 1 in degrees:
                    product = matmul(boundary_matrix(gs, m, w), boundary_matrix(gs, m + 1, w))
                    assert product.is_zero(), (name, m, w)


ORACLE_CASES = [
    ("heis3", {}, 10), ("sl2_efh", {}, 10), ("g3d2", {"alpha": F(-1)}, 10),
    ("g3d3", {"alpha": F(2, 3), "beta": F(-5, 7)}, 10), ("aff1", {}, 8)]


@pytest.mark.parametrize("name,binds,basis,w_max", [
    *[(n, b, basis, w) for n, b, w in ORACLE_CASES for basis in ("canonical", "paper")],
    ("gl2", {}, "canonical", 3)])
def test_boundary_matrix_matches_word_oracle(name, binds, basis, w_max):
    gs = generator_system(catalog_get(name, binds), basis)
    for w in range(w_max + 1):
        for m in support_degrees(gs, w):
            if m >= 1:
                assert boundary_matrix(gs, m, w) == word_boundary_matrix(gs, m, w), (w, m)


def test_boundary_of_high_odd_powers_matches_word_oracle():
    # an odd exponent >= 3 makes the C(e, 2) self-pair term; an even bracket
    # letter that is already present must drop out
    sl2 = generator_system(catalog_get("sl2_efh"), "paper")
    z4 = (0, 0, 0, 1)
    assert boundary_monomial(sl2, mono((0, 0, 0, 0), (0, 0, 3))) == chain((6, z4, (0, 0, 1)))
    assert boundary_monomial(sl2, mono(z4, (0, 0, 3))).is_zero()
    rng = random.Random(20)
    for name, binds in [("sl2_efh", {}), ("heis3", {}), ("g3d3", {"alpha": F(2, 3), "beta": F(-5, 7)}),
                        ("gl2", {})]:
        gs = generator_system(catalog_get(name, binds))
        n_even, n_odd = len(gs.even_ids), len(gs.odd_ids)
        for _ in range(60):
            evens = tuple(rng.randint(0, 1) for _ in range(n_even))
            odds = [rng.choice((0, 0, 1, 2)) for _ in range(n_odd)]
            odds[rng.randrange(n_odd)] = rng.randint(3, 5)
            pick = mono(evens, odds)
            assert boundary_monomial(gs, pick) == word_boundary_monomial(gs, pick), (name, pick)


def test_boundary_of_large_exponents_matches_word_oracle():
    # a digit of the monomial code holds any exponent below the radix, one above the
    # degree: an exponent >= 256 would spill out of a byte-wide digit
    heis3, gl2 = (generator_system(catalog_get(name)) for name in ("heis3", "gl2"))
    pick = (1, 0, 0, 1, 2, 259, 37)
    # a byte-wide code would give its target (.., 1, 260, 37) and the later row
    # (.., 257, 3, 38) of this basis one code
    rows = chain_basis(heis3, 299, 300)
    (got,) = assemble(heis3, 300, [pick], rows)
    assert {(r, 0): v for r, v in got.items()} == _word_matrix(heis3, [pick], rows).entries != {}
    picks = [(heis3, pick), (gl2, (1, 0, 1, 0, 0, 1, 0, 0, 260, 10, 5, 8, 0, 3, 12)),
             # a power of the odd letter with a nonzero self-bracket, its exponent the
             # radix less one
             (heis3, (0, 0, 0, 0, 256, 0, 0)), (gl2, (0,) * 11 + (256, 0, 0, 0))]
    for gs, pick in picks:
        assert boundary_monomial(gs, pick) == word_boundary_monomial(gs, pick) != Chain(), pick


@pytest.mark.parametrize("name, binds, w, m", [
    ("gl2", {}, 5, 6), ("heis3", {}, 12, 13), ("g3d3", {"alpha": F(2, 3), "beta": F(5, 7)}, 8, 9)])
def test_kernel_columns_do_not_depend_on_their_order(name, binds, w, m):
    # the kernel sets each pair up once per even part of its columns; shuffled, every part
    # of a whole cell comes in pieces between the others, and each column must still be
    # D_w times its word-route column (g3d3 has D_w = 21 here)
    gs = generator_system(catalog_get(name, binds))
    cols, rows = chain_basis(gs, m, w), chain_basis(gs, m - 1, w)
    scale, n_even = gs.int_brackets(w)[0], len(gs.even_ids)
    assert len({mono[:n_even] for mono in cols}) >= 6
    assert (scale > 1) == (name == "g3d3")
    expected = [{} for _ in cols]
    for (r, c), v in word_boundary_matrix(gs, m, w).entries.items():
        expected[c][r] = v * scale
    order = list(range(len(cols)))
    random.Random(24).shuffle(order)
    got = assemble(gs, w, [cols[c] for c in order], rows)
    assert got == [expected[c] for c in order]


@pytest.mark.parametrize("name, w_max", [("gl2", 4), ("sl2_efh", 6)])
def test_kernel_deletes_the_entries_that_cancel(name, w_max):
    gs = generator_system(catalog_get(name))
    cancelled = 0
    for w in range(w_max + 1):
        for m in support_degrees(gs, w):
            if m < 1:
                continue
            for pick in chain_basis(gs, m, w):
                column, looked_up = kernel_column(gs, pick)
                assert all(column.values()), pick
                cancelled += len(looked_up - column.keys())  # looked up, then deleted
            # boundary_matrix copies every stored entry and the word route stores no
            # zero, so this also says the whole-cell assembly stores none
            assert boundary_matrix(gs, m, w) == word_boundary_matrix(gs, m, w), (w, m)
    assert cancelled > 0


def test_boundary_matrix_shapes_and_examples():
    gs = generator_system(catalog_get("abelian3"))
    assert boundary_matrix(gs, 2, 3).is_zero()
    sl2 = generator_system(catalog_get("sl2_efh"))
    matrix = boundary_matrix(sl2, 5, 2)  # top degree at weight 2
    assert (matrix.rows, matrix.cols) == (19, 6)
    assert naive_rank(matrix) == 6


def test_matrix_dump_round_trip():
    gs = generator_system(catalog_get("heis3"))
    matrix = boundary_matrix(gs, 4, 3)
    buf = io.StringIO()
    matrix.dump(buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == f"{matrix.rows} {matrix.cols}"
    assert lines[1:] == sorted(lines[1:], key=lambda s: (int(s.split()[0]), int(s.split()[1])))
    again = load_matrix(io.StringIO(text))
    assert again == matrix


def test_normalize_word_monomial_surface():
    gs = generator_system(catalog_get("heis3"))
    ids = {g.name: g.index for g in gs.generators}
    u1, z2 = ids["u1"], ids["z2"]
    norm = normalize_word(gs, (u1, z2))
    assert norm == (-1, mono((0, 1, 0, 0), (1, 0, 0)))
    assert normalize_word(gs, (z2, z2)) is None


def test_format_monomial_notation():
    gs = generator_system(catalog_get("heis3"))
    assert format_monomial(gs, mono((1, 1, 0, 1), (2, 0, 1))) == "W^{1101} ∧ U^{2,0,1}"
    assert format_monomial(gs, mono((0, 0, 0, 0), NOZ)) == "1"
    assert format_monomial(gs, mono((1, 0, 0, 0), NOZ)) == "W^{1000}"
    gl2 = generator_system(catalog_get("gl2"))
    m = mono((1, 1, 0, 1, 0, 0, 0, 0), (2, 0, 1, 0, 0, 0, 0))
    assert format_monomial(gl2, m) == "Z{1,2,4} ∧ U{u1^2 u3}"
