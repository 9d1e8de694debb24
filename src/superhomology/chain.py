"""Weight-graded super chain spaces and the boundary operator.

A chain monomial is a word of generators in canonical order: even-grade
generators appear with exponent 0 or 1, odd-grade generators with arbitrary
natural exponents.  Degree is the total exponent sum, weight the grade-
weighted sum; the boundary operator preserves weight and lowers degree by 1,
so each weight gives a finite complex.

On a word Y_1 ^ ... ^ Y_m the boundary acts pair by pair,

    sum_{a<b} (-1)^{a-1 + y_a (y_{a+1}+...+y_{b-1})}
              Y_1 ^ ... Y_a-hat ... ^ [Y_a, Y_b] ^ ... ^ Y_m ,

with the bracket of the two generators substituted at position b and the
resulting word renormalized.  Degree <= 1 words map to zero.

The word is never built.  Generator ids sort even grades first, so a
monomial is its exponent vector e over ids, and the sorted word is e_0
copies of id 0, then e_1 copies of id 1, and so on.  The sum above is
evaluated once per pair of letter types i <= j, weighted by the number of
position pairs: e_i * e_j for i < j, and C(e_i, 2) for an odd type paired
with itself (even types have e_i <= 1).  Every position pair of the same
two types gives the same term with the same sign:

* moving a to the next copy of an odd Y_i raises a - 1 by one and removes
  one odd letter from the passed sum, so the exponent keeps its parity;
* moving b to the next copy of an odd Y_j adds one odd letter to the passed
  sum, which flips the sign when Y_i is odd, and moves the slot of the
  bracket letter by one, which flips the sign of its move to sorted order
  when that letter is even.  The bracket letter has the parity of
  y_i + y_j, so it is even exactly when Y_i is odd, and the flips cancel.

So the sign is taken at the first occurrences, with a, b, the passed letters
and the letters the bracket letter crosses all read off prefix counts of e.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .algebra import AlgebraError
from .exterior import GeneratorSystem
from .exterior import normalize_word as _normalize_generator_word
from .matrix import RationalMatrix


class SuperMonomial(NamedTuple):
    """Exponent vectors over the even-grade and odd-grade generators."""

    evens: tuple[int, ...]
    odds: tuple[int, ...]


def monomial_degree(mono: SuperMonomial) -> int:
    return sum(mono.evens) + sum(mono.odds)


def monomial_weight(gs: GeneratorSystem, mono: SuperMonomial) -> int:
    w = 0
    for bit, gid in zip(mono.evens, gs.even_ids):
        if bit:
            w += gs.grades[gid]
    for e, gid in zip(mono.odds, gs.odd_ids):
        if e:
            w += e * gs.grades[gid]
    return w


def word_to_monomial(gs: GeneratorSystem, word) -> SuperMonomial:
    """Canonical (sorted, even-square-free) word -> monomial."""
    even_pos = gs.even_pos
    odd_pos = gs.odd_pos
    evens = [0] * len(even_pos)
    odds = [0] * len(odd_pos)
    for gid in word:
        pos = even_pos.get(gid)
        if pos is not None:
            evens[pos] += 1
        else:
            odds[odd_pos[gid]] += 1
    return SuperMonomial(tuple(evens), tuple(odds))


def normalize_word(gs: GeneratorSystem, word) -> tuple[int, SuperMonomial] | None:
    """Public word normalizer returning a monomial; None when the word is zero."""
    norm = _normalize_generator_word(gs, tuple(word))
    if norm is None:
        return None
    sign, sorted_word = norm
    return sign, word_to_monomial(gs, sorted_word)


class Chain:
    """A rational combination of monomials, homogeneous in degree and weight."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[SuperMonomial, Fraction] = {}
        if terms:
            for mono, c in dict(terms).items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = c

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, mono: SuperMonomial, c: Fraction) -> None:
        v = self.terms.get(mono, Fraction(0)) + c
        if v:
            self.terms[mono] = v
        else:
            self.terms.pop(mono, None)

    def __add__(self, other: "Chain") -> "Chain":
        out = Chain(self.terms)
        for mono, c in other.terms.items():
            out.add_term(mono, c)
        return out

    def scaled(self, c) -> "Chain":
        c = Fraction(c)
        if not c:
            return Chain()
        return Chain({m: v * c for m, v in self.terms.items()})

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __eq__(self, other):
        return isinstance(other, Chain) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Chain(0)"
        return "Chain(" + ", ".join(f"{c}*{m}" for m, c in sorted(self.terms.items())) + ")"


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------

def chain_dim(gs: GeneratorSystem, m: int, w: int) -> int:
    """dim of the weight-w degree-m chain space, by counting (no listing)."""
    if m < 0 or w < 0:
        return 0
    key = ("dim", m, w)
    cache = gs._chain_cache
    if key in cache:
        return cache[key]
    # DP over levels: even levels contribute binomial choices, odd levels
    # stars-and-bars, each adding (count, grade*count) to (degree, weight).
    states = {(0, 0): 1}
    for k, gids in gs.level_to_gens.items():
        grade = k - 1
        size = len(gids)
        nxt: dict[tuple[int, int], int] = {}
        for (dm, dw), ways in states.items():
            t = 0
            while dm + t <= m and dw + t * grade <= w:
                if grade % 2 == 0:
                    if t > size:
                        break
                    mult = comb(size, t)
                else:
                    mult = comb(size + t - 1, t)
                key2 = (dm + t, dw + t * grade)
                nxt[key2] = nxt.get(key2, 0) + ways * mult
                if grade == 0 and t == size:
                    break
                t += 1
        states = nxt
    result = states.get((m, w), 0)
    cache[key] = result
    return result


def chain_basis(gs: GeneratorSystem, m: int, w: int) -> list[SuperMonomial]:
    """All monomials of degree m and weight w, ordered by (even bits, odd exponents) lex."""
    if m < 0 or w < 0:
        return []
    key = ("basis", m, w)
    cache = gs._chain_cache
    if key in cache:
        return cache[key]
    even_grades = [gs.grades[g] for g in gs.even_ids]
    odd_grades = [gs.grades[g] for g in gs.odd_ids]
    out: list[SuperMonomial] = []
    evens = [0] * len(even_grades)
    odds = [0] * len(odd_grades)

    def fill_odds(pos: int, dm: int, dw: int) -> None:
        if pos == len(odd_grades):
            if dm == 0 and dw == 0:
                out.append(SuperMonomial(tuple(evens), tuple(odds)))
            return
        if dw < dm:  # every remaining letter has grade >= 1
            return
        g = odd_grades[pos]
        if pos == len(odd_grades) - 1:
            # last generator must absorb everything exactly
            if dw == dm * g:
                odds[pos] = dm
                out.append(SuperMonomial(tuple(evens), tuple(odds)))
                odds[pos] = 0
            return
        t = 0
        while t <= dm and t * g <= dw:
            odds[pos] = t
            fill_odds(pos + 1, dm - t, dw - t * g)
            t += 1
        odds[pos] = 0

    def fill_evens(pos: int, dm: int, dw: int) -> None:
        if dw < 0 or dm < 0:
            return
        if pos == len(even_grades):
            fill_odds(0, dm, dw)
            return
        g = even_grades[pos]
        fill_evens(pos + 1, dm, dw)
        if dm >= 1 and dw >= g:
            evens[pos] = 1
            fill_evens(pos + 1, dm - 1, dw - g)
            evens[pos] = 0

    fill_evens(0, m, w)
    out.sort()
    cache[key] = out
    return out


def support_degrees(gs: GeneratorSystem, w: int) -> list[int]:
    """Degrees m with a nonzero weight-w chain space (m <= w + dim always)."""
    return [m for m in range(0, w + gs.dim + 1) if chain_dim(gs, m, w)]


# ---------------------------------------------------------------------------
# Boundary operator.
# ---------------------------------------------------------------------------

def _boundary_terms(gs: GeneratorSystem, exps: tuple[int, ...]) -> dict[tuple[int, ...], object]:
    """Boundary of the monomial with exponent vector ``exps`` (evens + odds).

    Returns {target exponent vector: coefficient}; coefficients are int where
    the pair brackets are, and entries that cancel are left at 0.
    """
    n_even = len(gs.even_ids)
    start = []  # letters of the sorted word before each generator id
    total = 0
    for e in exps:
        start.append(total)
        total += e
    even_letters = start[n_even] if n_even < len(exps) else total
    present = [g for g, e in enumerate(exps) if e]
    cache = gs._pair_cache
    out: dict[tuple[int, ...], object] = {}
    for x, i in enumerate(present):
        ei = exps[i]
        si = start[i]
        for j in present[x:]:
            # sign exponent and slot of [Y_i, Y_j] at the first position pair
            if j == i:
                if ei < 2:
                    continue
                mult = ei * (ei - 1) // 2
                slot = sign_exp = si
            else:
                mult = ei * exps[j]
                slot = start[j] - 1
                # an odd Y_i passes the odd letters between it and Y_j
                sign_exp = slot if i >= n_even else si
            bracket = cache.get((i, j))
            if bracket is None:
                bracket = gs.pair_bracket(i, j)
            if not bracket:
                continue
            even_left = even_letters - (i < n_even) - (j < n_even)
            reduced = list(exps)
            reduced[i] -= 1
            reduced[j] -= 1
            for coeff, k in bracket:
                # move the bracket letter from the slot to its sorted place
                lo = start[k] - (i < k) - (j < k)
                if k < n_even:
                    if reduced[k]:
                        continue  # even letters square to zero
                    flips = slot - lo
                elif lo < slot:
                    flips = min(slot, even_left) - min(lo, even_left)
                else:
                    flips = min(lo, even_left) - min(slot, even_left)
                reduced[k] += 1
                target = tuple(reduced)
                reduced[k] -= 1
                value = coeff * mult if (sign_exp + flips) % 2 == 0 else -coeff * mult
                out[target] = out.get(target, 0) + value
    return out


def boundary_monomial(gs: GeneratorSystem, mono: SuperMonomial) -> Chain:
    """Boundary of one monomial: degree drops by 1, weight is preserved."""
    n_even = len(mono.evens)
    return Chain({SuperMonomial(t[:n_even], t[n_even:]): c
                  for t, c in _boundary_terms(gs, mono.evens + mono.odds).items()})


def boundary_matrix(gs: GeneratorSystem, m: int, w: int) -> RationalMatrix:
    """Matrix of the boundary from degree m to degree m-1 at weight w.

    Columns index the degree-m basis, rows the degree-(m-1) basis, both in
    chain_basis order.  Empty spaces give 0 x k / k x 0 matrices.
    """
    if m < 1:
        raise AlgebraError(f"boundary_matrix needs degree >= 1, got {m}")
    cols = chain_basis(gs, m, w)
    rows = chain_basis(gs, m - 1, w)
    matrix = RationalMatrix(len(rows), len(cols))
    if not cols or not rows:
        return matrix
    row_index = {mono.evens + mono.odds: r for r, mono in enumerate(rows)}
    entries = matrix.entries
    for c, mono in enumerate(cols):
        for target, coeff in _boundary_terms(gs, mono.evens + mono.odds).items():
            if coeff:
                entries[(row_index[target], c)] = Fraction(coeff)
    return matrix


# ---------------------------------------------------------------------------
# Pretty-printing in the notation of the printed tables.
# ---------------------------------------------------------------------------

def format_monomial(gs: GeneratorSystem, mono: SuperMonomial) -> str:
    """W^{1101} ^ U^{2,0,1} for dim <= 3; Z{1,2} ^ U{u1^2 u3} in general."""
    if gs.dim <= 3:
        bits = "".join(str(b) for b in mono.evens)
        exps = ",".join(str(e) for e in mono.odds)
        if not any(mono.evens) and not any(mono.odds):
            return "1"
        if not any(mono.odds):
            return f"W^{{{bits}}}"
        if not any(mono.evens):
            return f"U^{{{exps}}}"
        return f"W^{{{bits}}} ∧ U^{{{exps}}}"
    zpart = ",".join(str(i + 1) for i, b in enumerate(mono.evens) if b)
    upart = " ".join(
        (f"u{i + 1}^{e}" if e > 1 else f"u{i + 1}")
        for i, e in enumerate(mono.odds) if e)
    if not zpart and not upart:
        return "1"
    if not upart:
        return f"Z{{{zpart}}}"
    if not zpart:
        return f"U{{{upart}}}"
    return f"Z{{{zpart}}} ∧ U{{{upart}}}"
