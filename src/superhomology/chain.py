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

The brackets come from ``GeneratorSystem.int_brackets(w)``: an int table
{(i, j): ((D_w * c, k), ...)} of the nonzero pair brackets a weight-w
boundary can take, with D_w the lcm of their denominators (1 for an integral
algebra).  A pair missing from the table costs one dict lookup.  So the
terms are ints and ``boundary_rows`` assembles D_w times the boundary as int
row dicts, which is what the table eliminates; ``boundary_matrix`` is those
rows divided by D_w, the exact rational matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import NamedTuple

from .algebra import AlgebraError
from .exterior import GeneratorSystem
from .matrix import RationalMatrix


class SuperMonomial(NamedTuple):
    """Exponent vectors over the even-grade and odd-grade generators."""

    evens: tuple[int, ...]
    odds: tuple[int, ...]


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------

def _counts(gs: GeneratorSystem, w: int, graded: bool) -> dict[tuple[int, tuple[int, ...]], int]:
    """{(degree, torus weight): number of weight-w monomials}, by counting (no listing).

    A DP over groups of letters of one grade (and, when ``graded``, one
    torus weight, see ``GeneratorSystem.torus``): c letters of a group of
    size s add (c, grade * c, torus * c) to (degree, weight, torus weight)
    in C(s, c) ways for even grades and C(s + c - 1, c) for odd ones.
    Ungraded counts carry the empty torus weight ().
    """
    cache = gs._count_cache
    if (w, graded) in cache:
        return cache[w, graded]
    coords = gs.torus if graded else ()
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    for gid, grade in enumerate(gs.grades):
        group = (grade, tuple(coord[gid] for coord in coords))
        groups[group] = groups.get(group, 0) + 1
    states = {(0, 0, (0,) * len(coords)): 1}
    for (grade, torus), size in groups.items():
        nxt: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for (dm, dw, dt), ways in states.items():
            c = 0
            # even letters square to zero; odd ones have grade >= 1
            while dw + c * grade <= w and (grade % 2 or c <= size):
                mult = comb(size + c - 1, c) if grade % 2 else comb(size, c)
                key = (dm + c, dw + c * grade, tuple(a + c * b for a, b in zip(dt, torus)))
                nxt[key] = nxt.get(key, 0) + ways * mult
                c += 1
        states = nxt
    result = {(dm, dt): n for (dm, dw, dt), n in states.items() if dw == w}
    cache[w, graded] = result
    return result


def chain_dim(gs: GeneratorSystem, m: int, w: int) -> int:
    """dim of the weight-w degree-m chain space, by counting (no listing)."""
    if m < 0 or w < 0:
        return 0
    return _counts(gs, w, False).get((m, ()), 0)


def torus_pieces(gs: GeneratorSystem, w: int) -> dict[tuple[int, ...], dict[int, int]]:
    """{torus weight: {degree: dim}} of the pieces of the weight-w complex, by counting.

    The boundary keeps the torus weight, so each piece is a subcomplex.
    Without a grading there is one piece, keyed ().
    """
    pieces: dict[tuple[int, ...], dict[int, int]] = {}
    for (m, torus), n in sorted(_counts(gs, w, True).items()):
        pieces.setdefault(torus, {})[m] = n
    return pieces


def _odd_parts(grades: list[int], m: int, w: int) -> list[tuple[int, ...]]:
    """Exponent tuples over odd letters of these nondecreasing grades with degree m and weight w.

    Letters are placed one at a time; a partial tuple is kept only while the
    letters after it, with grades in [next grade, last grade], can still take
    up exactly the degree and weight left, and the last letter takes the rest.
    """
    if not grades:
        return [()] if m == w == 0 else []
    *head, last = grades
    parts = [((), m, w)]
    for pos, g in enumerate(head):
        low = grades[pos + 1]
        parts = [(o + (t,), dm - t, dw - t * g) for o, dm, dw in parts
                 for t in range(min(dm, dw // g) + 1)
                 if low * (dm - t) <= dw - t * g <= last * (dm - t)]
    return [o + (dm,) for o, dm, dw in parts if dw == dm * last]


def chain_basis(gs: GeneratorSystem, m: int, w: int) -> list[SuperMonomial]:
    """All monomials of degree m and weight w, ordered by (even bits, odd exponents) lex."""
    if m < 0 or w < 0:
        return []
    n_even = len(gs.even_ids)
    # a letter of grade above w never occurs, and grades rise with the id
    # within each parity, so each part is listed over a prefix of its letters
    evens = [g for g in gs.grades[:n_even] if g <= w]
    odds = [g for g in gs.grades[n_even:] if g <= w]
    even_pad = (0,) * (n_even - len(evens))
    odd_pad = (0,) * (len(gs.odd_ids) - len(odds))
    even_parts = [((), m, w)]  # (exponents so far, degree and weight left)
    for g in evens:
        even_parts = [(e + (t,), dm - t, dw - t * g) for e, dm, dw in even_parts
                      for t in ((0, 1) if dm and dw >= g else (0,))]
    # the odd parts depend only on what the even part leaves
    by_rest: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for e, dm, dw in even_parts:
        by_rest.setdefault((dm, dw), []).append(e)
    out: list[SuperMonomial] = []
    for (dm, dw), even_exps in by_rest.items():
        odd_exps = [o + odd_pad for o in _odd_parts(odds, dm, dw)]
        if odd_exps:
            for e in even_exps:
                e += even_pad
                out += [SuperMonomial(e, o) for o in odd_exps]
    out.sort()
    return out


def zero_piece_basis(gs: GeneratorSystem, m: int, w: int) -> list[SuperMonomial]:
    """The monomials of ``chain_basis(gs, m, w)`` with torus weight 0, in its order."""
    return [mono for mono in chain_basis(gs, m, w)
            if not any(sum(map(mul, mono.evens + mono.odds, coord)) for coord in gs.torus)]


def support_degrees(gs: GeneratorSystem, w: int) -> list[int]:
    """Degrees m with a nonzero weight-w chain space (m <= w + dim always)."""
    return [m for m in range(0, w + gs.dim + 1) if chain_dim(gs, m, w)]


# ---------------------------------------------------------------------------
# Boundary operator.
# ---------------------------------------------------------------------------

def _boundary_terms(brackets: dict[tuple[int, int], tuple[tuple[int, int], ...]],
                    n_even: int, exps: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """D_w times the boundary of the monomial with exponent vector ``exps`` (evens + odds).

    ``brackets`` is ``GeneratorSystem.int_brackets(w)[1]`` for the weight w
    of the monomial, and ``n_even`` the number of even generators.  Returns
    {target exponent vector: int coefficient}; entries that cancel are left
    at 0.
    """
    start = []  # letters of the sorted word before each generator id
    total = 0
    for e in exps:
        start.append(total)
        total += e
    even_letters = start[n_even] if n_even < len(exps) else total
    present = [g for g, e in enumerate(exps) if e]
    out: dict[tuple[int, ...], int] = {}
    for x, i in enumerate(present):
        ei = exps[i]
        si = start[i]
        for j in present[x:]:
            bracket = brackets.get((i, j))
            if bracket is None:
                continue
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


def boundary_rows(gs: GeneratorSystem, w: int, cols: list[SuperMonomial],
                  rows: list[SuperMonomial]) -> list[dict[int, int]]:
    """D_w times the boundary from the weight-w ``cols`` to ``rows``, as int rows.

    Row r is {column index: entry}, zeros not stored, one row per monomial
    of ``rows``; D_w is ``gs.int_brackets(w)[0]``.
    """
    out: list[dict[int, int]] = [{} for _ in rows]
    if not cols or not rows:
        return out
    brackets = gs.int_brackets(w)[1]
    n_even = len(gs.even_ids)
    row_index = {mono.evens + mono.odds: r for r, mono in enumerate(rows)}
    for c, mono in enumerate(cols):
        for target, coeff in _boundary_terms(brackets, n_even, mono.evens + mono.odds).items():
            if coeff:
                out[row_index[target]][c] = coeff
    return out


def boundary_matrix(gs: GeneratorSystem, m: int, w: int) -> RationalMatrix:
    """Matrix of the boundary from degree m to degree m-1 at weight w.

    Columns index the degree-m basis, rows the degree-(m-1) basis, both in
    chain_basis order.  Empty spaces give 0 x k / k x 0 matrices.  The
    entries are ``boundary_rows`` divided by D_w, so ints stay ints when D_w
    is 1.
    """
    if m < 1:
        raise AlgebraError(f"boundary_matrix needs degree >= 1, got {m}")
    cols, rows = chain_basis(gs, m, w), chain_basis(gs, m - 1, w)
    matrix = RationalMatrix(len(rows), len(cols))
    scale = gs.int_brackets(w)[0]
    entries = matrix.entries
    for r, row in enumerate(boundary_rows(gs, w, cols, rows)):
        for c, v in row.items():
            entries[r, c] = v if scale == 1 else Fraction(v, scale)
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
