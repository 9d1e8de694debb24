"""Weight-graded super chain spaces and the boundary operator.

A chain monomial is a word of generators in canonical order: even-grade
generators appear with exponent 0 or 1, odd-grade generators with arbitrary
natural exponents; it is held as one exponent tuple over generator ids (see
below), and bases list these tuples in lex order.  Degree is the exponent
sum, weight the grade-weighted sum; the boundary operator preserves weight
and lowers degree by 1, so each weight gives a finite complex.

Which monomials exist is recorded in one suffix table per generator id,
built from the last id to the first: table i counts the ways the ids >= i
reach each (degree, weight, torus weight) up to a weight bound, the torus
weight being empty without a grading and ending with the number of split
letters where there are any (``GeneratorSystem.grading``).  The counts are
read off table 0.  A basis walks the ids in order and keeps an
exponent only if the next table reaches what is left, so the walk meets no
dead end, comes out in lex order, and lists the torus-weight-0 piece
without touching another monomial.  The tables of each coordinate set, and
table 0 by weight (which ``torus_pieces`` reads), are cached on the
generator system and serve every weight up to their bound.

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

So the sign is taken at the first occurrences.  Let s(x) be the number of
letters before the first Y_x: a = s(i) + 1, and Y_k of [Y_i, Y_j] lands at
slot s(j) - 1 of the word without Y_a (s(i) when i = j).  A swap of grades
x, y gives -(-1)^{xy}, so sorting Y_k back costs -1 per letter crossed when
Y_k is even, per even letter crossed when it is odd.  Grades add under the
bracket and ids sort evens first, so three cases remain:

* A. Y_i even, Y_j odd: Y_k is odd, Y_i passes no sign, and Y_k moves
  within the odd block for free.  Sign (-1)^{s(i)}.
* B. Y_i, Y_j odd (i = j included): Y_k is even, so the term is zero if Y_k
  is in the word.  a - 1 plus the letters Y_i passes is the slot, and Y_k
  crosses slot - s(k) letters back: sign (-1)^{s(k)}.
* C. Y_i, Y_j even: Y_k is even, so the term is zero if Y_k is left once
  Y_i, Y_j are removed.  Y_i passes no sign and Y_k crosses only even
  letters: sign (-1)^{s(i) + s(j) - 1 - s(k) + [i < k] + [j < k]}.

The brackets come from ``GeneratorSystem.int_brackets(w)``: an int table
{(i, j): ((D_w * c, k), ...)} of the nonzero pair brackets a weight-w
boundary can take, with D_w the lcm of their denominators (1 for an integral
algebra).  So the terms are ints, and ``boundary_columns`` assembles D_w
times the boundary as int column dicts, one per chosen column monomial,
which is what the table eliminates; ``boundary_matrix`` is every column
divided by D_w, the exact rational matrix.

A cell is assembled part-major: its columns are grouped by even part
e[:n_even], the low bits of their codes (below), and each entry of the
bracket table (a pair with a zero bracket is never visited) builds its
signed terms once per part.  Every s(x) the three cases read is at an even
id x, and even ids come first, so s(x) counts even letters only and is
fixed by the even part, as are the skips of B and C (Y_k even) and C's
multiplicity, 1.  A pair whose even letter the part lacks is passed over,
and each column of the part adds its odd multiplicity (e_j in A; e_i e_j or
C(e_i, 2) in B), read off its odd tail, times each term.

A weight-w monomial is coded as one int in an odd-major mixed radix
(``_digits``): one binary digit per even id, the least significant, id 0
leading, and above them a digit of base w // grade_x + 1 per odd id x, the
first leading.  Every exponent of a weight-w column or target fits its
digit, so the code is exact (19 to 26 bits, one CPython digit, on the
benchmark tables), and int order of the codes is odd part, then even part,
each in lex order: the numbering ``homology.betti_row`` holds.  The lister
walks each degree in lex order and gives each monomial as its odd tail and
its code, the even part's code plus the tail's; the tails and their codes
are memoised for every degree of the weight, so no monomial is coded twice
or built as a tuple.  A target is then code + P_k - P_i - P_j, P_x the
place value of id x: one int addition and one int-keyed lookup in the row
numbering; a target the numbering does not list raises ``KeyError``.  An
entry that cancels to zero is deleted where it cancels, so no column holds
a zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub

from .algebra import AlgebraError
from .exterior import GeneratorSystem
from .ranklin import RationalMatrix


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------

def _suffix_tables(grades: tuple[int, ...], coords: tuple, w: int) -> list[dict[tuple, int]]:
    """The suffix tables up to weight w; an id of grade above w shares the next id's table."""
    tables = [{(0, 0) + (0,) * len(coords): 1}]
    for i in reversed(range(len(grades))):
        grade, below = grades[i], tables[-1]
        vec, table = (1, grade) + tuple(coord[i] for coord in coords), {}
        for key, ways in below.items() if grade <= w else ():
            # even letters square to zero; odd ones have grade >= 1
            for _ in range(w + 1 if grade % 2 else 2):
                if key[1] > w:
                    break
                table[key] = table.get(key, 0) + ways
                key = tuple(map(add, key, vec))
        tables.append(table if grade <= w else below)
    return tables[::-1]


def _tables(gs: GeneratorSystem, coords: tuple, w: int) -> tuple:
    """The cached (weight bound >= w, suffix tables, exponent choices, view) of ``coords``.

    The view is table 0 by weight, {w: {torus weight: {degree: count}}}.  A
    larger w rebuilds both at least twice as far, so rows in order rebuild
    them O(log w) times.  That is what lets the CLI's size check walk the
    cells in weight order and refuse a huge ``--wmax`` at the first cell too
    large, having built the tables only to about twice that cell's weight.
    """
    entry = gs._count_cache.get(coords)
    if entry is None or entry[0] < w:
        w = max(w, 2 * entry[0]) if entry else w
        tables, view = _suffix_tables(gs.grades, coords, w), {}
        for key, n in tables[0].items():  # key = (degree, weight, *torus weight)
            view.setdefault(key[1], {}).setdefault(key[2:], {})[key[0]] = n
        entry = gs._count_cache[coords] = (w, tables, {}, view)
    return entry


def count_up_to(gs: GeneratorSystem, w_max: int) -> None:
    """Build the table of each coordinate set once for every weight up to w_max."""
    for coords in {(), gs.grading}:
        _tables(gs, coords, w_max)


def max_weight(gs: GeneratorSystem, m: int) -> int:
    """The largest weight of a degree-m monomial, from the grades (-1 when m < 0, 0 if none).

    Even letters appear at most once and odd ones repeat, so the heaviest
    monomial takes the even letters of grade above the top odd grade, largest
    first, and fills the rest with the top odd grade.
    """
    if m < 0:
        return -1
    top = gs.grades[gs.odd_ids[-1]] if gs.odd_ids else 0
    weight = 0
    for i in reversed(gs.even_ids):  # grades rise with the id within each parity
        if not m or gs.grades[i] <= top:
            break
        weight += gs.grades[i]
        m -= 1
    return weight + m * top


def chain_dim(gs: GeneratorSystem, m: int, w: int) -> int:
    """dim of the weight-w degree-m chain space, by counting (no listing).

    A cell with w > ``max_weight(gs, m)`` is empty, and is answered before
    any table is built to w.
    """
    return _tables(gs, (), w)[1][0].get((m, w), 0) if 0 <= w <= max_weight(gs, m) else 0


def torus_pieces(gs: GeneratorSystem, w: int) -> dict[tuple[int, ...], dict[int, int]]:
    """{torus weight: {degree: dim}} of the pieces of the weight-w complex, by counting.

    The boundary keeps the torus weight, so each piece is a subcomplex.
    Without a grading there is one piece, keyed ().  With split letters a key
    ends with their number (``GeneratorSystem.grading``).  Pieces are fresh dicts.
    """
    return {key: dict(dims) for key, dims in _tables(gs, gs.grading, w)[3].get(w, {}).items()}


def _walk(gs: GeneratorSystem, coords: tuple, entry: tuple, ids: list[int], parts: list) -> list:
    """Extend each (exponents so far, state left) over ``ids``; each state's choices are kept."""
    _, tables, choices, _ = entry
    for i in ids:
        known, below = choices.setdefault(i, {}), tables[i + 1]
        vec = (1, gs.grades[i]) + tuple(coord[i] for coord in coords)
        for state in {state for _, state in parts} - known.keys():
            known[state], left = [], state
            for t in range(state[0] + 1 if vec[1] % 2 else 2):
                if left in below:
                    known[state].append((t, left))
                left = tuple(map(sub, left, vec))
        parts = [(e + (t,), left) for e, state in parts for t, left in known[state]]
    return parts


def _digits(gs: GeneratorSystem, w: int) -> list[int]:
    """The place value of each id's digit in a weight-w code (see the module docstring)."""
    values, place = [0] * gs.count, 1
    for x in reversed(gs.even_ids):
        values[x], place = place, 2 * place
    for x in reversed(gs.odd_ids):
        values[x], place = place, (w // gs.grades[x] + 1) * place
    return values


def _basis(gs: GeneratorSystem, coords: tuple, target: tuple[int, ...],
           tails: dict) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """The monomials reaching ``target`` = (degree, weight, *torus weight), in lex order, as
    the even part, the odd tail and the code of each.

    Grades rise with the id within each parity, so the letters of grade above
    the weight end each part and are padded with zeros, not walked.  The odd
    tails of each state the even part leaves, with their codes, are listed
    once into ``tails``, which serves every target of one weight.
    """
    m, w = target[:2]
    evens, odd, codes = [], [], []
    # a far cell is empty (see chain_dim), and is answered before a table is built to w
    if not 0 <= w <= max_weight(gs, m) or target not in (entry := _tables(gs, coords, w))[1][0]:
        return evens, odd, codes
    walked_evens = [i for i in gs.even_ids if gs.grades[i] <= w]
    odds = [i for i in gs.odd_ids if gs.grades[i] <= w]
    even_pad = (0,) * (len(gs.even_ids) - len(walked_evens))
    odd_pad = (0,) * (len(gs.odd_ids) - len(odds))
    digits = _digits(gs, w)
    odd_digits = digits[len(gs.even_ids):]
    for e, left in _walk(gs, coords, entry, walked_evens, [((), target)]):
        if left not in tails:
            walked = [o for o, _ in _walk(gs, coords, entry, odds, [((), left)])]
            tails[left] = ([o + odd_pad for o in walked],
                           [sum(map(mul, o, odd_digits)) for o in walked])
        part_odd, part_codes = tails[left]
        evens += [e + even_pad] * len(part_odd)
        odd += part_odd
        codes += map(sum(map(mul, e, digits)).__add__, part_codes)
    return evens, odd, codes


def chain_basis(gs: GeneratorSystem, m: int, w: int) -> list[tuple[int, ...]]:
    """All monomials of degree m and weight w, as exponent tuples over ids in lex order."""
    evens, odd, _ = _basis(gs, (), (m, w), {})
    return list(map(add, evens, odd))


def numbered_bases(gs: GeneratorSystem, w: int,
                   degrees: list[int]) -> dict[int, tuple[list[tuple[int, ...]], list[int]]]:
    """{m: (odd tails, codes)} of the torus-weight-0 piece of each degree at weight w, less
    every monomial with a split letter (``torus_pieces``).

    Each piece is in lex order, listed with one tail memo for every degree.
    Int order of the codes is the numbering ``homology.betti_row`` holds:
    odd letters first, then even ones.
    """
    tails, zero = {}, (0,) * len(gs.grading)
    return {m: _basis(gs, gs.grading, (m, w) + zero, tails)[1:] for m in degrees}


def support_degrees(gs: GeneratorSystem, w: int) -> list[int]:
    """Degrees m with a nonzero weight-w chain space (m <= w + dim always)."""
    return [m for m in range(0, w + gs.dim + 1) if chain_dim(gs, m, w)]


# ---------------------------------------------------------------------------
# Boundary operator.
# ---------------------------------------------------------------------------

def _boundary_terms(brackets: dict[tuple[int, int], tuple[tuple[int, int], ...]], n_even: int,
                    digits: list[int], tails: list[tuple[int, ...]], codes: list[int],
                    row_index: dict[int, int]) -> list[dict[int, int]]:
    """D_w times the boundary of each column, in any order, as {row: nonzero int}.

    ``brackets`` is ``GeneratorSystem.int_brackets(w)[1]`` for the weight w
    of the columns, ``n_even`` the number of even generators, ``digits`` the
    place values of the weight's code (``_digits``), ``tails`` the odd parts
    of the columns, ``codes`` their codes and ``row_index`` {code: row}.
    Each pair of the table builds its signed terms (case A, B or C of the
    module docstring) once per even part, the low n_even bits of a code, and
    gives them to each column of the part, times its position pairs.  A
    target code missing from ``row_index`` raises ``KeyError``.
    """
    out: list[dict[int, int]] = [{} for _ in codes]
    parts: dict[int, list[int]] = {}
    mask = (1 << n_even) - 1
    for c, code in enumerate(codes):
        parts.setdefault(code & mask, []).append(c)
    pairs = [(i, j, i - n_even, j - n_even,
              [(coeff, k, digits[k] - digits[i] - digits[j]) for coeff, k in bracket])
             for (i, j), bracket in brackets.items()]
    for key, members in parts.items():
        part = [key >> x & 1 for x in reversed(range(n_even))]  # id 0 is the leading bit
        start = list(accumulate(part, initial=0))  # s(x) at each even id x: even letters only
        for i, j, oi, oj, bracket in pairs:
            if i < n_even:
                if not part[i] or j < n_even and not part[j]:
                    continue  # the part lacks an even letter of the pair
                si = start[i]
            terms = []
            for coeff, k, shift in bracket:
                if j >= n_even > i:
                    s = si  # A: odd bracket letter
                elif part[k] > (k == i) + (k == j):  # Y_k is left once Y_i, Y_j are removed
                    continue  # even letters square to zero
                elif i >= n_even:
                    s = start[k]  # B
                else:
                    s = si + start[j] - 1 - start[k] + (i < k) + (j < k)  # C
                terms.append((-coeff if s % 2 else coeff, shift))
            for c in members if terms else ():
                odd = tails[c]  # the position pairs: 1 in C, e_j in A, e_i e_j or C(e_i, 2) in B
                ej = odd[oj] if oj >= 0 else 1
                mult = ej if oi < 0 else ej * (ej - 1) // 2 if oi == oj else odd[oi] * ej
                if not mult:
                    continue  # an odd letter of the pair is missing, or alone with itself
                column, code = out[c], codes[c]
                for coeff, shift in terms:
                    r = row_index[code + shift]
                    v = column.get(r, 0) + coeff * mult
                    if v:
                        column[r] = v
                    else:
                        del column[r]
    return out


def boundary_columns(gs: GeneratorSystem, w: int, tails: list[tuple[int, ...]],
                     codes: list[int], rows: dict[int, int]) -> list[dict[int, int]]:
    """D_w times the boundary of each weight-w monomial, given by odd tail and code, as int
    columns.

    Column c is {``rows``[code of a target]: entry}, zeros not stored; D_w
    is ``gs.int_brackets(w)[0]``.  The caller picks the columns and numbers
    the rows: ``boundary_matrix`` takes every column, the table only those
    the cell above does not prove dependent.  Nothing is assembled into an
    empty ``rows``.
    """
    if not rows or not codes:
        return [{} for _ in codes]
    return _boundary_terms(gs.int_brackets(w)[1], len(gs.even_ids), _digits(gs, w), tails,
                           codes, rows)


def boundary_matrix(gs: GeneratorSystem, m: int, w: int) -> RationalMatrix:
    """Matrix of the boundary from degree m to degree m-1 at weight w.

    Columns index the degree-m basis, rows the degree-(m-1) basis, both in
    chain_basis order.  Empty spaces give 0 x k / k x 0 matrices.  The
    entries are ``boundary_columns`` of every column divided by D_w, so ints
    stay ints when D_w is 1.
    """
    if m < 1:
        raise AlgebraError(f"boundary_matrix needs degree >= 1, got {m}")
    tails = {}
    _, cols, codes = _basis(gs, (), (m, w), tails)
    rows = _basis(gs, (), (m - 1, w), tails)[2]
    matrix = RationalMatrix(len(rows), len(cols))
    scale = gs.int_brackets(w)[0]
    entries = matrix.entries
    index = dict(zip(rows, range(len(rows))))
    for c, column in enumerate(boundary_columns(gs, w, cols, codes, index)):
        for r, v in column.items():
            entries[r, c] = v if scale == 1 else Fraction(v, scale)
    return matrix


# ---------------------------------------------------------------------------
# Pretty-printing in the notation of the printed tables.
# ---------------------------------------------------------------------------

def format_monomial(gs: GeneratorSystem, mono: tuple[int, ...]) -> str:
    """W^{1101} ^ U^{2,0,1} for dim <= 3; Z{1,2} ^ U{u1^2 u3} in general."""
    n_even = len(gs.even_ids)
    evens, odds = mono[:n_even], mono[n_even:]
    if gs.dim <= 3:
        bits = "".join(str(b) for b in evens)
        exps = ",".join(str(e) for e in odds)
        if not any(evens) and not any(odds):
            return "1"
        if not any(odds):
            return f"W^{{{bits}}}"
        if not any(evens):
            return f"U^{{{exps}}}"
        return f"W^{{{bits}}} ∧ U^{{{exps}}}"
    zpart = ",".join(str(i + 1) for i, b in enumerate(evens) if b)
    upart = " ".join(
        (f"u{i + 1}^{e}" if e > 1 else f"u{i + 1}")
        for i, e in enumerate(odds) if e)
    if not zpart and not upart:
        return "1"
    if not upart:
        return f"Z{{{zpart}}}"
    if not zpart:
        return f"U{{{upart}}}"
    return f"Z{{{zpart}}} ∧ U{{{upart}}}"
