"""Weight-graded super chain spaces and the boundary operator.

A chain monomial is a word of generators in canonical order: even-grade
generators appear with exponent 0 or 1, odd-grade generators with arbitrary
natural exponents; it is held as one exponent tuple over generator ids (see
below), and bases list these tuples in lex order.  Degree is the exponent
sum, weight the grade-weighted sum; the boundary operator preserves weight
and lowers degree by 1, so each weight gives a finite complex.

Which monomials exist is recorded in one suffix table per generator id,
built from the last id to the first: table i counts the ways the ids >= i
reach each (degree, weight, torus weight) up to a weight bound W, the torus
weight being empty without a grading and ending with the number of split
letters where there are any (``GeneratorSystem.grading``): 0, as the graded
tables leave those letters out (each shares the next id's table), while the
plain table counts whole cells.  A key is one packed int (``_packing``), as
a monomial's code is: the degree, the weight in base W + 1, then each torus
coordinate plus an offset of 2 c (W + n), c its largest |entry| and n the
number of ids, in base twice the offset plus one.  No state of a count or a
walk holds a coordinate past its offset, and a step is taken only while the
degree and the weight left stay >= 0, so no digit ever borrows from the
next one, and one int addition steps a key by a letter.  The counts are
read off table 0, decoded once per build into a view by weight, which
``torus_pieces`` and ``chain_dim`` read.  The lister walks the even ids
once per weight, from the target of every degree at once, then the odd ids
once, from every state that walk leaves, and keeps an exponent only if the
next table reaches what is left: the walk meets no dead end, comes out in
lex order, and lists one piece (of torus weight 0 unless another is asked
for: its start holds that weight) without touching another monomial.  The
tables of each coordinate set are cached on the generator system for every
weight up to W.

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
digit, so the code is exact (17 to 26 bits, one CPython digit, on the
benchmark tables), and int order of the codes is odd part, then even part,
each in lex order: the numbering ``homology.betti_row`` holds.  The lister
gives each monomial as its odd tail and its code, the even part's code plus
the tail's; each tail is listed and coded once for every degree of the
weight, so no monomial is coded twice or built as a tuple.  A target is
then code + P_k - P_i - P_j, P_x the place value of id x: one int addition
and one int-keyed lookup in the row numbering; a target the numbering does
not list raises ``KeyError``.  An entry that cancels to zero is deleted
where it cancels, so no column holds a zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

from .algebra import AlgebraError
from .exterior import GeneratorSystem
from .ranklin import RationalMatrix


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------

def _packing(grades: tuple[int, ...], coords: tuple, w: int) -> tuple[list, list, list]:
    """(the place and the offset of each digit: the degree, the weight, then each torus
    coordinate; the step of each id) of the packed keys up to weight w (module docstring)."""
    places, offsets, torus = [1], [], [0] * len(grades)
    for coord in reversed(coords):
        offsets.insert(0, 2 * max(map(abs, coord)) * (w + len(grades)))
        torus = [s + c * places[0] for s, c in zip(torus, coord)]
        places.insert(0, (2 * offsets[0] + 1) * places[0])
    places.insert(0, (w + 1) * places[0])
    return places, [0, 0] + offsets, [places[0] + g * places[1] + s for g, s in zip(grades, torus)]


def _suffix_tables(grades: tuple[int, ...], coords: tuple, w: int) -> list[dict[int, int]]:
    """The suffix tables up to weight w; an id of grade above w shares the next id's table."""
    places, offsets, steps = _packing(grades, coords, w)
    tables = [{sum(map(mul, places, offsets)): 1}]
    for grade, step in zip(reversed(grades), reversed(steps)):
        below, table = tables[-1], {}
        for key, ways in below.items() if grade <= w else ():
            room = w - key % places[0] // places[1]  # the weight left
            # even letters square to zero; odd ones have grade >= 1
            for _ in range(room // grade + 1 if grade % 2 else 1 + (room >= grade)):
                table[key] = table.get(key, 0) + ways
                key += step
        tables.append(table if grade <= w else below)
    return tables[::-1]


def _tables(gs: GeneratorSystem, coords: tuple, w: int) -> tuple:
    """The cached (weight bound >= w, suffix tables, exponent choices, view, packing) of
    ``coords``: the view is table 0 by weight, {w: {torus weight: {degree: count}}}.

    A larger w rebuilds them at least twice as far, so rows in order rebuild
    them O(log w) times.  That is what lets the CLI's size check walk the
    cells in weight order and refuse a huge ``--wmax`` at the first cell too
    large, having built the tables only to about twice that cell's weight.
    """
    entry = gs._count_cache.get(coords)
    if entry is None or entry[0] < w:
        w = max(w, 2 * entry[0]) if entry else w
        # the graded tables leave out the split letters, the first ids, as if of grade above w
        c = sum(gs.split) if coords == gs.grading else 0
        tables, view = _suffix_tables((w + 1,) * c + gs.grades[c:], coords, w), {}
        places, offsets, _ = packing = _packing(gs.grades, coords, w)
        for key, n in tables[0].items():
            m, rest = divmod(key, places[0])
            view.setdefault(rest // places[1], {}).setdefault(rest % places[1], {})[m] = n
        for weight, pieces in view.items():  # each torus coordinate less its offset
            view[weight] = {tuple(t // p % (q // p) - o for p, q, o in zip(
                places[2:], places[1:], offsets[2:])): dims for t, dims in pieces.items()}
        entry = gs._count_cache[coords] = (w, tables, {}, view, packing)
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
    # grades rise with the id within each parity
    heavy = [g for g in (gs.grades[i] for i in reversed(gs.even_ids)) if g > top][:m]
    return sum(heavy) + (m - len(heavy)) * top


def chain_dim(gs: GeneratorSystem, m: int, w: int) -> int:
    """dim of the weight-w degree-m chain space, by counting (no listing).

    A cell with w > ``max_weight(gs, m)`` is empty, and is answered before
    any table is built to w.
    """
    view = _tables(gs, (), w)[3] if 0 <= w <= max_weight(gs, m) else {}
    return view.get(w, {}).get((), {}).get(m, 0)


def torus_pieces(gs: GeneratorSystem, w: int) -> dict[tuple[int, ...], dict[int, int]]:
    """{torus weight: {degree: dim}} of the pieces of the weight-w complex, by counting.

    The boundary keeps the torus weight, so each piece is a subcomplex.
    Without a grading there is one piece, keyed ().  With split letters the
    pieces hold none of them, and a key ends with 0, their number
    (``GeneratorSystem.grading``).  Pieces are fresh dicts.
    """
    return {key: dict(dims) for key, dims in _tables(gs, gs.grading, w)[3].get(w, {}).items()}


def _walk(gs: GeneratorSystem, entry: tuple, ids: list[int], parts: list) -> list:
    """Extend each (exponents so far, packed state left) over ``ids``; each state's choices are
    kept.  A step is taken only while the degree and the weight left stay >= 0."""
    _, tables, choices, _, ((degree_place, weight_place, *_), _, steps) = entry
    for i in ids:
        known, below, step, grade = choices.setdefault(i, {}), tables[i + 1], steps[i], gs.grades[i]
        for state in {state for _, state in parts} - known.keys():
            m, room = state // degree_place, state % degree_place // weight_place
            known[state] = [(t, left) for t in range(
                min(m, room // grade) + 1 if grade % 2 else 1 + (m > 0 and room >= grade))
                if (left := state - t * step) in below]
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


def _walks(gs: GeneratorSystem, coords: tuple, w: int, degrees: list[int],
           piece: tuple = ()) -> tuple[list, dict]:
    """The weight-w monomials of torus weight ``piece`` over ``coords`` (0 where it is
    shorter) in each degree, in lex order, in one walk over the even ids and one over the
    odd ids (see the module docstring): ([((m, *even part), state left)], {state left: [odd
    tail]}).  The ids of grade above w are not walked; the odd tails are padded with zeros
    for them."""
    # a far cell is empty (see chain_dim), and is answered before a table is built to w
    degrees = [m for m in degrees if 0 <= w <= max_weight(gs, m)]
    if not degrees:
        return [], {}
    entry = _tables(gs, coords, w)
    places, offsets, _ = entry[4]
    # the target of degree 0: each torus digit holds its offset plus the piece's weight
    zero = w * places[1] + sum(map(mul, places, offsets)) + sum(map(mul, places[2:], piece))
    starts = [((m,), key) for m in degrees if (key := m * places[0] + zero) in entry[1][0]]
    evens = _walk(gs, entry, [i for i in gs.even_ids if gs.grades[i] <= w], starts)
    odds = [i for i in gs.odd_ids if gs.grades[i] <= w]
    pad, tails = (0,) * (len(gs.odd_ids) - len(odds)), {}
    for o, _ in _walk(gs, entry, odds, [((left,), left) for left in dict.fromkeys(
            left for _, left in evens)]):
        tails.setdefault(o[0], []).append(o[1:] + pad)
    return evens, tails


def chain_basis(gs: GeneratorSystem, m: int, w: int) -> list[tuple[int, ...]]:
    """All monomials of degree m and weight w, as exponent tuples over ids in lex order."""
    evens, tails = _walks(gs, (), w, [m])
    pad = (0,) * (len(gs.even_ids) + 1 - len(evens[0][0])) if evens else ()
    return [e[1:] + pad + o for e, left in evens for o in tails[left]]


def numbered_bases(gs: GeneratorSystem, w: int, degrees: list[int], coords: tuple | None = None,
                   piece: tuple = (),
                   halves: dict | None = None) -> dict[int, tuple[list, list[int]]]:
    """{m: (odd tails, codes)} of the weight-w monomials of torus weight ``piece`` (0 by
    default) over ``coords`` in each degree, each in lex order: by default a piece of
    ``torus_pieces``, with no split letter; with ``coords = ()`` the whole cell.  Each tail
    is coded once for every degree.  Int order of the codes is the numbering
    ``homology.betti_row`` holds: odd letters first, then even ones.

    Given ``halves``, a dict, on a system with a mirror (``GeneratorSystem.mirror``), only
    the monomials of mirror weight >= 0 are listed, and ``halves`` receives {m: (the set of
    its weight-0 codes, how many monomials of weight < 0 it left out)}.  The tails of each
    state the even walk leaves are weighed once, and filtered once for each weight of an
    even part that reaches the state."""
    evens, tails = _walks(gs, gs.grading if coords is None else coords, w, degrees, piece)
    digits, n_even = _digits(gs, w), len(gs.even_ids)
    even_digits, odd_digits = [0] + digits[:n_even], digits[n_even:]  # the start's digit is 0
    codes = {left: [sum(map(mul, o, odd_digits)) for o in part] for left, part in tails.items()}
    out = {m: ([], []) for m in degrees}
    if halves is None:
        for e, left in evens:
            part_tails, part_codes = out[e[0]]
            part_tails += tails[left]
            part_codes += map(sum(map(mul, e, even_digits)).__add__, codes[left])
        return out
    even_weights = [0] + [gs.mirror[x] for x in gs.even_ids]
    odd_weights = [gs.mirror[x] for x in gs.odd_ids]
    weighed = {left: [sum(map(mul, o, odd_weights)) for o in part] for left, part in tails.items()}
    kept: dict[tuple[int, int], tuple] = {}  # (state, even weight) -> its half of the tails
    zeros, below = {m: set() for m in degrees}, dict.fromkeys(degrees, 0)
    for e, left in evens:
        if (key := (left, -sum(map(mul, e, even_weights)))) not in kept:
            picked = [p for p, t in enumerate(weighed[left]) if t >= key[1]]
            kept[key] = ([tails[left][p] for p in picked], [codes[left][p] for p in picked],
                         [codes[left][p] for p in picked if weighed[left][p] == key[1]],
                         len(tails[left]) - len(picked))
        half_tails, half_codes, zero_codes, left_out = kept[key]
        part_tails, part_codes = out[e[0]]
        part_tails += half_tails
        shift = sum(map(mul, e, even_digits)).__add__
        part_codes += map(shift, half_codes)
        zeros[e[0]].update(map(shift, zero_codes))
        below[e[0]] += left_out
    halves.update((m, (zeros[m], below[m])) for m in degrees)
    return out


def support_dims(gs: GeneratorSystem, w: int) -> dict[int, int]:
    """{m: dim} of the nonzero weight-w chain spaces in degree order, read off the count
    view once (no listing); empty, before any table is built to w, past ``max_weight``."""
    if not 0 <= w <= max_weight(gs, w + gs.dim):  # no degree exceeds w + dim
        return {}
    return dict(sorted(_tables(gs, (), w)[3].get(w, {}).get((), {}).items()))


def support_degrees(gs: GeneratorSystem, w: int) -> list[int]:
    """Degrees m with a nonzero weight-w chain space (m <= w + dim always)."""
    return list(support_dims(gs, w))


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
    empty ``rows``.  No column may hold a split letter, which no pair brackets.
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
    if gs.split:  # no pair of its int_brackets holds a split letter
        raise AlgebraError("a system with split letters brackets none: use the given system")
    (cols, codes), (_, rows) = numbered_bases(gs, w, [m, m - 1], ()).values()
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
        parts = ([f"W^{{{''.join(map(str, evens))}}}"] * any(evens)
                 + [f"U^{{{','.join(map(str, odds))}}}"] * any(odds))
    else:
        zpart = ",".join(str(i + 1) for i, b in enumerate(evens) if b)
        upart = " ".join(f"u{i + 1}^{e}" if e > 1 else f"u{i + 1}" for i, e in enumerate(odds) if e)
        parts = [f"Z{{{zpart}}}"] * bool(zpart) + [f"U{{{upart}}}"] * bool(upart)
    return " ∧ ".join(parts) or "1"
