"""Independent oracles kept out of the package on purpose.

These are the second routes the main paths are checked against.  Each
avoids the path it checks: ``naive_rank`` shares nothing with the
elimination kernel, ``brute_basis`` nothing with the suffix tables that
count and list the bases, and the whole-matrix and per-piece Betti routes
eliminate through the kernel (checked against ``naive_rank`` elsewhere) but
never take a rank from the torus split.  ``suffix_tables`` counts with
tuple keys stepped one letter at a time, not the packed int keys of
``chain``, and ``fraction_schouten`` sums the bracket in ``Fraction`` on
``sc.bracket``, not on the int table of ``exterior``.
``dd_probe_every_column`` is the d o d = 0 probe over every column, of
which the table pushes a sample.  ``witness_every_cell`` checks every rank
a table takes against ``rank_mod_p``, a mod-p echelon at a seeded prime
near 2^61 that shares nothing with the exact kernel (homology through ranks
mod p: Dumas, Heckenbach, Saunders & Welker 2003).
The word layer (sorting words of
generators with the super sign), ``Chain`` arithmetic, multivector sums,
multiples and wedges (``mv_add``, ``mv_scaled``, ``mv_wedge``), the matrix
product and transpose, ``load_matrix`` (reads a ``--dump-matrix`` file),
``algebra_document`` (writes a ``--file`` document), ``change_basis``
(the same algebra in another basis) and ``semidirect_product`` (seeded
random Lie algebras) live here too: only tests use them.
"""

import random
from collections import Counter
from fractions import Fraction
from operator import add

from superhomology.algebra import StructureConstants, format_rational, parse_rational
from superhomology.chain import (_boundary_terms, boundary_columns, boundary_matrix,
                                 chain_basis, chain_dim, numbered_bases, support_degrees)
from superhomology import homology
from superhomology.exterior import Multivector, sort_indices
from superhomology.homology import BettiRow, BettiTable
from superhomology.ranklin import RationalMatrix, rank_report


def load_matrix(fh) -> RationalMatrix:
    """Read back what ``RationalMatrix.dump`` wrote: "rows cols", then "r c p/q" lines."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("matrix dump must start with 'rows cols'")
    out = RationalMatrix(int(header[0]), int(header[1]))
    for line in fh:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"bad matrix dump line: {line!r}")
        out.set(int(parts[0]), int(parts[1]), parse_rational(parts[2]))
    return out


def algebra_document(sc) -> dict:
    """The algebra document (the ``--file`` format) of bound structure constants."""
    brackets = []
    for (i, j) in sorted(sc.entries):
        out = {str(k + 1): format_rational(c) for k, c in enumerate(sc.entries[(i, j)]) if c}
        brackets.append({"i": i, "j": j, "out": out})
    return {"name": sc.name, "dim": sc.dim, "brackets": brackets}


def _inverse(matrix):
    """Dense Gauss-Jordan inverse of a square rational matrix (a list of rows), or None."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_invertible(n, rng):
    """A random invertible n x n matrix with entries k / d, -2 <= k <= 2 and d in {1, 2}."""
    while True:
        matrix = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                  for _ in range(n)]
        if _inverse(matrix) is not None:
            return matrix


def change_basis(sc, B):
    """The structure constants of ``sc`` in the basis f_i = B e_i.

    Column i of the invertible matrix ``B`` (a list of rows) holds f_i, and
    [f_i, f_j] = B^-1 [B e_i, B e_j] in f-coordinates.  The name is kept.
    """
    n = sc.dim
    inverse = _inverse(B)
    if inverse is None:
        raise ValueError("change of basis is singular")
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            image = [Fraction(0)] * n  # [B e_i, B e_j] in e-coordinates
            for a in range(n):
                for b in range(n):
                    if B[a][i] and B[b][j]:
                        for c, x in enumerate(sc.bracket(a + 1, b + 1)):
                            image[c] += B[a][i] * B[b][j] * x
            entries[(i + 1, j + 1)] = [sum(row[c] * image[c] for c in range(n)) for row in inverse]
    return StructureConstants(n, entries, name=sc.name)


def semidirect_product(A, name="semidirect"):
    """The Lie algebra Rx + R^n on (x, e_1, ..., e_n) with [x, e_i] = A e_i and [e_i, e_j] = 0.

    The e_i span an abelian ideal, so the Jacobi identity holds for every
    rational n x n matrix ``A`` (a list of rows).
    """
    n = len(A)
    return StructureConstants(n + 1, {(1, i + 2): [0] + [A[k][i] for k in range(n)]
                                      for i in range(n)}, name=name)


def semidirect_matrix(n, kind, rng):
    """A seeded n x n rational matrix A for ``semidirect_product``, of one ``kind``:

    * ``diagonal``: nonzero integers, so ad x grades the algebra;
    * ``singular``: the same with one zero, so that one e_i is central and
      outside [g, g] = im A;
    * ``jordan``: a Jordan block of a nonzero integer lam, of size n - 1 >= 2,
      then -lam, so ad x is not semisimple;
    * ``rational``: entries k / d with d in {2, 3}, so that D_w > 1, and
      trace 0 (with a random trace only the row w = 0 is nonzero);
    * ``conjugated``: P D P^-1, P from ``random_invertible`` and D a rational
      diagonal with one zero, so that ker A, the center, is no e_i.
    """
    if kind == "rational":
        A = [[Fraction(rng.randint(-2, 2), rng.choice([2, 3])) for _ in range(n)]
             for _ in range(n)]
        A[-1][-1] -= sum(A[i][i] for i in range(n))
        return A
    if kind == "jordan":
        lam = rng.choice([-2, -1, 1, 2])
        return [[(lam if r < n - 1 else -lam) if r == c else int(c == r + 1 < n - 1)
                 for c in range(n)] for r in range(n)]
    diag = [Fraction(rng.choice([-2, -1, 1, 2]),
                     rng.choice([1, 2, 3]) if kind == "conjugated" else 1) for _ in range(n)]
    if kind != "diagonal":
        diag[rng.randrange(n)] = Fraction(0)
    if kind != "conjugated":
        return [[diag[r] if r == c else 0 for c in range(n)] for r in range(n)]
    P = random_invertible(n, rng)
    inverse = _inverse(P)
    return [[sum(P[r][k] * diag[k] * inverse[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def sort_generator_word(gs, word):
    """Sort a word of generator ids into canonical order with the super sign.

    Each adjacent swap of letters with grades x, y contributes -(-1)^{xy}:
    any swap involving an even-grade letter flips the sign, odd-odd swaps do
    not.  Returns (sign, sorted word), or None (the word is zero) when an
    even-grade letter repeats; a canonical word comes back with sign +1.
    """
    out = list(word)
    grades = gs.grades
    sign = 1
    for i in range(1, len(out)):
        x = out[i]
        xg = grades[x]
        j = i - 1
        while j >= 0 and out[j] > x:
            if (xg & 1) == 0 or (grades[out[j]] & 1) == 0:
                sign = -sign
            out[j + 1] = out[j]
            j -= 1
        out[j + 1] = x
    for a, b in zip(out, out[1:]):
        if a == b and (grades[a] & 1) == 0:
            return None
    return sign, tuple(out)


def word_to_monomial(gs, word) -> tuple:
    """Canonical (sorted, even-square-free) word -> exponent tuple (evens, then odds)."""
    counts = Counter(word)
    return tuple(counts[gid] for gid in gs.even_ids + gs.odd_ids)


def normalize_word(gs, word):
    """(sign, monomial) of a word of generator ids; None when the word is zero."""
    norm = sort_generator_word(gs, tuple(word))
    if norm is None:
        return None
    sign, sorted_word = norm
    return sign, word_to_monomial(gs, sorted_word)


def monomial_degree(mono) -> int:
    return sum(mono)


def monomial_weight(gs, mono) -> int:
    """Grade-weighted letter count, summed letter type by letter type."""
    return sum(e * gs.grades[gid] for e, gid in zip(mono, gs.even_ids + gs.odd_ids))


class Chain:
    """A rational combination of monomials, homogeneous in degree and weight."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for mono, c in dict(terms).items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = c

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, mono: tuple, c: Fraction) -> None:
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
        return Chain({m: v * c for m, v in self.terms.items()})

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __eq__(self, other):
        return isinstance(other, Chain) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Chain(0)"
        return "Chain(" + ", ".join(f"{c}*{m}" for m, c in sorted(self.terms.items())) + ")"


def mv_add(*terms) -> Multivector:
    """The sum of multivectors of one level; a zero term may have any level."""
    nonzero = [mv for mv in terms if mv.coeffs]
    if len({mv.level for mv in nonzero}) > 1:
        raise ValueError("cannot add multivectors of different levels")
    coeffs = {}
    for mv in nonzero:
        for idx, c in mv.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0) + c
    return Multivector((nonzero or terms)[0].level, coeffs)


def mv_scaled(mv, c) -> Multivector:
    return Multivector(mv.level, {idx: v * c for idx, v in mv.coeffs.items()})


def mv_wedge(a, b) -> Multivector:
    """Classical exterior product (both factors are words of z-letters)."""
    out = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            norm = sort_indices(s + t)
            if norm is not None:
                sign, idx = norm
                out[idx] = out.get(idx, 0) + sign * cs * ct
    return Multivector(a.level + b.level, out)


def mv_is_zero(mv) -> bool:
    return not mv.coeffs


def fraction_schouten(sc, a, b) -> Multivector:
    """The bracket of two multivectors by the double sum in ``Fraction`` on ``sc.bracket``,
    with no int table: the second route of ``schouten`` and ``pair_bracket``."""
    acc: dict = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            for ipos, zi in enumerate(s):
                for jpos, zj in enumerate(t):
                    sign = -1 if (ipos + jpos) % 2 else 1  # (-1)^{(i+1)+(j+1)}
                    rest = s[:ipos] + s[ipos + 1:] + t[:jpos] + t[jpos + 1:]
                    for k, ck in enumerate(sc.bracket(zi, zj), 1):
                        norm = sort_indices((k,) + rest) if ck else None
                        if norm is not None:
                            acc[norm[1]] = acc.get(norm[1], 0) + sign * norm[0] * ck * cs * ct
    return Multivector(a.level + b.level - 1, acc)


def generator_coords(gs, mv) -> dict:
    """A multivector in the active basis of its level, {generator id: Fraction}."""
    out: dict = {}
    for idx, c in mv.coeffs.items():
        for g, v in gs._coords[mv.level][idx].items():
            out[g] = out.get(g, 0) + v * c
    return {g: Fraction(v) for g, v in out.items() if v}


def fraction_pair_bracket(gs, gi, gj) -> tuple:
    """``gs.pair_bracket(gi, gj)`` through ``fraction_schouten`` and ``generator_coords``."""
    mv = fraction_schouten(gs.sc, gs.generators[gi].expansion, gs.generators[gj].expansion)
    return tuple((c, g) for g, c in sorted(generator_coords(gs, mv).items()))


class _Numbering(dict):
    """{code: row} that numbers a code it has not seen when it is looked up."""

    def __missing__(self, code):
        self[code] = len(self)
        return self[code]


def zero_piece_basis(gs, m, w) -> list:
    """The monomials of ``chain_basis(gs, m, w)`` with torus weight 0, in its order, as the
    lister walks them for the table: ``numbered_bases`` codes decoded by ``code_monomial``."""
    return [code_monomial(gs, w, code) for code in numbered_bases(gs, w, [m])[m][1]]


def _digit_bases(gs, w) -> list:
    """The base of each id's digit in a weight-w code, the leading digit first, as (id, base):
    odd ids first, the first leading, each of base w // grade + 1, the most a weight-w
    monomial holds plus one; then even ids, id 0 leading, each of base 2."""
    return [(x, w // gs.grades[x] + 1) for x in gs.odd_ids] + [(x, 2) for x in gs.even_ids]


def monomial_code(gs, w, mono) -> int:
    """The code of a monomial in the mixed radix of weight w, by Horner's rule.

    Raises ``ValueError`` if an exponent does not fit its digit.
    """
    code = 0
    for x, base in _digit_bases(gs, w):
        if not 0 <= mono[x] < base:
            raise ValueError(f"exponent {mono[x]} of id {x} outside the weight-{w} digit")
        code = code * base + mono[x]
    return code


def code_monomial(gs, w, code) -> tuple:
    """The monomial of a weight-w code, its digits read from the last up."""
    exps = [0] * gs.count
    for x, base in reversed(_digit_bases(gs, w)):
        code, exps[x] = divmod(code, base)
    if code:
        raise ValueError("code above the top digit")
    return tuple(exps)


def assemble(gs, w, cols, rows) -> list[dict[int, int]]:
    """``boundary_columns`` of the weight-w monomials ``cols`` into the rows numbered in
    ``rows`` order, each coded here by ``monomial_code``."""
    index = {monomial_code(gs, w, mono): r for r, mono in enumerate(rows)}
    n_even = len(gs.even_ids)
    return boundary_columns(gs, w, [mono[n_even:] for mono in cols],
                            [monomial_code(gs, w, mono) for mono in cols], index)


def kernel_column(gs, mono) -> tuple[dict[tuple, int], set[tuple]]:
    """The package kernel's column of one monomial, {target: D_w times its entry}, and
    every target the kernel looked up on the way.

    The kernel numbers each target code as it first meets it, and each code
    is decoded back into its exponent vector, so no row basis is listed.  The
    place value of each digit is the product of the bases below it.
    """
    w, n_even = monomial_weight(gs, mono), len(gs.even_ids)
    digits, place = [0] * gs.count, 1
    for x, base in reversed(_digit_bases(gs, w)):
        digits[x], place = place, place * base
    rows = _Numbering()
    (column,) = _boundary_terms(gs.int_brackets(w)[1], n_even, digits, [mono[n_even:]],
                                [monomial_code(gs, w, mono)], rows)
    targets = {r: code_monomial(gs, w, code) for code, r in rows.items()}
    return {targets[r]: v for r, v in column.items()}, set(targets.values())


def boundary_monomial(gs, mono) -> Chain:
    """Boundary of one monomial as a ``Chain``, read off ``kernel_column``."""
    scale = gs.int_brackets(monomial_weight(gs, mono))[0]
    return Chain({t: Fraction(v, scale) for t, v in kernel_column(gs, mono)[0].items()})


def transpose(matrix) -> RationalMatrix:
    out = RationalMatrix(matrix.cols, matrix.rows)
    out.entries = {(c, r): v for (r, c), v in matrix.entries.items()}
    return out


def matmul(a, b) -> RationalMatrix:
    """Sparse exact product a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    by_row: dict = {}
    for (r, c), v in b.entries.items():
        by_row.setdefault(r, []).append((c, v))
    out = RationalMatrix(a.rows, b.cols)
    acc = out.entries
    for (r, k), v in a.entries.items():
        for c, u in by_row.get(k, ()):
            s = acc.get((r, c), 0) + v * u
            if s:
                acc[(r, c)] = s
            else:
                acc.pop((r, c), None)
    return out


def rank(matrix) -> int:
    """Exact rank through the package kernel."""
    return rank_report(matrix).rank


def kernel_dim(matrix) -> int:
    """Nullity: columns minus rank."""
    return matrix.cols - rank(matrix)


def euler_check(gs, w) -> int:
    """Alternating sum of the weight-w chain dimensions; 0 for every Lie algebra."""
    return sum((-1) ** m * chain_dim(gs, m, w) for m in range(0, w + gs.dim + 1))


def whole_matrix_betti_table(gs, w_max) -> BettiTable:
    """``betti_table`` without the torus split: every cell's whole matrix is eliminated."""
    rows = []
    for w in range(w_max + 1):
        degrees = support_degrees(gs, w)
        dims = [chain_dim(gs, m, w) for m in degrees]
        ranks = {m: rank(boundary_matrix(gs, m, w)) for m in degrees if m >= 1}
        kernels = [d - ranks.get(m, 0) for m, d in zip(degrees, dims)]
        betti = [k - ranks.get(m + 1, 0) for m, k in zip(degrees, kernels)]
        rows.append(BettiRow(w, degrees, dims, kernels, betti))
    return BettiTable(algebra=gs.sc.name, rows=rows)


def dd_probe_every_column(gs, w) -> list[tuple[int, int]]:
    """(m, column) wherever xi^T d_{m-1} d_m is nonzero on the weight-w zero piece.

    The full-strength Freivalds probe: every column of every cell is
    assembled (``assemble``, nothing skipped) and the composite is
    taken on all of them, with xi seeded by (w, m).  The table's probe only
    pushes a sample of each cell's kept columns.
    """
    bases = {m: zero_piece_basis(gs, m, w) for m in support_degrees(gs, w)}
    bad: list[tuple[int, int]] = []
    eta: dict[int, int] = {}  # xi^T d_{m-1}, over the degree-(m-1) monomials
    for m in sorted(bases):
        rows = bases.get(m - 1, [])
        rng = random.Random(f"{w},{m}")
        xi = [rng.getrandbits(30) for _ in rows]
        columns = assemble(gs, w, bases[m], rows) if m >= 1 else []
        bad += [(m, c) for c, column in enumerate(columns)
                if sum(eta.get(r, 0) * v for r, v in column.items())]
        eta = {c: x for c, column in enumerate(columns)
               if (x := sum(xi[r] * v for r, v in column.items()))}
    return bad


def torus_weight(gs, mono) -> tuple:
    """Torus weight of a monomial, summed letter by letter (() without a grading)."""
    if not gs.torus:
        return ()
    word = monomial_word(gs, mono)
    return tuple(sum(coord[gid] for gid in word) for coord in gs.torus)


def brute_basis(gs, m, w, torus=None) -> list:
    """Exponent tuples of degree m and weight w (and torus weight ``torus`` if given), sorted.

    A plain depth-first search over generator ids, pruned only by the degree
    and weight left; it shares nothing with the suffix tables of ``chain``.
    """
    out, exps = [], [0] * gs.count

    def place(i, dm, dw):
        while i < gs.count and gs.grades[i] > dw:
            i += 1  # a letter heavier than the weight left takes exponent 0
        if dm == 0 or i == gs.count:
            if dm == dw == 0:
                out.append(tuple(exps))
            return
        grade = gs.grades[i]
        for t in range(dm + 1 if grade % 2 else min(dm, 1) + 1):
            if t * grade > dw:
                break
            exps[i] = t
            place(i + 1, dm - t, dw - t * grade)
        exps[i] = 0

    place(0, m, w)
    if torus is not None:
        out = [mono for mono in out if torus_weight(gs, mono) == tuple(torus)]
    return sorted(out)


def suffix_tables(grades, coords, w) -> list[dict[tuple, int]]:
    """The suffix tables of ``chain`` up to weight w, keyed by (degree, weight, *torus weight)
    tuples stepped one letter at a time, with no packed key: table i counts the ways the
    ids >= i reach each key."""
    tables = [{(0, 0) + (0,) * len(coords): 1}]
    for i in reversed(range(len(grades))):
        grade, below = grades[i], tables[-1]
        vec, table = (1, grade) + tuple(coord[i] for coord in coords), {}
        for key, ways in below.items() if grade <= w else ():
            for _ in range(w + 1 if grade % 2 else 2):  # even letters square to zero
                if key[1] > w:
                    break
                table[key] = table.get(key, 0) + ways
                key = tuple(map(add, key, vec))
        tables.append(table if grade <= w else below)
    return tables[::-1]


def zero_piece_matrix(gs, m, w) -> RationalMatrix:
    """The boundary on the torus-weight-0 piece, in ``zero_piece_basis`` order, by the word route."""
    return _word_matrix(gs, zero_piece_basis(gs, m, w), zero_piece_basis(gs, m - 1, w))


def odd_first(gs, basis) -> list:
    """``basis`` in the numbering ``betti_row`` documents: by odd part, then even part."""
    n_even = len(gs.even_ids)
    return sorted(basis, key=lambda e: (e[n_even:], e[:n_even]))


def numbered_piece_matrix(gs, m, w) -> RationalMatrix:
    """``zero_piece_matrix`` in the numbering ``betti_row`` documents (``odd_first``)."""
    return _word_matrix(gs, odd_first(gs, zero_piece_basis(gs, m, w)),
                        odd_first(gs, zero_piece_basis(gs, m - 1, w)))


def _positions(keys):
    """Index of each entry among the entries with the same key, in order."""
    seen: dict = {}
    out = []
    for key in keys:
        out.append(seen.get(key, 0))
        seen[key] = out[-1] + 1
    return out


def piece_dims(gs, w):
    """{torus weight: {m: dim}} of the pieces of weight w, each monomial of ``chain_basis``
    keyed by ``torus_weight``; nothing is assembled or ranked."""
    dims: dict = {}
    for m in support_degrees(gs, w):
        for mono in chain_basis(gs, m, w):
            piece = dims.setdefault(torus_weight(gs, mono), {})
            piece[m] = piece.get(m, 0) + 1
    return dims


def piece_tables(gs, w):
    """{torus weight: ({m: dim}, {m: Betti})} with each piece of weight w ranked on its own.

    A piece's matrix is the whole boundary matrix restricted to the piece's
    rows and columns; an entry that links two pieces raises ValueError.
    """
    keys = {m: [torus_weight(gs, mono) for mono in chain_basis(gs, m, w)]
            for m in support_degrees(gs, w)}
    dims: dict = {}
    for m, m_keys in keys.items():
        for key in m_keys:
            dims.setdefault(key, {}).setdefault(m, 0)
            dims[key][m] += 1
    ranks: dict = {}
    for m in keys:
        if m - 1 not in keys:
            continue
        col_keys, row_keys = keys[m], keys[m - 1]
        col_pos, row_pos = _positions(col_keys), _positions(row_keys)
        blocks: dict = {}
        for (r, c), v in boundary_matrix(gs, m, w).entries.items():
            if row_keys[r] != col_keys[c]:
                raise ValueError(f"entry ({r}, {c}) at w={w}, m={m} links two torus pieces")
            blocks.setdefault(col_keys[c], []).append((row_pos[r], col_pos[c], v))
        for key, entries in blocks.items():
            piece = RationalMatrix(dims[key].get(m - 1, 0), dims[key][m], entries)
            ranks.setdefault(key, {})[m] = rank(piece)
    out = {}
    for key, key_dims in dims.items():
        r = ranks.get(key, {})
        out[key] = (key_dims, {m: d - r.get(m, 0) - r.get(m + 1, 0)
                               for m, d in key_dims.items()})
    return out


def naive_rank(matrix) -> int:
    """Rational Gaussian elimination on sparse dict rows, first-nonzero pivoting."""
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        if v:
            rows[r][c] = Fraction(v)
    rank = 0
    for col in range(matrix.cols):
        pivot = None
        for r in range(rank, matrix.rows):
            if col in rows[r]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r in range(rank + 1, matrix.rows):
            row = rows[r]
            if col in row:
                f = row[col] / pv
                for c, b in top.items():
                    v = row.get(c, 0) - f * b
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
        rank += 1
        if rank == matrix.rows:
            break
    return rank


def is_prime(n) -> bool:
    """Miller-Rabin on the first twelve primes as bases, exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near_2_61(seed) -> int:
    """The first prime that ``random.Random(seed)`` draws from [2^61 - 2^40, 2^61)."""
    rng = random.Random(seed)
    while not is_prime(n := rng.randrange(2**61 - 2**40, 2**61)):
        pass
    return n


def rank_mod_p(rows, p) -> int:
    """Rank mod the prime p of int rows ({column: entry}), which it leaves as they are.

    Rows are taken in input order and each is reduced against pivot rows
    scaled to 1 at their lowest column, so it shares neither its arithmetic
    nor its row order with ``ranklin.rank_rows`` (fraction-free integers,
    shortest row first).  The lowest column, as in the kernel, keeps the
    fill-in of the table's input low: the highest took 7 times as long on
    gl2 w <= 10.  rank mod p <= the rational rank, equal unless p divides
    every maximal nonzero minor.
    """
    pivot_rows: dict[int, dict[int, int]] = {}  # leading column -> its row, 1 there
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            if lead not in pivot_rows:
                inverse = pow(row[lead], -1, p)
                pivot_rows[lead] = {c: v * inverse % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in pivot_rows[lead].items():
                if x := (row.get(c, 0) - f * v) % p:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivot_rows)


def pivot_minor_is_nonsingular(rows, pivots, p) -> bool:
    """The rows x columns that ``pivots`` ((row, column) pairs) name, each once, are a
    square minor of ``rows`` that is nonsingular mod p, which proves rank >= len(pivots)."""
    picked, columns = {r for r, _ in pivots}, {c for _, c in pivots}
    minor = [{c: v for c, v in rows[r].items() if c in columns} for r in picked]
    return len(picked) == len(columns) == len(pivots) == rank_mod_p(minor, p)


def witness_every_cell(gs, w_max, seed="rank witness") -> list[tuple[int, int, int]]:
    """(w, m, rank) of every cell a table of gs to w_max ranks, each rank witnessed mod p.

    ``homology.rank_rows`` is patched, for the weights run one after another
    in this process, to copy each kept matrix before the kernel consumes it;
    at the prime ``prime_near_2_61(seed)`` its rank must be the number of
    pivots the kernel reports (a dropped pivot shows as a larger rank mod p)
    and the pivot minor must be nonsingular (a pivot the rows do not have
    makes it singular).  Any other result raises ``AssertionError``, also
    under ``python -O``.
    """
    p, real, cells = prime_near_2_61(seed), homology.rank_rows, []

    def witnessed(rows):
        kept = [dict(row) for row in rows]
        report = real(rows)
        rank_p, whole = rank_mod_p(kept, p), pivot_minor_is_nonsingular(kept, report.pivots, p)
        if rank_p != len(report.pivots) or not whole:
            raise AssertionError(f"at w={w}, cell {len(cells) + 1} of the run: rank mod {p} is "
                                 f"{rank_p}, {len(report.pivots)} pivots, pivot minor "
                                 f"nonsingular: {whole}")
        return report

    homology.rank_rows, ranked = witnessed, gs.ranked
    try:
        for w in range(w_max + 1):
            homology.betti_row(ranked, w, lambda w, m, shape, report, forced:
                               cells.append((w, m, report.rank)))
    finally:
        homology.rank_rows = real
    return cells


def dense_jacobi_violations(sc):
    """``algebra.check_jacobi`` over every triple and coordinate, stored or not."""
    n = sc.dim
    violations = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                residual = [Fraction(0)] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = sc.bracket(a, b)
                    for t in range(n):
                        if inner[t]:
                            outer = sc.bracket(t + 1, c)
                            for s in range(n):
                                residual[s] += inner[t] * outer[s]
                if any(residual):
                    violations.append(((i, j, k), tuple(residual)))
    return violations


def adjoint_matrices(sc):
    """ad(z_i) as dense matrices: column j holds [z_i, z_j]."""
    n = sc.dim
    mats = []
    for i in range(1, n + 1):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n + 1):
            vec = sc.bracket(i, j)
            for k in range(n):
                mat[k][j - 1] = vec[k]
        mats.append(mat)
    return mats


def _dense_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def jacobi_holds_via_adjoint(sc) -> bool:
    """Jacobi iff ad([x,y]) = ad(x)ad(y) - ad(y)ad(x) on all basis pairs."""
    n = sc.dim
    ads = adjoint_matrices(sc)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vec = sc.bracket(i, j)
            ad_bracket = [[sum(vec[k] * ads[k][r][c] for k in range(n))
                           for c in range(n)] for r in range(n)]
            lhs = _dense_matmul(ads[i - 1], ads[j - 1])
            rhs = _dense_matmul(ads[j - 1], ads[i - 1])
            commutator = [[lhs[r][c] - rhs[r][c] for c in range(n)] for r in range(n)]
            if ad_bracket != commutator:
                return False
    return True


def monomial_word(gs, mono):
    """The monomial as a sorted word of generator ids (odd letters repeated)."""
    return tuple(gid for e, gid in zip(mono, gs.even_ids + gs.odd_ids) for _ in range(e))


def wedge_monomials(gs, a, b):
    """Super exterior product of two monomials as (sign, monomial), or None when it vanishes."""
    return normalize_word(gs, monomial_word(gs, a) + monomial_word(gs, b))


def wedge_chain(gs, chain, mono, on_left=False):
    """chain ^ mono, or mono ^ chain with ``on_left``."""
    out = Chain()
    for m2, c in chain.terms.items():
        pair = (mono, m2) if on_left else (m2, mono)
        norm = wedge_monomials(gs, *pair)
        if norm is not None:
            sign, prod = norm
            out.add_term(prod, c * sign)
    return out


def induced_bracket(gs, a, b):
    """The bracket the boundary induces across a wedge split:

    boundary(a ^ b) - boundary(a) ^ b - (-1)^{deg a} a ^ boundary(b).
    On two single even-grade letters this is the Lie bracket.
    """
    out = Chain()
    norm = wedge_monomials(gs, a, b)
    if norm is not None:
        sign, prod = norm
        out = out + boundary_monomial(gs, prod).scaled(sign)
    out = out - wedge_chain(gs, boundary_monomial(gs, a), b)
    sign_a = -1 if monomial_degree(a) % 2 else 1
    out = out - wedge_chain(gs, boundary_monomial(gs, b), a, on_left=True).scaled(sign_a)
    return out


def word_boundary_monomial(gs, mono):
    """Boundary of one monomial, letter pair by letter pair on its sorted word.

    The package sums over pairs of letter types in closed form; this visits
    all O(m^2) position pairs of the expanded word and renormalizes each term.
    """
    word = monomial_word(gs, mono)
    m = len(word)
    out = Chain()
    parities = [gs.grades[g] & 1 for g in word]
    for a in range(m):
        pa = parities[a]
        between = 0  # parity of the grades strictly between a and b
        for b in range(a + 1, m):
            bracket = gs.pair_bracket(word[a], word[b])
            if bracket:
                # (-1)^{i-1 + y_i * sum_{i<s<j} y_s} with 1-based i = a+1
                sign = -1 if (a + (pa & between)) % 2 else 1
                reduced = word[:a] + word[a + 1:b] + word[b + 1:]
                _insert_terms(gs, out, reduced, b - 1, bracket, sign)
            between ^= parities[b]
    return out


def _insert_terms(gs, out, reduced, slot, bracket, sign):
    """Place each bracket letter at ``slot`` of the sorted ``reduced`` word and normalize.

    Moving the new letter to its sorted position swaps it past neighbours,
    each swap against an even-grade letter flipping the sign (odd-odd swaps
    are free).
    """
    grades = gs.grades
    for coeff, gid in bracket:
        g_par = grades[gid] & 1
        lo, hi = 0, len(reduced)
        while lo < hi:
            mid = (lo + hi) // 2
            if reduced[mid] < gid:
                lo = mid + 1
            else:
                hi = mid
        span = reduced[lo:slot] if lo < slot else reduced[slot:lo]
        if g_par:
            flips = sum(1 for other in span if grades[other] & 1 == 0)
        else:
            if lo < len(reduced) and reduced[lo] == gid:
                continue  # even letters square to zero
            flips = len(span)
        out.add_term(word_to_monomial(gs, reduced[:lo] + (gid,) + reduced[lo:]),
                     coeff if (sign > 0) == (flips % 2 == 0) else -coeff)


def word_boundary_matrix(gs, m, w):
    """``boundary_matrix`` built from ``word_boundary_monomial``, same bases and order."""
    return _word_matrix(gs, chain_basis(gs, m, w), chain_basis(gs, m - 1, w))


def _word_matrix(gs, cols, rows):
    """Boundary of each column monomial by ``word_boundary_monomial``, in ``rows`` coordinates."""
    matrix = RationalMatrix(len(rows), len(cols))
    row_index = {mono: r for r, mono in enumerate(rows)}
    for c, mono in enumerate(cols):
        for target, coeff in word_boundary_monomial(gs, mono).terms.items():
            matrix.set(row_index[target], c, coeff)
    return matrix
