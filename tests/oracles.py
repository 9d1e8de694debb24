"""Independent oracles kept out of the package on purpose.

Nothing here may import from superhomology.ranklin's elimination kernel:
these are the second routes the main paths are checked against.
"""

from fractions import Fraction

from superhomology.chain import (Chain, boundary_monomial, chain_basis,
                                 monomial_degree, normalize_word, word_to_monomial)
from superhomology.matrix import RationalMatrix


def naive_rank(matrix) -> int:
    """Dense rational Gaussian elimination, first-nonzero pivoting."""
    rows = [[Fraction(0)] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = Fraction(v)
    rank = 0
    for col in range(matrix.cols):
        pivot = None
        for r in range(rank, matrix.rows):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, matrix.rows):
            if rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == matrix.rows:
            break
    return rank


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


def _matmul(a, b):
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
            lhs = _matmul(ads[i - 1], ads[j - 1])
            rhs = _matmul(ads[j - 1], ads[i - 1])
            commutator = [[lhs[r][c] - rhs[r][c] for c in range(n)] for r in range(n)]
            if ad_bracket != commutator:
                return False
    return True


def monomial_word(gs, mono):
    """The monomial as a sorted word of generator ids (odd letters repeated)."""
    word = [gid for bit, gid in zip(mono.evens, gs.even_ids) if bit]
    for e, gid in zip(mono.odds, gs.odd_ids):
        word.extend([gid] * e)
    return tuple(word)


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
    cols = chain_basis(gs, m, w)
    rows = chain_basis(gs, m - 1, w)
    matrix = RationalMatrix(len(rows), len(cols))
    row_index = {mono: r for r, mono in enumerate(rows)}
    for c, mono in enumerate(cols):
        for target, coeff in word_boundary_monomial(gs, mono).terms.items():
            matrix.set(row_index[target], c, coeff)
    return matrix
