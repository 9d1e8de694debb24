"""Independent oracles kept out of the package on purpose.

Nothing here may import from superhomology.ranklin's elimination kernel:
these are the second routes the main paths are checked against.
"""

from fractions import Fraction

from superhomology.chain import (Chain, boundary_monomial, monomial_degree,
                                 monomial_word, normalize_word)


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
