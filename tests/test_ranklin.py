import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhomology import (BACKEND, EliminationReport, boundary_matrix, catalog_get,
                           generator_system, rank_report, support_degrees)
from superhomology.ranklin import RationalMatrix, _integer_rows, rank_rows

from oracles import (is_prime, kernel_dim, matmul, naive_rank, pivot_minor_is_nonsingular,
                     prime_near_2_61, rank, rank_mod_p, transpose)


def random_matrix(rng, rows, cols, density=0.3, denominators=True):
    matrix = RationalMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                num = rng.randint(-6, 6)
                den = rng.randint(1, 4) if denominators else 1
                matrix.set(r, c, F(num, den))
    return matrix


def assert_pivots_nonsingular(matrix, report):
    """The reported pivot rows x pivot columns are a nonsingular rank x rank submatrix."""
    rows = [r for r, _ in report.pivots]
    cols = [c for _, c in report.pivots]
    assert len(set(rows)) == len(set(cols)) == report.rank
    square = RationalMatrix(report.rank, report.rank)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            square.set(i, j, matrix.entries.get((r, c), 0))
    assert naive_rank(square) == report.rank


def test_trivial_ranks():
    assert rank(RationalMatrix(5, 7)) == 0
    assert kernel_dim(RationalMatrix(5, 7)) == 7
    assert rank(RationalMatrix(0, 4)) == 0
    assert rank(RationalMatrix(4, 0)) == 0
    proportional = RationalMatrix(2, 2, [(0, 0, F(1)), (0, 1, F(2)),
                                         (1, 0, F(2)), (1, 1, F(4))])
    assert rank(proportional) == 1


def test_boundary_matrix_ranks_from_final_tables():
    heis = generator_system(catalog_get("heis3"))
    matrix = boundary_matrix(heis, 6, 3)  # top degree w+3 at w=3
    assert rank(matrix) == 6  # C(5,2) - (w+1)
    assert kernel_dim(matrix) == 4  # w+1

    sl2 = generator_system(catalog_get("sl2_efh"))
    assert kernel_dim(boundary_matrix(sl2, 8, 5)) == 0


def test_rank_against_oracle_random():
    rng = random.Random(2718)
    for trial in range(60):
        rows = rng.randint(0, 14)
        cols = rng.randint(0, 14)
        matrix = random_matrix(rng, rows, cols, density=rng.uniform(0.1, 0.9))
        assert rank(matrix) == naive_rank(matrix), trial


def test_rank_transpose_and_scaling_invariance():
    rng = random.Random(31)
    for _ in range(25):
        matrix = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        r = rank(matrix)
        assert rank(transpose(matrix)) == r
        scaled = RationalMatrix(matrix.rows, matrix.cols)
        scales = [F(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2])) for _ in range(matrix.rows)]
        for (i, j), v in matrix.entries.items():
            scaled.set(i, j, v * scales[i])
        assert rank(scaled) == r
        perm = list(range(matrix.rows))
        rng.shuffle(perm)
        swapped = RationalMatrix(matrix.rows, matrix.cols)
        for (i, j), v in matrix.entries.items():
            swapped.set(perm[i], j, v)
        assert rank(swapped) == r
        cperm = list(range(matrix.cols))
        rng.shuffle(cperm)
        permuted = RationalMatrix(matrix.rows, matrix.cols)
        for (i, j), v in matrix.entries.items():
            permuted.set(i, cperm[j], v)
        assert rank(permuted) == r


def test_rank_of_product_bound():
    rng = random.Random(77)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        b = random_matrix(rng, a.cols, rng.randint(1, 8))
        assert rank(matmul(a, b)) <= min(rank(a), rank(b))


def test_rank_deficient_products_against_oracle():
    # dense random matrices are almost always of full rank; a product of thin
    # factors, with duplicated and scaled rows appended, is not, so
    # elimination must cancel rows to zero to get the rank right
    rng = random.Random(1618)
    for trial in range(60):
        rows, cols = rng.randint(2, 12), rng.randint(2, 12)
        k = rng.randint(1, min(rows, cols) - 1)
        factor = random_matrix(rng, rows, k, density=rng.uniform(0.4, 1.0))
        matrix = matmul(factor, random_matrix(rng, k, cols, density=rng.uniform(0.4, 1.0)))
        copies = [rng.randrange(rows) for _ in range(rng.randint(1, 4))]
        padded = RationalMatrix(rows + len(copies), cols)
        padded.entries = dict(matrix.entries)
        for offset, src in enumerate(copies):
            scale = F(rng.choice([1, -1, 2, -3]), rng.choice([1, 5]))
            for c in range(cols):
                padded.set(rows + offset, c, matrix.entries.get((src, c), 0) * scale)
        expected = naive_rank(padded)
        assert expected <= k
        for case in (padded, transpose(padded)):
            report = rank_report(case)
            assert report.rank == expected, trial
            assert_pivots_nonsingular(case, report)


def test_report_fields():
    gs = generator_system(catalog_get("heis3"))
    matrix = boundary_matrix(gs, 4, 3)
    report = rank_report(matrix)
    assert report.rank <= min(matrix.rows, matrix.cols)
    pivot_rows = [r for r, _ in report.pivots]
    pivot_cols = [c for _, c in report.pivots]
    assert len(set(pivot_rows)) == len(report.pivots)
    assert len(set(pivot_cols)) == len(report.pivots)
    assert report.fill_in >= 0 and report.elapsed >= 0.0
    # what the kernel found, in the order of the --report keys between rank and backend;
    # the rank is read from the pivots and cannot be set apart from them
    assert list(vars(report)) == ["pivots", "fill_in", "nonzero_rows", "elapsed"]
    assert report.rank == len(report.pivots) and report.backend == BACKEND == "python"
    with pytest.raises(AttributeError):
        report.rank += 1
    copied = EliminationReport(**vars(report))
    assert vars(copied) == vars(report) and copied.rank == report.rank


def test_pivot_is_the_lowest_column_of_the_input():
    # columns keep their input numbering, so row 1 takes column 1, and row 2,
    # reduced by row 1, takes column 2 with one fill-in; a ranking of the
    # columns by nonzero count would have given (1, 2), (2, 3) and no fill-in
    report = rank_rows([{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 1, 3: 1}])
    assert report.rank == 3
    assert report.pivots == [(0, 0), (1, 1), (2, 2)]
    assert report.fill_in == 1


@pytest.mark.parametrize("name,binds,w_max", [
    ("heis3", {}, 6), ("sl2_efh", {}, 5),
    ("g3d3", {"alpha": F(2, 3), "beta": F(-5, 7)}, 5), ("gl2", {}, 2)])
def test_boundary_matrix_ranks_against_oracle(name, binds, w_max):
    gs = generator_system(catalog_get(name, binds))
    for w in range(w_max + 1):
        for m in support_degrees(gs, w):
            if m < 1:
                continue
            matrix = boundary_matrix(gs, m, w)
            report = rank_report(matrix)
            assert report.rank == naive_rank(matrix), (w, m)
            assert_pivots_nonsingular(matrix, report)


def test_bigint_entries_fall_back_correctly():
    huge = 3 ** 80
    matrix = RationalMatrix(3, 3)
    matrix.set(0, 0, F(huge))
    matrix.set(0, 1, F(1))
    matrix.set(1, 0, F(1))
    matrix.set(1, 1, F(huge))
    matrix.set(2, 2, F(huge * huge))
    report = rank_report(matrix)
    assert report.rank == 3
    assert naive_rank(matrix) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers())
def test_rank_bounds_random_shapes(rows, cols, seed):
    rng = random.Random(seed)
    matrix = random_matrix(rng, rows, cols, density=0.5)
    r = rank(matrix)
    assert 0 <= r <= min(rows, cols)
    assert kernel_dim(matrix) == cols - r


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-2, 2000) if is_prime(n)] == \
        [n for n in range(2, 2000) if all(n % q for q in range(2, int(n ** 0.5) + 1))]
    assert is_prime(2**61 - 1) and not is_prime(3215031751)  # a strong pseudoprime to 2..7
    p = prime_near_2_61("rank witness")
    assert 2**61 - 2**40 <= p < 2**61 and is_prime(p)


def test_rank_mod_p_and_the_pivot_minor_agree_with_the_rational_rank():
    # at a prime near 2^61 the small entries here lose no rank, so rank mod p is the rank
    # over Q, and the kernel's pivot minor is nonsingular mod p; a pivot dropped or made
    # up is told apart
    rng, p = random.Random(7), prime_near_2_61("rank witness")
    for trial in range(40):
        matrix = random_matrix(rng, rng.randint(0, 9), rng.randint(0, 9), density=0.4)
        rows = _integer_rows(matrix)
        before = [dict(row) for row in rows]
        assert rank_mod_p(rows, p) == naive_rank(matrix), trial
        assert rows == before  # the witness leaves its rows as they are
        report = rank_rows(rows)
        assert pivot_minor_is_nonsingular(before, report.pivots, p), trial
        if report.pivots:
            assert not pivot_minor_is_nonsingular(before, report.pivots + report.pivots[-1:], p)
        spare = [r for r in range(len(before)) if r not in {r for r, _ in report.pivots}]
        if spare and (free := set(range(matrix.cols)) - {c for _, c in report.pivots}):
            made_up = report.pivots + [(spare[0], min(free))]
            assert not pivot_minor_is_nonsingular(before, made_up, p), trial
