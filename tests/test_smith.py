import random

from twoquadrics.matrices import Mat
from twoquadrics.smith import invariant_factors, smith_normal_form


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return Mat(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_snf_reconstruction():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        d, u, v = smith_normal_form(a)
        assert u * a * v == d
        for i in range(min(m, n)):
            assert d.data[i][i] >= 0
            if i + 1 < min(m, n) and d.data[i][i]:
                assert d.data[i + 1][i + 1] % d.data[i][i] == 0
        for r in range(d.rows):
            for c in range(d.cols):
                if r != c:
                    assert d.data[r][c] == 0


def test_unimodularity_of_transforms():
    rng = random.Random(11)
    for _ in range(25):
        a = random_matrix(rng, 3, 3)
        _, u, v = smith_normal_form(a)
        assert all(f == 1 for f in invariant_factors(u))
        assert all(f == 1 for f in invariant_factors(v))


def test_invariant_factor_examples():
    assert invariant_factors(Mat([[2, 0], [0, 3]])) == (1, 6)
    assert invariant_factors(Mat([[1, 1], [1, 1]])) == (1, 0)
    assert invariant_factors(Mat([[4]])) == (4,)


def test_matrix_algebra():
    a = Mat([[1, 2], [3, 4]])
    ident = Mat.identity(2)
    assert a * ident == a
    assert (a - a).data == ((0, 0), (0, 0))
    assert a**0 == ident
    assert a**2 == a * a
    assert a.transpose().transpose() == a


def test_snf_without_entry_growth():
    """A 6x6 matrix on which reducing the whole pivot column before its row
    once let entries grow to hundreds of thousands of bits."""
    from time import perf_counter

    a = Mat(
        [
            [-42, 0, 17, 0, 0, 32],
            [-16, 46, 8, -50, 0, 34],
            [0, -31, -17, 28, -39, -40],
            [6, 33, -25, 12, 14, 23],
            [-48, -16, 14, -23, 34, 20],
            [0, 0, -37, 4, 16, 30],
        ]
    )
    start = perf_counter()
    d, u, v = smith_normal_form(a)
    assert perf_counter() - start < 1.0
    assert u * a * v == d
    assert abs(u.det().as_rational()) == 1
    assert abs(v.det().as_rational()) == 1
    diag = [d.data[i][i] for i in range(6)]
    assert all(x > 0 for x in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(5))
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(a.det().as_rational())
    assert all(d.data[i][j] == 0 for i in range(6) for j in range(6) if i != j)
