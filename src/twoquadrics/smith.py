"""Smith normal form of integer matrices, Mats at order 1 over denominator 1."""

from __future__ import annotations

from .matrices import Mat


def smith_normal_form(a: Mat):
    """Return (D, U, V) with U*A*V = D for an integer Mat A (order 1,
    denominator 1, its ints in `data`), U and V unimodular, D diagonal with
    each invariant factor dividing the next.  Diagonal entries are
    nonnegative."""
    m, n = a.rows, a.cols
    r = _Reduction(a)
    d = r.d
    for t in range(min(m, n)):
        pivot = r.min_pivot(t)
        if pivot is None:
            break
        r.swap_rows(t, pivot[0])
        r.swap_cols(t, pivot[1])
        _clear(r, t)

    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a_, b_ = d[i][i], d[i + 1][i + 1]
            if b_ % a_ if a_ else b_:
                # fold entry (i+1, i+1) into column i and clear again
                r.add_col(i + 1, i, 1)
                _clear(r, i)
                changed = True
    for i in range(min(m, n)):
        if d[i][i] < 0:
            r.negate_row(i)
    return Mat(d), Mat(r.u), Mat(r.v)


class _Reduction:
    """Working copy d of a matrix A with unimodular u, v, kept so that
    u * A * v = d after every row and column operation."""

    def __init__(self, a: Mat):
        self.d = [list(r) for r in a.data]
        self.u = [list(r) for r in Mat.identity(a.rows).data]
        self.v = [list(r) for r in Mat.identity(a.cols).data]

    def swap_rows(self, i, j):
        for w in (self.d, self.u):
            w[i], w[j] = w[j], w[i]

    def swap_cols(self, i, j):
        for row in self.d + self.v:
            row[i], row[j] = row[j], row[i]

    def add_row(self, src, dst, f):
        for w in (self.d, self.u):
            w[dst] = [x + f * y for x, y in zip(w[dst], w[src])]

    def add_col(self, src, dst, f):
        for row in self.d + self.v:
            row[dst] += f * row[src]

    def negate_row(self, i):
        for w in (self.d, self.u):
            w[i] = [-x for x in w[i]]

    def min_pivot(self, t):
        """Position of an entry of least nonzero absolute value in the block
        from (t, t) down and right, or None when the block is zero."""
        d = self.d
        pivot = None
        best = None
        for i in range(t, len(d)):
            for j in range(t, len(d[0])):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        return pivot


def _clear(r: _Reduction, t):
    """Make row t and column t zero off the diagonal.  Each sweep moves an
    entry of least nonzero absolute value in row t or column t to (t, t) and
    reduces the rest of that row and column by it; the remainders are smaller
    than the pivot, so the pivot shrinks until they all vanish."""
    d = r.d
    m, n = len(d), len(d[0])
    while True:
        line = [(abs(d[i][t]), i, t) for i in range(t, m) if d[i][t]]
        line += [(abs(d[t][j]), t, j) for j in range(t + 1, n) if d[t][j]]
        _, pi, pj = min(line)
        r.swap_rows(t, pi)
        r.swap_cols(t, pj)
        p = d[t][t]
        for i in range(t + 1, m):
            if d[i][t]:
                r.add_row(t, i, -(d[i][t] // p))
        for j in range(t + 1, n):
            if d[t][j]:
                r.add_col(t, j, -(d[t][j] // p))
        if not any(d[i][t] for i in range(t + 1, m)) and not any(d[t][j] for j in range(t + 1, n)):
            return


def invariant_factors(a: Mat):
    d, _, _ = smith_normal_form(a)
    return tuple(d.data[i][i] for i in range(min(a.rows, a.cols)))
