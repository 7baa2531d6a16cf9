"""Exact linear algebra over cyclotomic fields.

A Mat holds one field order N, one positive denominator `den` and rows of
integer entries: entry (i, j) is data[i][j] / den in Q(zeta_N).  At N = 1
an entry is an int; above it, a tuple of phi(N) ints (power-basis
coefficients, see cyclo) or the int 0 for zero.  A matrix is kept at the
least N holding its entries (a rational matrix stays at 1) and in lowest
terms, so equal matrices have equal (order, den, data) keys; `_mat` finds
that order by `cyclo._least_field`, and a transpose or a negation, already
canonical, skips it.  An int or Fraction entry is read as it is, rows of
ints whole (`_rows_of`), so a rational matrix is built with no CycNum.  The kernels
work on these ints and build no CycNum: `_times` (products),
`_echelon`/`_rref` (the one elimination, fraction-free) and
`_clear_column`.  Over Q they run Bareiss's elimination
(Math. Comp. 22, 1968); over Q(zeta_N) each new row is divided by the gcd
of its coefficients, and zero entries are skipped.  A column with nothing
to clear, zero in every target row, is skipped whole: no row changes, so a
diagonal or monomial matrix is reduced without a row operation (why only
whole columns: `_clear_column`).  `solve`, one right-hand side, is the
tests' oracle: a symmetry's pencil action takes no elimination
(`pencils.equivariance` reads it off a 2x2 minor).  The eigenspaces of a
finite-order matrix are the images of Serre's projections, summed on the
int rows from the powers `operator_order` forms and shifted by power_table
rows: no kernel and no product (`eigenspaces_finite_order`).  The action (hᵀ)⁻¹ of a generator h
on points is read off those powers of h, with no inverse: (h^(n-1))ᵀ for h
of order n, its powers and multiplicities set beside it (`point_action`).
The determinant is kept on the Mat, as `entries` is, so the invertibility
check at parse time and `operator_order` share one elimination.
CycNum values are made only at the API boundary: `entries`,
`Subspace.basis`, `det`, `trace`, `is_scalar`, `apply` and `solve`;
`row_combinations_span` takes int rows (stage 3's line spans).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import floordiv, mul

from .cyclo import CycNum, ZERO, _dot_num, _inverse_num, _least_field, _make, _map_num
from .cyclo import euler_phi, power_table, zeta
from .errors import CapExceeded, DimensionMismatch, NotFiniteOrder, Singular

MAX_POWER_BITS = 12000  # printed in decimal, such an integer stays under Python's 4300-digit limit
MAX_ORDER = 360  # the largest matrix order operator_order looks for


def _value(x):
    """(order, int coefficients, den) of a CycNum, int or Fraction."""
    if type(x) is int:
        return 1, (x,), 1
    if type(x) is Fraction:
        return 1, (x.numerator,), x.denominator
    x = CycNum._coerce(x)
    return x.order, x.num, x.den


def _rows_of(values):
    """(order, den, rows of entries) for rows of CycNum, int or Fraction: an int
    or a Fraction is read as it is, and rows of ints are their own entries."""
    if {type(x) for row in values for x in row} == {int}:
        return 1, 1, [list(row) for row in values]
    rows = [[_value(x) for x in row] for row in values]
    order = lcm(*(o for row in rows for o, _, _ in row))
    den = lcm(*(d for row in rows for _, _, d in row))

    def entry(o, num, d):
        s = den // d
        if order == 1:
            return num[0] * s
        num = num if o == order else _map_num(order, num, order // o)
        return tuple(c * s for c in num) if any(num) else 0

    return order, den, [[entry(*x) for x in row] for row in rows]


def _int(order, k):
    """The entry of the integer k."""
    return k if order == 1 or not k else (k,) + (0,) * (euler_phi(order) - 1)


def _cyc(order, x, den):
    """The CycNum x / den."""
    return _make(order, (x,) if order == 1 else x or (0,) * euler_phi(order), den)


def _embed(order, data, to):
    """Rows of entries at order, re-expressed at `to`, a multiple of it."""
    if order == to:
        return data
    return [[tuple(_map_num(to, (x,) if order == 1 else x, to // order)) if x else 0 for x in row] for row in data]


def _dot(order, pairs):
    """The sum of a * b over pairs of entries; zero factors are skipped."""
    if order == 1:
        return sum([a * b for a, b in pairs])
    pairs = [(a, b) for a, b in pairs if a and b]
    t = _dot_num(order, pairs) if pairs else ()
    return tuple(t) if any(t) else 0


def _coefs(order, row, op, k):
    """op(c, k) on every integer coefficient c of a row of entries."""
    return [op(x, k) for x in row] if order == 1 else [tuple(op(c, k) for c in x) if x else 0 for x in row]


def _coefficients(order, rows):
    return [c for row in rows for x in row for c in ((x,) if order == 1 else x or ())]


def _mat(order, den, data, cols, m=None):
    """The matrix data / den at order, brought to the least order holding its
    entries (cyclo._least_field) and to lowest terms; m is an instance to set
    up, or None for a new Mat."""
    data = [tuple(r) for r in data]
    if order > 1:
        order, low, d = _least_field(order, [x for row in data for x in row])
        low = [(c[0] if order == 1 else tuple(c)) if c else 0 for c in low]
        data, den = [low[i : i + cols] for i in range(0, len(low), cols)], den * d
    g = gcd(den, *_coefficients(order, data))
    if g != 1:
        den //= g
        data = [_coefs(order, row, floordiv, g) for row in data]
    return _set(order, den, data, cols, m)


def _set(order, den, data, cols, m=None):
    """m (an instance, or None for a new Mat) holding data / den at order as they are: least order, lowest terms."""
    m = object.__new__(Mat) if m is None else m
    data = tuple(map(tuple, data))
    for name, value in (("rows", len(data)), ("cols", cols), ("order", order), ("den", den), ("data", data)):
        object.__setattr__(m, name, value)
    return m


class Mat:
    """Rectangular matrix over Q(zeta_order): int rows over one denominator.
    An integer matrix is a Mat at order 1 over denominator 1, whose `data`
    are its ints (smith, dp4)."""

    __slots__ = ("rows", "cols", "order", "den", "data", "_entries", "_det", "_mults", "_powers")

    def __init__(self, entries):
        entries = [list(r) for r in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged rows")
        _mat(*_rows_of(entries), len(entries[0]), self)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def identity(n):
        return _set(1, 1, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def diagonal(values):
        """diag(values): the n values are read once, and the zeros off the
        diagonal are laid out as int entries."""
        order, den, (row,) = _rows_of([list(values)])
        if not row:
            raise ValueError("matrix must be nonempty")
        return _mat(order, den, [[x if i == j else 0 for j in range(len(row))] for i, x in enumerate(row)], len(row))

    @property
    def entries(self):
        """The entries as CycNum, made on first use."""
        e = getattr(self, "_entries", None)
        if e is None:
            e = tuple(tuple(_cyc(self.order, x, self.den) for x in row) for row in self.data)
            object.__setattr__(self, "_entries", e)
        return e

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.order, self.den, self.data)

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(x) for x in row) for row in self.entries
        )
        return f"Mat[{body}]"

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise DimensionMismatch("matrix product shape mismatch")
            return _product(self, other)
        corder, cden, ((c,),) = _rows_of([[other]])
        order = lcm(self.order, corder)
        c = _embed(corder, [[c]], order)[0][0]
        rows = _embed(self.order, self.data, order)
        data = [[x * c for x in r] for r in rows] if order == 1 else [[_dot(order, ((x, c),)) for x in r] for r in rows]
        return _mat(order, self.den * cden, data, self.cols)

    def __rmul__(self, other):
        return self * other

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix sum shape mismatch")
        order = lcm(self.order, other.order)
        da, db = _int(order, self.den), _int(order, other.den)
        rows = zip(_embed(self.order, self.data, order), _embed(other.order, other.data, order))
        if order == 1:
            data = [[x * db + y * da for x, y in zip(r1, r2)] for r1, r2 in rows]
        else:
            data = [[_dot(order, ((x, db), (y, da))) for x, y in zip(r1, r2)] for r1, r2 in rows]
        return _mat(order, self.den * other.den, data, self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _set(self.order, self.den, [_coefs(self.order, r, mul, -1) for r in self.data], self.cols)

    def __pow__(self, k):
        """M^k by repeated squaring.  Raises CapExceeded, instead of running
        on, once an integer of the result or of a square in use passes
        2^MAX_POWER_BITS: the powers of a matrix of infinite order grow
        without bound."""
        if self.rows != self.cols:
            raise DimensionMismatch("power of nonsquare matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = self.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # the square after the last bit would go unused
                base = base * base
            for m in (result, base):
                if max(m.den, *map(abs, _coefficients(m.order, m.data))).bit_length() > MAX_POWER_BITS:
                    raise CapExceeded(f"matrix power has entries beyond {MAX_POWER_BITS} bits")
        return result

    def transpose(self):
        return _set(self.order, self.den, zip(*self.data), self.rows)

    def apply(self, vec):
        """Matrix times column vector (a sequence of CycNum)."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(row[0] for row in _product(self, Mat([[x] for x in vec])).entries)

    def det(self) -> CycNum:
        """The determinant, computed on first use and kept, like `entries`."""
        d = getattr(self, "_det", None)
        if d is None:
            if self.rows != self.cols:
                raise DimensionMismatch("determinant of nonsquare matrix")
            pivots, (a, b) = _echelon(self.order, list(self.data))
            full = len(pivots) == self.rows
            d = _cyc(self.order, a, self.den**self.rows) / _cyc(self.order, b, 1) if full else ZERO
            object.__setattr__(self, "_det", d)
        return d

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of nonsquare matrix")
        n, scaled = self.rows, _int(self.order, self.den)
        # [A | den I] reduces to [I | (A / den)^-1]
        rows = [r + tuple(scaled if i == j else 0 for j in range(n)) for i, r in enumerate(self.data)]
        rows, pivots, den = _rref(self.order, rows)
        if pivots != list(range(n)):
            raise Singular("matrix is singular")
        return _mat(self.order, den, [row[n:] for row in rows], n)

    def rank(self) -> int:
        return len(_echelon(self.order, list(self.data))[0])

    def trace(self) -> CycNum:
        one = _int(self.order, 1)
        return _cyc(self.order, _dot(self.order, [(row[i], one) for i, row in enumerate(self.data)]), self.den)

    def is_diagonal(self) -> bool:
        """Whether every entry off the main diagonal is zero."""
        return not any(x for i, row in enumerate(self.data) for j, x in enumerate(row) if i != j)

    def is_scalar(self):
        """Return the scalar c when the matrix equals c*I, else None."""
        if self.rows != self.cols or not self.is_diagonal():
            return None
        c = self.data[0][0]
        return _cyc(self.order, c, self.den) if all(row[i] == c for i, row in enumerate(self.data)) else None

    def is_identity(self) -> bool:
        c = self.is_scalar()
        return c is not None and c.is_one()

    def minus_count(self) -> int:
        """min(n+, n-) for a matrix that is lambda * diag(+-1) in some basis,
        n+ entries lambda and n- entries -lambda, from invariants on the int
        rows: tr(M)^2 = (n+ - n-)^2 lambda^2, lambda^2 = (M^2)_00 (row 0 times
        column 0), so (n+ - n-)^2 is a ratio of nonzero coefficients."""
        o, one = self.order, _int(self.order, 1)
        tr = _dot(o, [(row[i], one) for i, row in enumerate(self.data)])
        t2 = _coefficients(o, [[_dot(o, ((tr, tr),))]])
        lam2 = _coefficients(o, [[_dot(o, zip(self.data[0], [row[0] for row in self.data]))]])
        i = next(i for i, c in enumerate(lam2) if c)
        return (self.rows - isqrt(t2[i] // lam2[i] if t2 else 0)) // 2


def _times(order, rows, vec):
    """The products of int rows with an int column vector, at one order."""
    if order == 1:
        return [sum(map(mul, row, vec)) for row in rows]
    return [_dot(order, zip(row, vec)) for row in rows]


def _product(a, b):
    order = lcm(a.order, b.order)
    rows = _embed(a.order, a.data, order)
    cols = [_times(order, rows, col) for col in zip(*_embed(b.order, b.data, order))]
    return _mat(order, a.den * b.den, zip(*cols), b.cols)


def _echelon(order, rows, reduced=False):
    """Fraction-free elimination of int rows in place: to row echelon form,
    or with `reduced` also clearing each pivot column above the pivot
    (Gauss-Jordan), to reduced form up to one factor per row.

    The pivot is the first nonzero entry at or below the current row; the
    other rows change as _clear_column says, unless the pivot column is zero
    in every target row: then no row changes, prev stays the previous pivot
    and only the pivot joins the determinant.  Returns (pivots, (a, b)): for
    square rows of full rank, a / b is their determinant."""
    pivots = []
    a = b = _int(order, 1)
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None) if r < len(rows) else None
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            a = _coefs(order, [a], mul, -1)[0]
        p = rows[r][c]
        targets = [i for i in range(len(rows)) if i != r] if reduced else range(r + 1, len(rows))
        if any(rows[i][c] for i in targets):  # else no row changes and prev stays: see _clear_column
            pm, d = _clear_column(order, rows, r, c, targets, prev)
            # the determinant gained the factor pm / d
            a = _coefs(order, [a], mul, d)[0]
            b = _dot(order, ((b, pm),))
            prev = p
        a = _dot(order, ((a, p),))  # the pivot joins the diagonal
        pivots.append(c)
    return pivots, (a, b)


def _rref(order, rows):
    """Reduced row echelon form in place: returns (rows, pivot columns, den)
    with rows[k] / den the k-th row of the reduced form (pivot 1)."""
    pivots, _ = _echelon(order, rows, reduced=True)
    # (P, N) with pivot * P = N, an integer
    invs = [(1, rows[k][c]) if order == 1 else _inverse_num(order, rows[k][c]) for k, c in enumerate(pivots)]
    den = lcm(*(abs(norm) for _, norm in invs))
    for k, (inv, norm) in enumerate(invs):
        row = rows[k] if order == 1 else [_dot(order, ((x, tuple(inv)),)) for x in rows[k]]
        rows[k] = _coefs(order, row, mul, den // norm)
    return rows, pivots, den


def _clear_column(order, rows, r, c, targets, prev):
    """rows[i] becomes (p * rows[i] - f * rows[r]) / d for i in targets, with
    p = rows[r][c] the pivot and f = rows[i][c].

    Over Q (Bareiss) d = prev, the previous pivot, and every target changes,
    f = 0 or not, so that every entry is a minor of the input over one
    leading block, the rows and columns of the pivots cleared so far, and the
    division is exact (Sylvester's identity).  A step with f = 0 in every
    target may be skipped whole (_echelon does): the entries stay minors over
    the same block, whose determinant is still prev.  A single row with
    f = 0 among rows with f != 0 may not: it would stay a minor over a
    smaller block than its neighbours, and a later division by prev would be
    inexact.  Over Q(zeta_N) only targets with f != 0 change and
    d is the gcd of the new row's integer coefficients.  Returns (pm, dm),
    the products of the multipliers p and of the divisors d: the
    determinant was multiplied by pm / dm."""
    piv = rows[r]
    p = piv[c]
    if order == 1:
        for i in targets:
            row, f = rows[i], rows[i][c]
            if f or p != prev:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, piv)]
        return p ** len(targets), prev ** len(targets)
    pm, dm = _int(order, 1), 1
    for i in targets:
        f = rows[i][c]
        if f:
            nf = _coefs(order, [f], mul, -1)[0]
            new = [_dot(order, ((p, x), (nf, y))) for x, y in zip(rows[i], piv)]
            g = gcd(*_coefficients(order, [new])) or 1
            rows[i] = _coefs(order, new, floordiv, g)
            pm, dm = _dot(order, ((pm, p),)), dm * g
    return pm, dm


def solve(cols, target):
    """The coefficients x with sum_j x[j] * cols[j] == target, or None.

    Entries may be CycNum, int or Fraction; the solution is CycNum.  Unknowns
    the system leaves free are set to zero, and the solution is checked
    against every equation before it is returned."""
    m = Mat([[col[i] for col in cols] + [t] for i, t in enumerate(target)])
    n, order, eqs = len(cols), m.order, m.data
    rows, pivots, den = _rref(order, list(eqs))
    if pivots and pivots[-1] >= n:
        return None
    sol = [0] * n
    for r, c in enumerate(pivots):
        sol[c] = rows[r][n]
    if _times(order, [e[:n] for e in eqs], sol) != _coefs(order, [e[n] for e in eqs], mul, den):
        return None
    return tuple(_cyc(order, x, den) for x in sol)


class Subspace:
    """Linear subspace given by a canonical reduced-row-echelon basis, held
    as the rows of a Mat."""

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim, vectors):
        vectors = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionMismatch("vector length != ambient dimension")
        # a vector's scale leaves the span alone, so the denominator is dropped
        order, _, rows = _rows_of(vectors) if vectors else (1, 1, [])
        _span(ambient_dim, order, rows, self)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def basis(self):
        return self._rows.entries

    @property
    def dim(self):
        return self._rows.rows

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self):
        return hash((self.ambient_dim, self._rows.key()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def intersect(self, other) -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient_dim, [])
        # solve A^T u = B^T w: kernel of [A^T | -B^T]
        a, b = self._rows, other._rows
        order = lcm(a.order, b.order)
        at = list(zip(*_embed(a.order, a.data, order)))
        bt = [tuple(_coefs(order, w, mul, -1)) for w in zip(*_embed(b.order, b.data, order))]
        ker = kernel(_mat(order, 1, [x + w for x, w in zip(at, bt)], a.rows + b.rows))._rows
        vecs = [_times(order, at, u[: a.rows]) for u in _embed(ker.order, ker.data, order)]
        return _span(self.ambient_dim, order, vecs)

    def image_under(self, m: Mat) -> "Subspace":
        s = self._rows
        order = lcm(s.order, m.order)
        rows = _embed(m.order, m.data, order)
        return _span(m.rows, order, [_times(order, rows, v) for v in _embed(s.order, s.data, order)])


def _span(n, order, rows, s=None):
    """The span of int rows at order, as a Subspace (set up on s if given)."""
    rows, pivots, den = _rref(order, list(rows))
    s = object.__new__(Subspace) if s is None else s
    object.__setattr__(s, "ambient_dim", n)
    object.__setattr__(s, "_rows", _mat(order, den, rows[: len(pivots)], n))
    return s


def row_combinations_span(order, coefs, rows) -> Subspace:
    """The span of the vectors sum_k c[k] * rows[k], one for each row c of
    coefs; coefs and rows are int entries at one order."""
    return _span(len(rows[0]), order, [_times(order, list(zip(*rows)), c) for c in coefs])


def kernel(m: Mat) -> Subspace:
    """Right null space of a matrix."""
    rows, pivots, den = _rref(m.order, list(m.data))
    one = _int(m.order, den)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        vec = [0] * m.cols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = _coefs(m.order, [rows[i][fc]], mul, -1)[0]
        basis.append(vec)
    return _span(m.cols, m.order, basis)


@dataclass(frozen=True)
class OrderInfo:
    order: int  # least n with M^n = identity
    traces: tuple  # tr(M^j) for 0 <= j < order
    powers: tuple  # M^j for 1 <= j < order


def operator_order(m: Mat) -> OrderInfo:
    """Order data of a matrix, the one test of finite order: NotFiniteOrder
    at once if its determinant (kept on m) is not a root of unity, or if no
    power up to MAX_ORDER is 1."""
    if m.rows != m.cols:
        raise DimensionMismatch("order of nonsquare matrix")
    _check_root_of_unity(m.det())
    power = m
    traces = [CycNum.from_rational(m.rows)]
    powers = []
    for n in range(1, MAX_ORDER + 1):
        if power.is_identity():
            return OrderInfo(n, tuple(traces), tuple(powers))
        traces.append(power.trace())
        powers.append(power)
        power = power * m
    raise NotFiniteOrder(f"no power up to {MAX_ORDER} equal to the identity")


def _check_root_of_unity(d):
    """NotFiniteOrder unless the determinant d, of least order N, has
    d^lcm(2, N) = 1: the roots of unity of Q(zeta_N)."""
    d = d.canonical()
    if not (d ** lcm(2, d.order)).is_one():
        raise NotFiniteOrder(f"determinant {d!r}, not a root of unity: infinite order")


def eigen_multiplicities(m: Mat):
    """The order n of a finite-order operator and the multiplicity of each
    eigenvalue zeta_n^k, k = 0..n-1, read off the traces of its powers.

    zeta_n^k has multiplicity (1/n) s_k, s_k = sum_j zeta_n^(-jk) tr(M^j)
    (Serre, Linear Representations of Finite Groups, 2.6), from the powers
    operator_order forms.  s_k is rational, so it is its coefficient of 1 in
    the power basis of Q(zeta_L), L = lcm(n, the traces' orders): an int sum
    over the powers of zeta_L.  The result is kept on m, and M^2..M^(n-1)
    beside it for eigenspaces_finite_order and `groups.breadth_first` (read by
    `powers`), so the powers are formed once per matrix (M^1, m itself, is left
    out: m holding it would be a reference cycle, freed only by the gc)."""
    if getattr(m, "_mults", None) is None:
        info = operator_order(m)
        n, traces = info.order, info.traces
        big, den = lcm(n, *(t.order for t in traces)), lcm(*(t.den for t in traces))
        const = [dict(row).get(0, 0) for row in power_table(big)[:big]]  # coefficient of 1 in zeta_L^e
        terms = [
            (i * (big // t.order), j * (big // n), c * (den // t.den))
            for j, t in enumerate(traces)
            for i, c in enumerate(t.num)
            if c
        ]
        sums = [sum(w * const[(e - s * k) % big] for e, s, w in terms) for k in range(n)]
        assert all(x % (n * den) == 0 for x in sums), "multiplicities must be integers"
        object.__setattr__(m, "_powers", info.powers[1:])
        object.__setattr__(m, "_mults", (n, tuple(x // (n * den) for x in sums)))
    return m._mults


def powers(m: Mat) -> tuple:
    """m, m^2, .., m^(n-1) for m of finite order n (m alone at n = 1), as kept by eigen_multiplicities or point_action."""
    eigen_multiplicities(m)
    return (m, *m._powers)


def point_action(h: Mat) -> Mat:
    """(hᵀ)⁻¹, the action on points of a finite-order h, read off the powers
    of h that eigen_multiplicities keeps.  With n the order of h, h⁻¹ =
    h^(n-1), so the action is c = (h^(n-1))ᵀ (I for n = 1), its powers are
    c^j = (h^(n-j))ᵀ and the multiplicity of zeta_n^k for c is that of
    zeta_n^(-k) for h: all are kept on c, so neither eigen_multiplicities(c)
    nor eigenspaces_finite_order(c) forms a power or takes an inverse.  A
    NotFiniteOrder names det(c) = 1/det(h) when the determinant is at fault,
    as operator_order(c) would."""
    try:
        n, mults = eigen_multiplicities(h)
    except NotFiniteOrder:
        if h.det():
            _check_root_of_unity(1 / h.det())
        raise
    kept = powers(h)  # h^1 .. h^(n-1)
    c = kept[-1].transpose()
    object.__setattr__(c, "_powers", tuple(p.transpose() for p in reversed(kept[:-1])))
    object.__setattr__(c, "_mults", (n, (mults[0], *reversed(mults[1:]))))
    return c


def eigenspaces_finite_order(m: Mat):
    """All nonzero eigenspaces of a finite-order operator as (eigenvalue, space)
    pairs, checked against eigen_multiplicities.

    The eigenspace of lam = zeta_n^k is the image of n P, P = (1/n) sum_j
    lam^(-j) M^j the projection onto it (Serre, 2.6), summed from the powers
    eigen_multiplicities keeps.  Over the int rows at L = lcm(n, the powers'
    orders), lam^(-j) is zeta_L^e, so each coefficient of M^j only moves to
    the row of power_table(L) for its exponent plus e.  Every column of n P
    is projected, so a space larger than its multiplicity shows."""
    n, mults = eigen_multiplicities(m)
    if sum(mults) != m.rows:
        raise NotFiniteOrder(f"eigenvalue multiplicities add up to {sum(mults)}, not {m.rows}")
    kept = powers(m)
    big, den = lcm(n, *(p.order for p in kept)), lcm(*(p.den for p in kept))
    table, phi = power_table(big), euler_phi(big)
    # entry (a, b) of sum_j zeta_L^(-js) M^j by columns b, as (exponent, j L / n,
    # weight) terms, M^0 = I first
    terms = [[[(0, 0, den)] if a == b else [] for a in range(m.rows)] for b in range(m.cols)]
    for j, p in enumerate(kept, 1):
        sub, step, scale = big // p.order, j * (big // n), den // p.den
        for a, row in enumerate(p.data):
            for b, x in enumerate(row):
                for i, c in enumerate((x,) if p.order == 1 else x or ()):
                    if c:
                        terms[b][a].append((i * sub, step, c * scale))
    spaces = []
    for k, mult in enumerate(mults):
        if mult:
            cols = []
            for col in terms:
                vec = []
                for entry in col:
                    out = [0] * phi
                    for e, s, w in entry:
                        for i, t in table[(e - s * k) % big]:
                            out[i] += w * t
                    vec.append((out[0] if big == 1 else tuple(out)) if any(out) else 0)
                cols.append(vec)
            lam, space = zeta(n, k), _span(m.rows, big, cols)
            if space.dim != mult:
                raise NotFiniteOrder(f"eigenspace of {lam!r} has dimension {space.dim}, not its multiplicity {mult}")
            spaces.append((lam, space))
    return spaces

