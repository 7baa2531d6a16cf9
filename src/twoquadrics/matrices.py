"""Exact linear algebra over cyclotomic fields.

Matrices, canonical row-echelon subspaces, eigenspaces of finite-order
operators, and quadratic forms.  The kernels skip zeros: products sum only
terms with two nonzero factors (an empty sum is ZERO, stored at order 1),
and elimination updates only the pivot row's nonzero columns, since
x - f*0 = x.  Values, equality and keys do not depend on a zero's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .cyclo import CycNum, ONE, ZERO, lcm, zeta
from .errors import (
    DimensionMismatch,
    NotFiniteOrder,
    OrderExceedsCap,
    Singular,
)


class Mat:
    """Rectangular matrix of CycNum entries, reconciled to a common order."""

    __slots__ = ("rows", "cols", "entries", "_contra")

    def __init__(self, entries):
        entries = [[CycNum._coerce(x) for x in row] for row in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged rows")
        order = lcm(*{x.order for row in entries for x in row})
        entries = tuple(
            tuple(x if x.order == order else x.embed(order) for x in row)
            for row in entries
        )
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]))
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        values = [CycNum._coerce(v) for v in values]
        n = len(values)
        return cls(
            [[values[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return tuple(tuple(x.key() for x in row) for row in self.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(x) for x in row) for row in self.entries
        )
        return f"Mat[{body}]"

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise DimensionMismatch("matrix product shape mismatch")
            cols = [_times(self.entries, col) for col in zip(*other.entries)]
            return Mat(list(zip(*cols)))
        c = CycNum._coerce(other)
        return Mat([[c * x for x in row] for row in self.entries])

    def __rmul__(self, other):
        return self * other

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix sum shape mismatch")
        return Mat(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return self + (other * CycNum.from_rational(-1))

    def __neg__(self):
        return self * CycNum.from_rational(-1)

    def __pow__(self, k):
        if self.rows != self.cols:
            raise DimensionMismatch("power of nonsquare matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = Mat.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def transpose(self):
        return Mat(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def apply(self, vec):
        """Matrix times column vector (a sequence of CycNum)."""
        vec = [CycNum._coerce(v) for v in vec]
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(_times(self.entries, vec))

    def det(self) -> CycNum:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of nonsquare matrix")
        pivots, det = _echelon([list(r) for r in self.entries])
        return det if len(pivots) == self.rows else ZERO

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of nonsquare matrix")
        n = self.rows
        rows, pivots = _rref(
            [list(r) + list(e) for r, e in zip(self.entries, Mat.identity(n).entries)]
        )
        if pivots != list(range(n)):
            raise Singular("matrix is singular")
        return Mat([row[n:] for row in rows])

    def rank(self) -> int:
        return len(_echelon([list(r) for r in self.entries])[0])

    def is_diagonal(self) -> bool:
        """Whether every entry off the main diagonal is zero."""
        return all(
            x.is_zero()
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
            if i != j
        )

    def is_scalar(self):
        """Return the scalar c when the matrix equals c*I, else None."""
        if self.rows != self.cols or not self.is_diagonal():
            return None
        c = self.entries[0][0]
        return c if all(row[i] == c for i, row in enumerate(self.entries)) else None

    def is_identity(self) -> bool:
        c = self.is_scalar()
        return c is not None and c.is_one()


def _times(rows, vec):
    """The products of the rows with a column vector.  The vector's nonzero
    entries are listed once; each row sums only the terms where its entry is
    nonzero too, and an empty sum is ZERO."""
    nz = [(k, y) for k, y in enumerate(vec) if y]
    out = []
    for row in rows:
        terms = [row[k] * y for k, y in nz if row[k]]
        out.append(reduce(add, terms) if terms else ZERO)
    return out


def _echelon(rows):
    """Forward elimination in place, to row echelon form with unit pivots.

    Entries may come from any field whose elements are false exactly at zero
    and invert as ``1 / x`` (CycNum, Fraction).  The pivot is the first
    nonzero entry at or below the current row; rows change in place.
    Returns (pivot columns, d), where d is the product of the pivots times
    the sign of the row swaps: the determinant of a square matrix of full
    rank."""
    pivots = []
    det = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = -det
        piv = rows[r]
        det = det * piv[c]
        inv = 1 / piv[c]
        for j in range(c, len(piv)):
            if piv[j]:
                piv[j] = piv[j] * inv
        _clear_column(rows, r, c, range(r + 1, len(rows)))
        pivots.append(c)
        r += 1
    return pivots, det


def _rref(rows):
    """In-place reduced row echelon form; returns (rows, pivot columns).

    The forward pass of _echelon, then elimination above each pivot."""
    pivots, _ = _echelon(rows)
    for r, c in enumerate(pivots):
        _clear_column(rows, r, c, range(r))
    return rows, pivots


def _clear_column(rows, r, c, targets):
    """rows[i] -= rows[i][c] * rows[r] in place for i in targets, where
    rows[r] has its pivot 1 at column c and zeros before it.  Only the pivot
    row's nonzero columns change, since x - f*0 = x."""
    piv = rows[r]
    nz = [j for j in range(c, len(piv)) if piv[j]]
    for i in targets:
        row = rows[i]
        f = row[c]
        if f:
            for j in nz:
                row[j] = row[j] - f * piv[j]


def solve(cols, target):
    """The coefficients x with sum_j x[j] * cols[j] == target, or None.

    Works over the fields _echelon accepts; unknowns the system leaves free
    are set to zero.  The solution is checked against every equation before
    it is returned."""
    n = len(cols)
    rows, pivots = _rref([[col[i] for col in cols] + [t] for i, t in enumerate(target)])
    if n in pivots:
        return None
    sol = [target[0] * 0] * n  # zero of the entries' field
    for r, c in enumerate(pivots):
        sol[c] = rows[r][n]
    for i, t in enumerate(target):
        if sum(x * col[i] for x, col in zip(sol, cols)) != t:
            return None
    return tuple(sol)


class Subspace:
    """Linear subspace given by a canonical reduced-row-echelon basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, vectors):
        rows = [[CycNum._coerce(x) for x in v] for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length != ambient dimension")
        rows, pivots = _rref(rows)
        rows = rows[: len(pivots)]
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in rows))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full(cls, n):
        return cls(n, Mat.identity(n).entries)

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash(
            (self.ambient_dim, tuple(tuple(x.key() for x in r) for r in self.basis))
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains_vector(self, vec) -> bool:
        vec = [CycNum._coerce(v) for v in vec]
        rows = [list(r) for r in self.basis] + [vec]
        return len(_echelon(rows)[0]) == self.dim

    def contains_subspace(self, other) -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def intersect(self, other) -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # solve A^T u = B^T w: kernel of [A^T | -B^T]
        at, bt = list(zip(*self.basis)), list(zip(*other.basis))
        ker = kernel(Mat([list(x) + [-y for y in w] for x, w in zip(at, bt)]))
        return Subspace(self.ambient_dim, [_times(at, u[: self.dim]) for u in ker.basis])

    def image_under(self, m: Mat) -> "Subspace":
        return Subspace(m.rows, [m.apply(v) for v in self.basis])


def kernel(m: Mat) -> Subspace:
    """Right null space of a matrix."""
    rows, pivots = _rref([list(r) for r in m.entries])
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * m.cols
        vec[fc] = ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return Subspace(m.cols, basis)


@dataclass(frozen=True)
class OrderInfo:
    order: int  # least n with M^n = identity
    projective_order: int  # least n with M^n scalar
    scalar: CycNum  # the scalar at the projective order


def operator_order(m: Mat, cap: int = 360) -> OrderInfo:
    """Order data of an invertible matrix, by direct iteration up to cap."""
    if m.rows != m.cols:
        raise DimensionMismatch("order of nonsquare matrix")
    power = m
    proj = None
    proj_scalar = None
    for n in range(1, cap + 1):
        c = power.is_scalar()
        if c is not None:
            if proj is None:
                proj = n
                proj_scalar = c
            if c.is_one():
                return OrderInfo(n, proj, proj_scalar)
        power = power * m
    raise OrderExceedsCap(f"no power up to {cap} is the identity")


def eigenspaces_finite_order(m: Mat, cap: int = 360):
    """All nonzero eigenspaces of a finite-order operator.

    Eigenvalue candidates are exactly the n-th roots of unity for n the
    operator order; finite order over characteristic zero guarantees the
    spaces sum to the ambient space.
    """
    try:
        info = operator_order(m, cap)
    except OrderExceedsCap as exc:
        raise NotFiniteOrder(str(exc)) from exc
    n = info.order
    spaces = []
    total = 0
    for k in range(n):
        lam = zeta(n, k)
        space = kernel(m - lam * Mat.identity(m.rows))
        if space.dim:
            spaces.append((lam, space))
            total += space.dim
    if total != m.rows:
        raise NotFiniteOrder("eigenspaces do not exhaust the ambient space")
    return spaces


class Quadric:
    """Quadratic form stored by its symmetric Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Mat):
        if not isinstance(gram, Mat):
            gram = Mat(gram)
        if gram.rows != gram.cols:
            raise DimensionMismatch("Gram matrix must be square")
        if gram != gram.transpose():
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, *a):
        raise AttributeError("Quadric is immutable")

    @classmethod
    def from_diagonal(cls, values):
        return cls(Mat.diagonal(values))

    @property
    def size(self):
        return self.gram.rows

    def __eq__(self, other):
        return isinstance(other, Quadric) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Quadric({self.gram!r})"

    def evaluate(self, v) -> CycNum:
        return self.polar(v, v)

    def polar(self, u, v) -> CycNum:
        u = [CycNum._coerce(x) for x in u]
        v = [CycNum._coerce(x) for x in v]
        if len(u) != self.size or len(v) != self.size:
            raise DimensionMismatch("vector length mismatch")
        gv = self.gram.apply(v)
        return _times([u], gv)[0]

    def restrict(self, s: Subspace) -> "Quadric | None":
        """Gram matrix of the form restricted to the basis of s.

        Returns None for the zero subspace (empty matrix)."""
        if s.ambient_dim != self.size:
            raise DimensionMismatch("subspace ambient dimension mismatch")
        if s.dim == 0:
            return None
        return Quadric(
            Mat(
                [
                    [self.polar(s.basis[i], s.basis[j]) for j in range(s.dim)]
                    for i in range(s.dim)
                ]
            )
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.gram.entries for x in row)


def contragredient(m: Mat) -> Mat:
    """Inverse transpose: the action on points dual to one on coordinates.

    The map is an involution, so the result keeps m: taking the
    contragredient of a contragredient inverts nothing."""
    c = getattr(m, "_contra", None)
    if c is None:
        c = m.inverse().transpose()
        object.__setattr__(c, "_contra", m)
    return c


def kronecker(a: Mat, b: Mat) -> Mat:
    return Mat(
        [
            [
                a.entries[i][j] * b.entries[k][l]
                for j in range(a.cols)
                for l in range(b.cols)
            ]
            for i in range(a.rows)
            for k in range(b.rows)
        ]
    )
