"""Binary forms over cyclotomic fields: discriminants, root permutations,
and exact root extraction for degree <= 2.

Projective roots (u : v) are compared by key, not pairwise: the key of a
column of int entries (see matrices) is v/u in lowest terms, or None at
u = 0.  `checked_roots` keeps the roots as the columns of a 2 x n Mat R with
a dict from key to label, so distinctness is a dict test; it evaluates the
form at each root on the int rows of R and of the coefficients, by Horner's
rule on `matrices._dot`, with no CycNum arithmetic.  `root_images` maps all
roots by one product Mᵀ·R and finds each image by its key."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cyclo import CycNum, ONE, ZERO, _dot_num, _inverse_num, cyc_sqrt, lcm
from .errors import NotARoot, NotClosed, UnsupportedCase
from .matrices import Mat, _dot, _embed, _int, _rows_of


class BinaryForm:
    """Homogeneous form sum_k c_k t1^(d-k) t2^k of allocated degree d."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = tuple(CycNum._coerce(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("BinaryForm is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, tuple(c.key() for c in self.coeffs)))

    def __repr__(self):
        terms = []
        d = self.degree
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            mono = []
            if d - k:
                mono.append(f"t1^{d - k}" if d - k > 1 else "t1")
            if k:
                mono.append(f"t2^{k}" if k > 1 else "t2")
            body = "*".join(mono) or "1"
            terms.append(f"({c!r})*{body}")
        return " + ".join(terms) or "0"

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def evaluate(self, t1, t2) -> CycNum:
        """f(t1, t2) by Horner's rule in t1, building the powers of t2 up."""
        t1 = CycNum._coerce(t1)
        t2 = CycNum._coerce(t2)
        total, power = self.coeffs[0], ONE
        for c in self.coeffs[1:]:
            power = power * t2
            total = total * t1
            if c:
                total = total + c * power
        return total

    def partial_t1(self) -> "BinaryForm":
        d = self.degree
        if d == 0:
            return BinaryForm(0, [ZERO])
        return BinaryForm(d - 1, [(d - k) * self.coeffs[k] for k in range(d)])

    def partial_t2(self) -> "BinaryForm":
        d = self.degree
        if d == 0:
            return BinaryForm(0, [ZERO])
        return BinaryForm(d - 1, [k * self.coeffs[k] for k in range(1, d + 1)])


def resultant(f: BinaryForm, g: BinaryForm) -> CycNum:
    """Sylvester resultant of two binary forms at their allocated degrees."""
    m, n = f.degree, g.degree
    if m == 0 or n == 0:
        # resultant against a constant form c is c^deg(other)
        if m == 0:
            return f.coeffs[0] ** n
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [ZERO] * size
        for k, c in enumerate(f.coeffs):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [ZERO] * size
        for k, c in enumerate(g.coeffs):
            row[i + k] = c
        rows.append(row)
    return Mat(rows).det()


def bform_discriminant(f: BinaryForm) -> CycNum:
    """Zero exactly when f has a repeated projective root (or f == 0).

    Computed as the resultant of the two partial derivatives; by Euler's
    relation their common projective zeros are the repeated roots of f.
    """
    if f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    if f.is_zero():
        return ZERO
    if f.degree == 1:
        return ONE
    return resultant(f.partial_t1(), f.partial_t2())


class Roots(NamedTuple):
    """Checked roots, distinct projective points labeled 1..n: `points`, the
    2 x n Mat whose column k is root k + 1, and `labels`, each root's key
    (see _keys) mapped to its label."""

    points: Mat
    labels: dict


def _keys(order, data):
    """The key of each column (u, v) of 2-row int entries at order: v/u in
    lowest terms as (numerator, positive int denominator), from _inverse_num
    above order 1, or None for u = 0.  Columns at one order have equal keys
    exactly when they are the same projective point."""
    keys = []
    for u, v in zip(*data):
        if not u:
            keys.append(None)
            continue
        if order == 1:
            num, norm = (v,), u
        else:
            inv, norm = _inverse_num(order, u)
            num = _dot_num(order, ((v, inv),)) if v else (0,) * len(u)
        g = gcd(norm, *num) if norm > 0 else -gcd(norm, *num)
        keys.append((tuple(x // g for x in num), norm // g))
    return keys


def checked_roots(f: BinaryForm, roots) -> Roots:
    """`roots`, projective (u, v) pairs, as Roots once checked to be distinct
    roots of the nonzero form f (else ValueError, or NotARoot).  The form is
    evaluated on the int rows of `points` and of f's coefficients, in the
    field of both, by Horner's rule in u with the powers of v built up."""
    if f.is_zero():
        raise ValueError("the form is zero, so every point is a root")
    points = Mat(list(zip(*roots)))
    forder, _, coeffs = _rows_of([f.coeffs])
    order = lcm(points.order, forder)
    ((c0, *coeffs),) = _embed(forder, coeffs, order)
    us, vs = _embed(points.order, points.data, order)
    labels = {}
    for i, (u, v, key) in enumerate(zip(us, vs, _keys(points.order, points.data))):
        if not u and not v:
            raise ValueError(f"root {i + 1} is (0, 0)")
        if key in labels:
            raise ValueError(f"roots {labels[key]} and {i + 1} coincide")
        total, power = c0, _int(order, 1)
        for c in coeffs:
            power = _dot(order, ((power, v),))
            total = _dot(order, ((total, u), (c, power)))
        if total:
            raise NotARoot(f"point {i + 1} is not a root of the form")
        labels[key] = i + 1
    return Roots(points, labels)


def root_images(roots: Roots, m: Mat):
    """The 1-indexed permutation of checked roots induced by a nonsingular 2x2
    pencil action M = ((a, b), (c, d)), which maps (u, v) by Mᵀ to
    (a u + c v, b u + d v), injective on distinct points: one product Mᵀ·R
    with the roots' points R, then one key lookup per image, the keys taken
    in the field of both; NotClosed if a root leaves the list."""
    r = roots.points
    images = m.transpose() * r
    order = lcm(r.order, images.order)
    labels = roots.labels
    if order != r.order:
        labels = dict(zip(_keys(order, _embed(r.order, r.data, order)), range(1, r.cols + 1)))
    perm = []
    for i, key in enumerate(_keys(order, _embed(images.order, images.data, order))):
        if key not in labels:
            raise NotClosed(f"image of root {i + 1} is not in the root list")
        perm.append(labels[key])
    return tuple(perm)


def quadratic_roots(a, b, c):
    """Projective roots of the nonzero form a u^2 + b uv + c v^2 as a list of
    (u, v) pairs, one per root, repeated at a double root.

    Raises ValueError on the zero form, and UnsupportedCase when a root does
    not lie in the searched cyclotomic field.
    """
    a = CycNum._coerce(a)
    b = CycNum._coerce(b)
    c = CycNum._coerce(c)
    if a.is_zero() and b.is_zero() and c.is_zero():
        raise ValueError("the zero form vanishes everywhere")
    if a.is_zero():
        # v * (b u + c v): root at v = 0 plus the linear root
        return [(ONE, ZERO), (ONE, ZERO) if b.is_zero() else (c, -b)]
    disc = b * b - 4 * a * c
    s = cyc_sqrt(disc)
    if s is None:
        raise UnsupportedCase(
            "quadratic root requires a square root outside "
            f"Q(zeta_{lcm(disc.order, 24)})"
        )
    s, two_a = s.canonical(), 2 * a  # the root in its least field, where the points made from it are cheaper
    return [(-b + s, two_a), (-b - s, two_a)]
