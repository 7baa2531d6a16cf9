"""Pencils of quadrics with finite group actions.

Degeneracy binary form, smoothness, equivariance data (the pencil action of
a symmetry), fixed points on X and invariant lines for abelian actions.  The
degeneracy form of a diagonal pencil is the product of its linear factors,
multiplied out on the int rows; only a dense pencil's is interpolated from
sampled determinants.  A pencil keeps its first nonzero 2x2 minor of the
Grams' int entries (`Pencil.minor`), which is its independence check; a
symmetry's pencil action is read off that minor and checked at every other
entry of h G_i hᵀ, formed on the int rows, with no product and no
elimination (`equivariance`).
Fixed points and invariant lines meet X through one routine,
`_isotropic_points`: the points of a projective point or line that lie on X
(polar to given points, if any), or None when the whole line does, read off
the restricted Grams.  Its polar conditions and the common roots of two
restricted quadratics are kernels (`matrices.kernel`).  Both searches form
E Q_i Eᵀ once on the int rows, E the stacked bases of the character spaces
(`_in_basis`, by the congruence `equivariance` uses): each restricted Gram is a block, brought to its least field;
polar rows and line checks are int dot products of the points' coefficient
rows with it, and a line found is spanned by those rows times E.  CycNum
arithmetic is left to the roots of the restricted quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from math import lcm
from operator import mul

from .binforms import BinaryForm, bform_discriminant, quadratic_roots
from .cyclo import ONE, ZERO, _inverse_num
from .errors import DimensionMismatch, NotAbelian, NotASymmetry
from .groups import MatrixGroup, character_spaces, projective_fixed_locus
from .matrices import Mat, _coefs, _cyc, _dot, _embed, _int, _mat, _rows_of, _times, kernel, row_combinations_span


@dataclass(frozen=True)
class Pencil:
    g: int
    q1: Mat  # the Gram matrices of the two quadrics
    q2: Mat

    def __post_init__(self):
        g1, g2 = self.q1, self.q2
        for q in (g1, g2):
            if q.rows != q.cols:
                raise DimensionMismatch("Gram matrix must be square")
            if q != q.transpose():
                raise ValueError("Gram matrix must be symmetric")
        n = 2 * self.g + 2
        if n < 4:
            raise ValueError("need g >= 1")
        if g1.rows != n or g2.rows != n:
            raise DimensionMismatch("Gram size must be 2g+2")
        if self.minor is None:
            raise ValueError("Q1 and Q2 must be linearly independent")

    @property
    def size(self):
        return 2 * self.g + 2

    @classmethod
    def from_diagonals(cls, g, d1, d2):
        return cls(g, Mat.diagonal(d1), Mat.diagonal(d2))

    @cached_property
    def det_form(self) -> BinaryForm:
        """The degeneracy form, computed on first use and then kept."""
        return degeneracy_form(self)

    @cached_property
    def minor(self):
        """The first nonzero 2x2 minor of the Grams, which fixes the pencil
        action of a symmetry (`equivariance`), or None when Q1 and Q2 are
        dependent: (order, grams, a, b, p, q, delta, inv, norm).  grams are
        the int rows of Q1 and Q2 at order = lcm of theirs over one
        denominator, a and b their upper triangles read row by row, p < q the
        first pair of positions in that order with delta = a_p b_q - a_q b_p
        nonzero, and delta * inv = norm a positive int (`cyclo._inverse_num`,
        or ±1 at order 1)."""
        order, den = lcm(self.q1.order, self.q2.order), lcm(self.q1.den, self.q2.den)
        grams = [[_coefs(order, row, mul, den // g.den) for row in _embed(g.order, g.data, order)] for g in (self.q1, self.q2)]
        a, b = ([x for i, row in enumerate(g) for x in row[i:]] for g in grams)
        nonzero = [e for e, pair in enumerate(zip(a, b)) if any(pair)]
        for p, q in ((p, q) for k, p in enumerate(nonzero) for q in nonzero[k + 1 :]):
            delta = _dot(order, ((a[p], b[q]), (_coefs(order, [a[q]], mul, -1)[0], b[p])))
            if delta:
                inv, norm = (1, delta) if order == 1 else _inverse_num(order, delta)
                sign = 1 if norm > 0 else -1
                return order, grams, a, b, p, q, delta, _coefs(order, [inv], mul, sign)[0], norm * sign
        return None


@cache
def _vandermonde_inverse(d: int) -> Mat:
    """The exact inverse of the Vandermonde matrix (x^j) of the nodes
    x = 0..d; the nodes are distinct, so it exists."""
    return Mat([[x**j for j in range(d + 1)] for x in range(d + 1)]).inverse()


def pencil_det_form(g1: Mat, g2: Mat) -> BinaryForm:
    """det(t1 G1 + t2 G2) as a binary form of degree n for n x n Grams.

    For diagonal Grams, a_i / D1 and b_i / D2 on the int rows, it is the
    product of the linear factors (a_i D2) t1 + (b_i D1) t2 over (D1 D2)^n,
    multiplied out on those rows at lcm(G1.order, G2.order); its
    coefficients are brought to their least field together, as the
    interpolation's are.  Other Grams are interpolated."""
    n = g1.rows
    if not (g1.is_diagonal() and g2.is_diagonal()):
        return _interpolated_det_form(g1, g2)
    order = lcm(g1.order, g2.order)
    (a,), (b,) = (_embed(g.order, [[row[i] for i, row in enumerate(g.data)]], order) for g in (g1, g2))
    coefs = [_int(order, 1)]  # of t1^(k-j) t2^j after k factors
    for p, q in zip(_coefs(order, a, mul, g2.den), _coefs(order, b, mul, g1.den)):
        coefs = [_dot(order, ((p, c), (q, prev))) for c, prev in zip(coefs + [0], [0] + coefs)]
    form = _mat(order, (g1.den * g2.den) ** n, [[c] for c in coefs], 1)
    return BinaryForm(n, [row[0] for row in form.entries])


def _interpolated_det_form(g1: Mat, g2: Mat) -> BinaryForm:
    """pencil_det_form of any Grams: the dehomogenized determinant
    det(G1 + x G2) is sampled at x = 0..n, each member G2 plus the one
    before, and the coefficients are the inverse Vandermonde matrix of those
    nodes applied to the samples."""
    n = g1.rows
    member, dets = g1, [g1.det()]
    for _ in range(n):
        member = member + g2
        dets.append(member.det())
    # coeff of x^j goes with t1^(n-j) t2^j
    return BinaryForm(n, _vandermonde_inverse(n).apply(dets))


def degeneracy_form(pencil: Pencil) -> BinaryForm:
    """det(t1 Q1 + t2 Q2) as a binary form of degree 2g+2."""
    return pencil_det_form(pencil.q1, pencil.q2)


def is_smooth(pencil: Pencil) -> bool:
    """Distinct-roots criterion: the degeneracy form has 2g+2 distinct
    projective roots."""
    return not bform_discriminant(pencil.det_form).is_zero()


def equivariance(pencil: Pencil, h: Mat) -> Mat:
    """The pencil action of h: the 2x2 M with h·G_i·hᵀ = Σ_j M_ij G_j, or
    NotASymmetry.  h transforms the forms by substituting hᵀx (and points by
    (hᵀ)⁻¹, `matrices.point_action`), so t1 Q1 + t2 Q2 goes to the member at
    Mᵀ(t1, t2).

    On the int rows of `Pencil.minor`, Q_i = G_i / D, the upper triangle c
    of h G_i hᵀ is formed over E = D h.den².  Cramer's rule at the minor's
    positions p, q gives u = b_q c_p - b_p c_q and v = a_p c_q - a_q c_p,
    with u a + v b = delta c at every position when h G_i hᵀ lies in the
    span; then row i of M is (u, v) inv / (norm h.den²)."""
    if h.rows != h.cols or h.rows != pencil.size:
        raise DimensionMismatch("symmetry size mismatch")
    order, grams, a, b, p, q, delta, inv, norm = pencil.minor
    big = lcm(order, h.order)
    a, b, (delta, inv) = _embed(order, [a, b, [delta, inv]], big)
    nd = _coefs(big, [delta], mul, -1)[0]
    adjugate = [(b[q], _coefs(big, [b[p]], mul, -1)[0]), (_coefs(big, [a[q]], mul, -1)[0], a[p])]
    rows = _embed(h.order, h.data, big)
    action = []
    for g in grams:
        c = [x for row in _upper_congruence(big, rows, _embed(order, g, big)) for x in row]
        u, v = _times(big, adjugate, (c[p], c[q]))
        if any(_times(big, zip(a, b, c), (u, v, nd))):
            raise NotASymmetry("transformed quadric leaves the pencil span")
        action.append((u, v))
    (u1, v1), (u2, v2) = action
    if not _dot(big, ((u1, v2), (_coefs(big, [u2], mul, -1)[0], v1))):
        raise NotASymmetry("induced 2x2 action is singular")
    return _mat(big, norm * h.den**2, [[_dot(big, ((x, inv),)) for x in row] for row in action], 2)


def _isotropic_points(grams, polars=None):
    """The points of a projective point or line on X, as coefficient vectors
    in a basis of it, on which each polar condition (a row of the Mat polars,
    one entry per basis vector) vanishes; grams are both quadrics restricted
    to the basis, 1x1 or 2x2 Mats, each read in its own least field.  None
    when every point of the line qualifies (with no polar conditions: the
    line lies on X)."""
    if grams[0].rows == 1:
        conds = [g.data[0][0] for g in grams] + ([row[0] for row in polars.data] if polars is not None else [])
        return [] if any(conds) else [(ONE,)]
    quadratics = []
    for g in grams:  # a u² + 2b uv + d v², read off the int rows [[a, b], [b, d]]
        (a, b), (_, d) = g.data
        quadratics.append(BinaryForm(2, [_cyc(g.order, x, g.den) for x in (a, _coefs(g.order, [b], mul, 2)[0], d)]))
    quadratics = [f for f in quadratics if not f.is_zero()]
    # the polar conditions are linear in (u, v): unless all vanish, their kernel holds the candidates
    if polars is not None and (polar := kernel(polars)).dim < 2:
        candidates = polar.basis
    elif not quadratics:
        return None
    elif len(quadratics) == 1:
        candidates = quadratic_roots(*quadratics[0].coeffs)
    else:
        candidates = _common_roots(*quadratics)
    pts = []
    for pt in candidates:
        if all(f.evaluate(*pt).is_zero() for f in quadratics) and not any(proj_point_equal(pt, q) for q in pts):
            pts.append(pt)
    return pts


def _point(coefs, basis):
    """The vector sum_j coefs[j] * basis[j]."""
    return tuple(sum(c * x for c, x in zip(coefs, col)) for col in zip(*basis))


def _common_roots(f: BinaryForm, g: BinaryForm):
    """Common projective roots (u, v) of two nonzero binary quadratics, whose
    coefficient rows have (u², uv, v²) in their kernel.  Proportional forms
    share the roots of g divided by its last nonzero coefficient; otherwise
    the kernel is a line w, with a root only where w1² = w0·w2: (w0 : w1), or
    (0 : -1) when w0 = 0."""
    ker = kernel(Mat([f.coeffs, g.coeffs]))
    if ker.dim == 2:
        last = next(c for c in reversed(g.coeffs) if c).inverse()
        return quadratic_roots(*(c * last for c in g.coeffs))
    w0, w1, w2 = ker.basis[0]
    if w1 * w1 != w0 * w2:
        return []
    return [(w0, w1) if w0 else (ZERO, -ONE)]


def proj_point_equal(p, q) -> bool:
    """Projective equality of two nonzero vectors of equal length, on their int rows."""
    order, _, (p, q) = _rows_of([p, q])
    a, b = next((y, x) for x, y in zip(p, q) if x)
    return bool(a) and all(_dot(order, ((a, x),)) == _dot(order, ((b, y),)) for x, y in zip(p, q))


def _upper_congruence(order, rows, g):
    """The upper triangle of R G Rᵀ for int rows R and G at one order: row i
    lists the entries (i, i), (i, i + 1), ..."""
    return [_times(order, rows[i:], _times(order, g, r)) for i, r in enumerate(rows)]


def _in_basis(pencil, spaces):
    """Both quadrics in the basis E of the spaces' stacked bases, on the int
    rows: (order, E, products, spans, blocks).  E is the spaces' `_rows` at
    one order over one denominator D, space t owning rows spans[t]; a product
    is E G Eᵀ over D² G.den, its upper triangle formed and mirrored; blocks(t)
    are space t's restricted Grams, each brought to its least field."""
    grams = (pencil.q1, pencil.q2)
    order = lcm(*(s._rows.order for s in spaces), *(g.order for g in grams))
    den = lcm(*(s._rows.den for s in spaces))
    e = [_coefs(order, r, mul, den // s._rows.den) for s in spaces for r in _embed(s._rows.order, s._rows.data, order)]
    products = []
    for g in grams:
        upper = _upper_congruence(order, e, _embed(g.order, g.data, order))
        products.append([[upper[min(i, j)][abs(i - j)] for j in range(len(e))] for i in range(len(e))])
    spans = [range(k - s.dim, k) for k, s in zip(accumulate(s.dim for s in spaces), spaces)]

    @cache
    def blocks(t):
        cut = [[[a[i][j] for j in spans[t]] for i in spans[t]] for a in products]
        return [_mat(order, g.den * den * den, b, spaces[t].dim) for g, b in zip(grams, cut)]

    return order, e, products, spans, blocks


@dataclass(frozen=True)
class FixedOnX:
    """Fixed locus of a group action intersected with X."""

    points: tuple  # isolated fixed points on X (projective vectors)
    curves: tuple  # fixed subspaces of projective dimension >= 2, as Subspaces
    lines_on_x: tuple  # fixed projective lines lying entirely on X, as 2-dim Subspaces


def fixed_points_on_X(pencil: Pencil, group: MatrixGroup) -> FixedOnX:
    """Intersect the projective fixed locus of a point action with X; the
    generators are taken to preserve X (parse_job checks a job's).

    Points and lines are intersected with X exactly; higher-dimensional
    components are reported as they are."""
    comps = projective_fixed_locus(group)
    small = [comp for comp in comps if comp.dim <= 2]
    *_, blocks = _in_basis(pencil, small)
    points, lines = [], []
    for t, comp in enumerate(small):
        pts = _isotropic_points(blocks(t))
        if pts is None:
            lines.append(comp)
        else:
            points.extend(_point(c, comp.basis) for c in pts)  # the components meet only in 0
    return FixedOnX(tuple(points), tuple(comp for comp in comps if comp.dim > 2), tuple(lines))


@dataclass(frozen=True)
class LineSearchReport:
    """Result of the invariant-line enumeration.

    lines: fully enumerated invariant lines on X, as 2-dim Subspaces.
    families: non-enumerated reports, each a dict with at least a "reason";
    a smooth quartic del Pezzo character space contributes
    {"count": 16, "enumerated": False, ...}."""

    lines: tuple
    families: tuple

    @property
    def complete(self):
        return not self.families


def invariant_lines_abelian(pencil: Pencil, group: MatrixGroup) -> LineSearchReport:
    """All G-invariant projective lines on X for an abelian point action,
    whose generators are taken to preserve X (parse_job checks a job's).

    Case (i): planes inside a single character space; case (ii): sums of
    eigenlines from two distinct characters.  Character spaces of dimension
    3 or more yield family reports instead of enumeration, except that a
    dimension-5 space cutting out a smooth quartic del Pezzo surface is
    reported with the classical line count 16."""
    for i, (la, a) in enumerate(group.generators):
        for lb, b in group.generators[i + 1 :]:
            if a * b != b * a:
                raise NotAbelian(f"generators {la!r} and {lb!r} do not commute")
    spaces = character_spaces(group)
    # every restricted form, polar condition and line check below reads these
    order, e, grams, span, restricted = _in_basis(pencil, [s for s, _ in spaces])
    at = cache(lambda m: [_embed(order, a, m) for a in grams])  # the products at order m

    def row(t, x, m):
        """The point with coefficients x over space t's rows of E: (L, its int row over E at L = lcm(m, x's order))."""
        o, _, (r,) = _rows_of([x])
        m = lcm(m, o)
        return m, [0] * span[t].start + _embed(o, [r], m)[0] + [0] * (len(e) - span[t].stop)

    lines, families = [], []
    # a plane spans two points of distinct character spaces, which meet only
    # in 0, or lies in one space: each plane comes up once

    # case (i): inside one character space
    for t, (space, char) in enumerate(spaces):
        if space.dim == 2 and not any(any(map(any, g.data)) for g in restricted(t)):
            lines.append(space)
        elif space.dim > 2:
            fam = {"character": char, "dimension": space.dim, "enumerated": False,
                   "reason": f"lines inside one character space of dimension {space.dim}"}
            if pencil.g == 2 and space.dim == 5 and not bform_discriminant(pencil_det_form(*restricted(t))).is_zero():
                fam.update(count=16, reason="smooth quartic del Pezzo section: 16 lines")
            families.append(fam)

    # case (ii): one eigenline from each of two characters
    def pair_family(c1, c2, reason):
        families.append({"characters": (c1, c2), "enumerated": False, "reason": reason})

    # each space's points on X, found when the search first meets the space
    on_x = cache(lambda t: _isotropic_points(restricted(t)))
    for t1, (s1, c1) in enumerate(spaces):
        for t2, (s2, c2) in enumerate(spaces[t1 + 1 :], t1 + 1):
            # a 1-dim side whose point is off X contributes nothing,
            # whatever the other side looks like
            if any(spaces[t][0].dim == 1 and not on_x(t) for t in (t1, t2)):
                continue
            if s1.dim > 2 or s2.dim > 2:
                pair_family(c1, c2, "parameter dimension exceeds 2")
                continue
            lefts = on_x(t1)
            if lefts is None:
                pair_family(c1, c2, "isotropic directions form a family")
                continue
            for x in lefts:
                m, p = row(t1, x, order)
                # p's polar conditions on space t2, one row per quadric (the products are symmetric)
                polars = [[_dot(m, zip(a[j], p)) for j in span[t2]] for a in at(m)]
                rights = _isotropic_points(restricted(t2), _mat(m, 1, polars, s2.dim))
                if rights is None:
                    pair_family(c1, c2, "isotropic directions form a family")
                    continue
                for y in rights:
                    m2, q = row(t2, y, m)
                    u = _embed(m, [p], m2)[0]
                    # p and q are on X and polar: the line pq lies on X, checked again
                    if not any(_dot(m2, zip(w, _times(m2, a, z))) for a in at(m2) for w, z in ((u, u), (u, q), (q, q))):
                        lines.append(row_combinations_span(m2, [u, q], _embed(order, e, m2)))
    return LineSearchReport(tuple(lines), tuple(families))
