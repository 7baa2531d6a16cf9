"""Pencils of quadrics with finite group actions.

Degeneracy binary form, smoothness, equivariance data (the pencil action of
a symmetry), fixed points on X and invariant lines for abelian actions.
Fixed points and invariant lines meet X through one routine,
`_isotropic_points`: the points of a projective point or line that lie on X
(polar to given points, if any), or None when the whole line does.  Its
polar conditions and the common roots of two restricted quadratics are
kernels (`matrices.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .binforms import BinaryForm, bform_discriminant, quadratic_roots
from .cyclo import ONE, ZERO, CycNum
from .errors import DimensionMismatch, NotAbelian, NotASymmetry
from .groups import MatrixGroup, character_spaces, projective_fixed_locus
from .matrices import (
    Mat,
    Quadric,
    Subspace,
    kernel,
    span_coefficients,
)


@dataclass(frozen=True)
class Pencil:
    g: int
    q1: Quadric
    q2: Quadric

    def __post_init__(self):
        n = 2 * self.g + 2
        if n < 4:
            raise ValueError("need g >= 1")
        if self.q1.size != n or self.q2.size != n:
            raise DimensionMismatch("Gram size must be 2g+2")
        g1, g2 = self.q1.gram, self.q2.gram
        if not any(map(any, g1.data)) or span_coefficients([g2], (g1,)) is not None:
            raise ValueError("Q1 and Q2 must be linearly independent")

    @property
    def size(self):
        return 2 * self.g + 2

    @classmethod
    def from_diagonals(cls, g, d1, d2):
        return cls(g, Quadric.from_diagonal(d1), Quadric.from_diagonal(d2))

    @cached_property
    def det_form(self) -> BinaryForm:
        """The degeneracy form, computed on first use and then kept."""
        return degeneracy_form(self)


@cache
def _vandermonde_inverse(d: int) -> Mat:
    """The exact inverse of the Vandermonde matrix (x^j) of the nodes
    x = 0..d; the nodes are distinct, so it exists."""
    return Mat([[x**j for j in range(d + 1)] for x in range(d + 1)]).inverse()


def pencil_det_form(g1: Mat, g2: Mat) -> BinaryForm:
    """det(t1 G1 + t2 G2) as a binary form of degree n for n x n Grams.

    Computed by interpolation: the dehomogenized determinant det(G1 + x G2)
    is sampled at x = 0..n, each member G2 plus the one before, and the
    coefficients are the inverse Vandermonde matrix of those nodes applied
    to the samples."""
    n = g1.rows
    member, dets = g1, [g1.det()]
    for _ in range(n):
        member = member + g2
        dets.append(member.det())
    # coeff of x^j goes with t1^(n-j) t2^j
    return BinaryForm(n, _vandermonde_inverse(n).apply(dets))


def degeneracy_form(pencil: Pencil) -> BinaryForm:
    """det(t1 Q1 + t2 Q2) as a binary form of degree 2g+2."""
    return pencil_det_form(pencil.q1.gram, pencil.q2.gram)


def is_smooth(pencil: Pencil) -> bool:
    """Distinct-roots criterion: the degeneracy form has 2g+2 distinct
    projective roots."""
    return not bform_discriminant(pencil.det_form).is_zero()


def equivariance(pencil: Pencil, h: Mat) -> Mat:
    """The pencil action of h: the 2x2 M with h·G_i·hᵀ = Σ_j M_ij G_j, or
    NotASymmetry.  h transforms the forms by substituting hᵀx (and points by
    the contragredient), so t1 Q1 + t2 Q2 goes to the member at Mᵀ(t1, t2)."""
    if h.rows != h.cols or h.rows != pencil.size:
        raise DimensionMismatch("symmetry size mismatch")
    grams = (pencil.q1.gram, pencil.q2.gram)
    ht = h.transpose()
    m = span_coefficients([h * g * ht for g in grams], grams)
    if m is None:
        raise NotASymmetry("transformed quadric leaves the pencil span")
    if m.det().is_zero():
        raise NotASymmetry("induced 2x2 action is singular")
    return m


def membership(pencil: Pencil, v) -> bool:
    v = [CycNum._coerce(x) for x in v]
    if len(v) != pencil.size:
        raise DimensionMismatch("point has wrong length")
    if all(x.is_zero() for x in v):
        raise ValueError("zero vector is not a projective point")
    return pencil.q1.evaluate(v).is_zero() and pencil.q2.evaluate(v).is_zero()


def _restricted_binary_quadric(q: Quadric, plane: Subspace) -> BinaryForm:
    """Q restricted to u·b1 + v·b2 as a binary quadratic in (u, v)."""
    b1, b2 = plane.basis
    return BinaryForm(
        2, [q.evaluate(b1), 2 * q.polar(b1, b2), q.evaluate(b2)]
    )


def _isotropic_points(pencil: Pencil, space: Subspace, extra_points=()):
    """Points of P(space), for dim space <= 2, that lie on X and are polar
    to each extra point under both quadrics.

    Returns a list of vectors, or None when every point of the projective
    line P(space) qualifies (with no extra points: the line lies on X)."""
    quadrics = (pencil.q1, pencil.q2)
    if space.dim == 1:
        v = space.basis[0]
        conds = [q.evaluate(v) for q in quadrics]
        conds += [q.polar(p, v) for p in extra_points for q in quadrics]
        return [v] if all(c.is_zero() for c in conds) else []
    b1, b2 = space.basis
    quadratics = [f for f in (_restricted_binary_quadric(q, space) for q in quadrics) if not f.is_zero()]
    # the polar conditions are linear in (u, v): unless all vanish, their kernel holds the candidates
    conds = [[q.polar(p, b1), q.polar(p, b2)] for p in extra_points for q in quadrics]
    if conds and (polar := kernel(Mat(conds))).dim < 2:
        candidates = polar.basis
    elif not quadratics:
        return None
    elif len(quadratics) == 1:
        candidates = quadratic_roots(*quadratics[0].coeffs)
    else:
        candidates = _common_roots(*quadratics)
    pts = []
    for u, v in candidates:
        if all(f.evaluate(u, v).is_zero() for f in quadratics):
            pt = tuple(u * x + v * y for x, y in zip(b1, b2))
            if not any(proj_point_equal(pt, q) for q in pts):
                pts.append(pt)
    return pts


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
    """Projective equality of two nonzero vectors of equal length."""
    n = len(p)
    i = next(k for k in range(n) if not p[k].is_zero())
    if q[i].is_zero():
        return False
    a, b = q[i], p[i]
    return all(a * p[k] == b * q[k] for k in range(n))


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
    points = []
    curves = []
    lines = []
    for comp in projective_fixed_locus(group).components:
        if comp.dim > 2:
            curves.append(comp)
            continue
        pts = _isotropic_points(pencil, comp)
        if pts is None:
            lines.append(comp)
        else:
            points.extend(pts)  # the components meet only in 0
    return FixedOnX(tuple(points), tuple(curves), tuple(lines))


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
    lines = []
    families = []

    # a plane spans two points of distinct character spaces, which meet only
    # in 0, or lies in one space: each plane comes up once
    def add_line(plane):
        if all(_restricted_binary_quadric(q, plane).is_zero() for q in (pencil.q1, pencil.q2)):
            lines.append(plane)

    # case (i): inside one character space
    for space, char in spaces:
        if space.dim == 2:
            add_line(space)
        elif space.dim > 2:
            fam = {
                "character": char,
                "dimension": space.dim,
                "enumerated": False,
                "reason": f"lines inside one character space of dimension {space.dim}",
            }
            if pencil.g == 2 and space.dim == 5:
                f = pencil_det_form(
                    pencil.q1.restrict(space).gram, pencil.q2.restrict(space).gram
                )
                if not bform_discriminant(f).is_zero():
                    fam["count"] = 16
                    fam["reason"] = "smooth quartic del Pezzo section: 16 lines"
            families.append(fam)

    # case (ii): one eigenline from each of two characters
    def pair_family(c1, c2, reason):
        families.append({"characters": (c1, c2), "enumerated": False, "reason": reason})

    # each space's points on X, found when the search first meets the space
    on_x = cache(lambda s: _isotropic_points(pencil, s))
    for i, (s1, c1) in enumerate(spaces):
        for s2, c2 in spaces[i + 1 :]:
            # a 1-dim side whose point is off X contributes nothing,
            # whatever the other side looks like
            if any(s.dim == 1 and not on_x(s) for s in (s1, s2)):
                continue
            if s1.dim > 2 or s2.dim > 2:
                pair_family(c1, c2, "parameter dimension exceeds 2")
                continue
            lefts = on_x(s1)
            if lefts is None:
                pair_family(c1, c2, "isotropic directions form a family")
                continue
            for p in lefts:
                rights = _isotropic_points(pencil, s2, extra_points=(p,))
                if rights is None:
                    pair_family(c1, c2, "isotropic directions form a family")
                    continue
                for q in rights:
                    add_line(Subspace(pencil.size, [p, q]))
    return LineSearchReport(tuple(lines), tuple(families))
