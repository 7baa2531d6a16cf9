"""Finite matrix groups: the breadth-first stream of elements, relations up
to scalars, projective fixed loci, and the scalar-lift obstruction search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cyclo import CycNum, zeta
from .errors import (
    CapExceeded,
    LabelMismatch,
    NonScalarDiscrepancy,
    NotFiniteOrder,
    RelationsFailProjectively,
)
from .matrices import Mat, eigen_multiplicities, eigenspaces_finite_order

# tuples scalar_lift_search may try: at about 10 us a tuple, some 10 s
MAX_LIFT_TUPLES = 10**6
MAX_CLOSURE = 10000  # elements breadth_first may yield before it raises CapExceeded


@dataclass(frozen=True)
class Relation:
    """A word in generator labels with a prescribed target.

    word: tuple of (label, exponent) pairs.
    target: "identity", "scalar", or ("central", name) for a named central
    element of the group.
    """

    word: tuple
    target: object = "identity"


class MatrixGroup:
    """Group of invertible matrices given by labeled generators.

    A record of the (label, Mat) generators and the named elements; the
    readers in jsonio check that the labels are distinct and the matrices
    invertible and of one size.  check_finite_orders tests each generator's
    order, and breadth_first runs it first.  breadth_first streams the
    elements, each with one shortest defining word (a tuple of generator
    labels), so a reader may stop early."""

    def __init__(self, generators, named=None):
        self.generators = tuple(generators)
        self.dimension = self.generators[0][1].rows
        self.named = dict(named or {})

    def generator(self, label) -> Mat:
        for lab, m in self.generators:
            if lab == label:
                return m
        if label in self.named:
            return self.named[label]
        raise LabelMismatch(f"unknown generator label {label!r}")

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.generators)

    def word_value(self, word) -> Mat:
        """Evaluate a word given as (label, exponent) pairs."""
        result = Mat.identity(self.dimension)
        for label, exp in word:
            result = result * (self.generator(label) ** exp)
        return result


def check_finite_orders(group: MatrixGroup, walk=eigen_multiplicities):
    """(label, walk(g)) for each generator g: eigen_multiplicities (kept on
    its Mat) or point_action, both of which walk g's powers once; a
    NotFiniteOrder from operator_order is raised again naming the generator."""
    out = []
    for label, g in group.generators:
        try:
            out.append((label, walk(g)))
        except NotFiniteOrder as exc:
            raise NotFiniteOrder(f"generator {label!r} has {exc}") from None
    return out


def breadth_first(group: MatrixGroup, cap: int = MAX_CLOSURE):
    """Yield (element, word) for each element of the group, breadth first:
    the identity, then each frontier element times each generator, so every
    word is a shortest one and comes after its prefix.

    check_finite_orders runs before any product, so a generator of infinite
    order fails at once; the element after the cap-th raises CapExceeded."""
    check_finite_orders(group)
    ident = Mat.identity(group.dimension)
    seen = {ident.key()}
    frontier = [(ident, ())]
    yield frontier[0]
    while frontier:
        nxt = []
        for m, word in frontier:
            for label, g in group.generators:
                prod = m * g
                k = prod.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure exceeds cap {cap}")
                    seen.add(k)
                    entry = (prod, word + (label,))
                    nxt.append(entry)
                    yield entry
        frontier = nxt


@dataclass(frozen=True)
class RelationReport:
    relation: Relation
    holds: bool  # the discrepancy is 1, or the target is "scalar"
    scalar: CycNum  # the discrepancy: word value times target inverse, a scalar


def _target_matrix(group: MatrixGroup, target):
    n = group.dimension
    if target == "identity" or target == "scalar":
        return Mat.identity(n)
    if isinstance(target, tuple) and len(target) == 2 and target[0] == "central":
        name = target[1]
        if name not in group.named:
            raise LabelMismatch(f"no named central element {name!r}")
        return group.named[name]
    raise ValueError(f"bad relation target {target!r}")


def verify_relations(group: MatrixGroup, relations):
    """Check that each relation holds up to a scalar, reporting that exact
    discrepancy; a relation holds when it is 1 or its target is "scalar".
    A nonscalar discrepancy raises NonScalarDiscrepancy.
    """
    reports = []
    for rel in relations:
        value = group.word_value(rel.word)
        disc = value * _target_matrix(group, rel.target).inverse()
        c = disc.is_scalar()
        if c is None:
            raise NonScalarDiscrepancy(
                f"discrepancy of {rel.word} is not scalar: {disc!r}"
            )
        reports.append(RelationReport(rel, rel.target == "scalar" or c.is_one(), c))
    return reports


def character_spaces(group: MatrixGroup):
    """Joint eigenspaces of the generators as (subspace, character) pairs,
    the character holding one eigenvalue per generator.

    Starts from the first generator's eigenspaces and refines the list by
    intersecting each subspace with each eigenspace of every later
    generator, so one generator takes no intersection."""
    (_, first), *rest = group.generators
    current = [(space, (lam,)) for lam, space in eigenspaces_finite_order(first)]
    for _, g in rest:
        eig = eigenspaces_finite_order(g)
        refined = []
        for space, char in current:
            for lam, espace in eig:
                meet = space.intersect(espace)
                if meet.dim:
                    refined.append((meet, char + (lam,)))
        current = refined
    return current


def projective_fixed_locus(group: MatrixGroup) -> tuple:
    """Points of P^{n-1} fixed by every generator, as the tuple of its
    components, Subspaces: the joint eigenspaces, which meet pairwise only in
    0, so each is a maximal component."""
    return tuple(sorted(
        (s for s, _ in character_spaces(group)),
        key=lambda s: (-s.dim, [[x.key() for x in v] for v in s.basis]),
    ))


def scalar_lift_search(group: MatrixGroup, relations, scalar_order_bound: int):
    """Search for scalar rescalings of the generators satisfying all
    relations exactly.

    Rescaling generator i by c_i multiplies the value of a relation word by
    c_i raised to the exponent sum of that generator, since scalars are
    central.  The search runs over all tuples of M-th roots of unity with
    M = scalar_order_bound >= 1 and is therefore exhaustive for that scalar
    group.  Building the M roots alone costs about M^2, so it counts
    M^max(k, 2) tuples for k generators and, beyond MAX_LIFT_TUPLES, raises
    CapExceeded at once.

    Returns {"lift": {label: scalar}} on success, otherwise
    {"obstruction": True}; both with "tested" (tuples tried), "scalar_order"
    (M) and "reports" (verify_relations of the relations).
    """
    m, k = scalar_order_bound, max(len(group.labels), 2)
    if m < 1:
        raise ValueError("scalar_order_bound must be at least 1")
    if m**k > MAX_LIFT_TUPLES:
        raise CapExceeded(f"{m}^{k} scalar tuples exceed {MAX_LIFT_TUPLES} at scalar order {m}")
    try:
        reports = verify_relations(group, relations)
    except NonScalarDiscrepancy as exc:
        raise RelationsFailProjectively(str(exc)) from exc
    labels = group.labels
    exponent_sums = []
    for rel in relations:
        sums = {lab: 0 for lab in labels}
        for lab, exp in rel.word:
            if lab in sums:
                sums[lab] += exp
        exponent_sums.append(tuple(sums[lab] for lab in labels))
    roots = [zeta(m, j) for j in range(m)]
    tested = 0
    for combo in product(range(m), repeat=len(labels)):
        tested += 1
        for rep, sums in zip(reports, exponent_sums):
            if rep.relation.target == "scalar":
                continue
            total = rep.scalar
            for ki, e in zip(combo, sums):
                if e % m:
                    total = total * roots[(ki * e) % m]
            if not total.is_one():
                break
        else:
            lift = {lab: roots[ki] for lab, ki in zip(labels, combo)}
            return {"lift": lift, "tested": tested, "scalar_order": m, "reports": reports}
    return {"obstruction": True, "tested": tested, "scalar_order": m, "reports": reports}
