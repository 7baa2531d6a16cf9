import pytest

from twoquadrics.cyclo import ONE, ZERO, imaginary_unit, zeta
from twoquadrics.errors import (
    CapExceeded,
    LabelMismatch,
    NonScalarDiscrepancy,
    RelationsFailProjectively,
)
from twoquadrics.groups import (
    MatrixGroup,
    Relation,
    breadth_first,
    projective_fixed_locus,
    scalar_lift_search,
    verify_relations,
)
from twoquadrics.matrices import Mat, operator_order

i = imaginary_unit()
O, I1 = ZERO, ONE


def dihedral24():
    s = Mat.diagonal([zeta(6), zeta(6, 2)])
    t = Mat([[O, -I1], [-I1, O]])
    return MatrixGroup(
        [("sigma", s), ("tau", t)], named={"iota": Mat.diagonal([-1, -1])}
    )


D24_RELS = [
    Relation((("sigma", 6),), "identity"),
    Relation((("tau", 2),), "identity"),
    Relation((("tau", 1), ("sigma", 1), ("tau", -1), ("sigma", 1)), ("central", "iota")),
]


def test_closure_examples():
    g = MatrixGroup(
        [("a", Mat.diagonal([1, 1, 1, 1, -1, -1])), ("b", Mat.diagonal([1, 1, 1, -1, -1, 1]))]
    )
    assert len(list(breadth_first(g, 100))) == 4
    assert len(list(breadth_first(dihedral24(), 100))) == 24
    assert len(list(breadth_first(MatrixGroup([("e", Mat.identity(3))]), 10))) == 1


def test_closure_cap():
    with pytest.raises(CapExceeded, match="closure exceeds cap 10"):
        list(breadth_first(dihedral24(), 10))


def test_cyclic_subgroup_order_matches_operator_order():
    g = MatrixGroup([("g", Mat.diagonal([zeta(8), 1]))])
    assert len(list(breadth_first(g, 100))) == operator_order(g.generator("g")).order


def test_verify_relations_exact():
    g = dihedral24()
    for rep in verify_relations(g, D24_RELS):
        assert rep.holds
    trivial = verify_relations(
        g, [Relation((("sigma", 1), ("sigma", -1)), "identity")]
    )
    assert trivial[0].holds and trivial[0].scalar.is_one()


def test_verify_relations_scalar_modes():
    g = MatrixGroup([("a", Mat.diagonal([i, i]))])
    rep = verify_relations(g, [Relation((("a", 1),), "scalar")])
    assert rep[0].scalar == i
    rep = verify_relations(g, [Relation((("a", 2),), "identity")])
    assert not rep[0].holds and rep[0].scalar == -ONE
    bad = MatrixGroup([("a", Mat.diagonal([1, -1]))])
    with pytest.raises(NonScalarDiscrepancy):
        verify_relations(bad, [Relation((("a", 1),), "identity")])


def test_unknown_label():
    g = dihedral24()
    with pytest.raises(LabelMismatch):
        g.word_value((("rho", 1),))


def test_fixed_locus_examples():
    klein = MatrixGroup([("a", Mat.diagonal([1, -1])), ("b", Mat([[O, I1], [I1, O]]))])
    assert not projective_fixed_locus(klein)
    ident = MatrixGroup([("e", Mat.identity(4))])
    assert [s.dim for s in projective_fixed_locus(ident)] == [4]  # all of P^3
    single = MatrixGroup([("g", Mat.diagonal([1, 1, -1]))])
    assert sorted(s.dim for s in projective_fixed_locus(single)) == [1, 2]  # a point and a line


def test_scalar_lift_search_klein_obstruction():
    klein = MatrixGroup([("a", Mat.diagonal([1, -1])), ("b", Mat([[O, I1], [I1, O]]))])
    rels = [
        Relation((("a", 2),), "identity"),
        Relation((("b", 2),), "identity"),
        Relation((("a", 1), ("b", 1), ("a", -1), ("b", -1)), "identity"),
    ]
    for m in (1, 2, 4, 8):
        assert "obstruction" in scalar_lift_search(klein, rels, m)


def test_scalar_lift_search_needs_a_positive_bound():
    for m in (0, -2):
        with pytest.raises(ValueError):
            scalar_lift_search(dihedral24(), D24_RELS, m)


def test_scalar_lift_search_trivial_lift():
    g = dihedral24()
    res = scalar_lift_search(g, D24_RELS, 6)
    assert "lift" in res
    lifted = MatrixGroup([(lab, m * res["lift"][lab]) for lab, m in g.generators], named=g.named)
    for rep in verify_relations(lifted, D24_RELS):
        assert rep.holds


def test_scalar_lift_search_fail_projectively():
    g = MatrixGroup([("a", Mat([[ONE, ONE], [ZERO, ONE]]))], named={"iota": Mat.identity(2)})
    with pytest.raises(RelationsFailProjectively):
        scalar_lift_search(g, [Relation((("a", 1),), "identity")], 2)
