import pytest

from twoquadrics.cyclo import ONE, ZERO, imaginary_unit, zeta
from twoquadrics.errors import (
    CapExceeded,
    ClosureMissing,
    LabelMismatch,
    NonScalarDiscrepancy,
    RelationsFailProjectively,
)
from twoquadrics.groups import (
    MatrixGroup,
    Relation,
    center,
    closure,
    projective_fixed_locus,
    scalar_lift_search,
    tensor_rep,
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
    assert len(closure(g, 100)) == 4
    assert len(closure(dihedral24(), 100)) == 24
    assert len(closure(MatrixGroup([("e", Mat.identity(3))]), 10)) == 1


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(dihedral24(), 10)


def test_cyclic_subgroup_order_matches_operator_order():
    g = MatrixGroup([("g", Mat.diagonal([zeta(8), 1]))])
    assert len(closure(g, 100)) == operator_order(g.generator("g")).order


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
    assert projective_fixed_locus(klein).is_empty()
    ident = MatrixGroup([("e", Mat.identity(4))])
    locus = projective_fixed_locus(ident)
    assert locus.dims() == (3,)
    single = MatrixGroup([("g", Mat.diagonal([1, 1, -1]))])
    assert sorted(projective_fixed_locus(single).dims()) == [0, 1]


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


def test_tensor_rep():
    a = MatrixGroup([("g", Mat.diagonal([1, 2]))])
    b = MatrixGroup([("g", Mat.diagonal([3, 5]))])
    t = tensor_rep(a, b)
    assert t.generator("g") == Mat.diagonal([3, 5, 6, 10])
    mismatch = MatrixGroup([("h", Mat.identity(2))])
    with pytest.raises(LabelMismatch):
        tensor_rep(a, mismatch)
    # power compatibility of the kronecker construction
    s = dihedral24().generator("sigma")
    w = Mat([[O, I1], [I1, O]])
    tw = tensor_rep(
        MatrixGroup([("s", s)]), MatrixGroup([("s", w)])
    ).generator("s")
    for n in range(1, 13):
        assert (tw**n).is_identity() == ((s**n).is_identity() and (w**n).is_identity())


def test_center():
    g = dihedral24()
    with pytest.raises(ClosureMissing):
        center(g)
    closure(g, 100)
    c = center(g)
    assert Mat.diagonal([-1, -1]) in c
    assert all(m * g.generator("sigma") == g.generator("sigma") * m for m in c)
    ab = MatrixGroup([("a", Mat.diagonal([1, -1]))])
    closure(ab, 10)
    assert len(center(ab)) == 2
