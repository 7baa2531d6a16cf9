import pytest

from twoquadrics.binforms import (
    BinaryForm,
    bform_discriminant,
    checked_roots,
    quadratic_roots,
    resultant,
    root_images,
)
from twoquadrics.cyclo import ONE, ZERO, imaginary_unit, zeta
from twoquadrics.errors import NotARoot, NotClosed, UnsupportedCase
from twoquadrics.matrices import Mat
from twoquadrics.pencils import _common_roots, proj_point_equal

i = imaginary_unit()


def bf(*coeffs):
    return BinaryForm(len(coeffs) - 1, coeffs)


def test_discriminant_basics():
    assert not bform_discriminant(bf(ZERO, ONE, ZERO)).is_zero()  # t1 t2
    assert bform_discriminant(bf(ONE, ZERO, ZERO)).is_zero()  # t1^2
    assert bform_discriminant(bf(ZERO, ZERO, ONE)).is_zero()  # t2^2
    assert bform_discriminant(bf(ONE, ZERO)).is_zero() is False  # degree 1
    assert bform_discriminant(bf(ZERO, ZERO, ZERO)).is_zero()


def test_discriminant_detects_double_root_at_infinity():
    # allocated degree 3 but t1-degree 2: double root at (0:1)
    f = bf(ONE, ONE, ZERO, ZERO)
    assert bform_discriminant(f).is_zero()
    g = bf(ONE, ONE, ONE, ZERO)  # simple root at infinity
    assert not bform_discriminant(g).is_zero()


def test_resultant_shared_root():
    f = bf(ONE, -ONE)  # t1 - t2: root (1,1)
    g = bf(ONE, ZERO, -ONE)  # t1^2 - t2^2
    assert resultant(f, g).is_zero()
    h = bf(ONE, ONE)  # root (1,-1)
    assert resultant(f, h).is_zero() is False


def test_root_action_cycle():
    f = bf(ZERO, ONE, ZERO, ZERO, ZERO, -ONE, ZERO)  # t1 t2 (t2^4 - t1^4)
    roots = [(ZERO, ONE), (ONE, ZERO), (ONE, ONE), (ONE, i), (ONE, -ONE), (ONE, -i)]
    perm = root_images(checked_roots(f, roots), Mat([[ONE, ZERO], [ZERO, i]]))
    assert perm == (1, 2, 4, 5, 6, 3)


def test_roots_are_checked_in_the_field_of_form_and_points():
    # t2^2 - zeta4 t1^2 over Q(zeta4) vanishes at (1 : zeta8) and (1 : -zeta8) in Q(zeta8)
    z = zeta(8)
    f = bf(-zeta(4), ZERO, ONE)
    assert checked_roots(f, [(ONE, z), (z, -z * z)]).labels == {((0, 1, 0, 0), 1): 1, ((0, -1, 0, 0), 1): 2}
    with pytest.raises(NotARoot, match="^point 2 is not a root of the form$"):
        checked_roots(f, [(ONE, z), (ONE, z**3), (z, 1)])


def test_root_action_errors():
    f = bf(ONE, ZERO, -ONE)
    with pytest.raises(NotARoot):
        root_images(checked_roots(f, [(ONE, 2 * ONE)]), Mat([[ONE, ZERO], [ZERO, ONE]]))
    # the map sends a listed root outside the list
    with pytest.raises(NotClosed):
        root_images(checked_roots(f, [(ONE, ONE)]), Mat([[ONE, ZERO], [ZERO, -ONE]]))


def test_gcd():
    # the common roots of two quadratics are what their gcd vanishes on
    p = bf(ONE, ZERO, -ONE)
    q = bf(ONE, -2 * ONE, ONE)
    roots = _common_roots(p, q)
    assert len(roots) == 1 and proj_point_equal(roots[0], (ONE, ONE))
    assert p.evaluate(*roots[0]).is_zero() and q.evaluate(*roots[0]).is_zero()
    assert _common_roots(bf(ONE, ZERO, ZERO), bf(ZERO, ZERO, ONE)) == []  # t1², t2²


def test_gcd_with_infinity_root():
    p = bf(ONE, ZERO, ZERO)  # t1^2: double root at infinity
    q = bf(ONE, ONE, ZERO)  # t1 (t1 + t2)
    assert _common_roots(p, q) == [(ZERO, -ONE)]


def test_quadratic_roots():
    roots = quadratic_roots(ONE, ZERO, 4 * ONE)
    assert len(roots) == 2
    for u, v in roots:
        assert (u * u + 4 * v * v).is_zero()
    with pytest.raises(ValueError):
        quadratic_roots(ZERO, ZERO, ZERO)
    roots = quadratic_roots(ZERO, ONE, ONE)  # v (u + v)
    assert any(proj_point_equal(r, (ONE, ZERO)) for r in roots)
    assert any(proj_point_equal(r, (ONE, -ONE)) for r in roots)


def test_quadratic_roots_unsupported():
    # discriminant 4(1+i) has no square root in any cyclotomic field we search
    with pytest.raises(UnsupportedCase):
        quadratic_roots(ONE, ZERO, -(ONE + i))


def test_evaluate_and_product():
    fg = bf(ONE, ZERO, -ONE)  # (t1 + t2)(t1 - t2)
    assert fg.evaluate(2, 1) == 3 * 1
    assert fg.evaluate(i, 1) == (i + 1) * (i - 1) == -2
