import random

import pytest

from twoquadrics.dp4 import (
    CANONICAL_CLASS,
    SignedPerm,
    conjugate_in_WD5,
    intersection,
    invariant_lines,
    lattice_h1,
    line_permutation,
    lines16,
    orbits,
    pic_action,
    wd5_elements,
)
from twoquadrics.errors import OddParity
from twoquadrics.matrices import Mat
from twoquadrics.smith import smith_normal_form

M1 = SignedPerm((1, 3, 4, 5, 2), (1, 1, 1, -1, -1))
GAMMA1 = SignedPerm((1, 4, 5, 2, 3), (1, 1, 1, -1, -1))


def random_wd5(rng):
    els = wd5_elements()
    return els[rng.randrange(len(els))]


def test_lines16_invariants():
    lines = lines16()
    assert len(lines) == 16
    for pic, w in lines:
        assert intersection(pic, pic) == -1
        assert intersection(pic, CANONICAL_CLASS) == -1
        assert w.count(-1) % 2 == 0
    assert len({w for _, w in lines}) == 16


def test_hamming_intersection_law():
    lines = lines16()
    for a in range(16):
        for b in range(a + 1, 16):
            dist = sum(
                1 for x, y in zip(lines[a][1], lines[b][1]) if x != y
            )
            assert intersection(lines[a][0], lines[b][0]) == (dist - 2) // 2


def test_signed_perm_algebra():
    rng = random.Random(13)
    for _ in range(30):
        a = random_wd5(rng)
        assert (a * a.inverse()) == SignedPerm.identity()
    assert M1.order() == 4
    assert M1.cycle_type() == (4, 1)
    assert GAMMA1.cycle_type() == (2, 2, 1)


def test_line_permutation_rejects_odd_parity():
    with pytest.raises(OddParity):
        line_permutation(SignedPerm((1, 2, 3, 4, 5), (-1, 1, 1, 1, 1)))


def test_pic_action_is_homomorphism():
    rng = random.Random(17)
    for _ in range(100):
        a, b = random_wd5(rng), random_wd5(rng)
        assert pic_action(a * b) == pic_action(a) * pic_action(b)


def test_pic_action_all_elements_preserve_form():
    # pic_action internally asserts preservation of the form and of K
    for s in wd5_elements():
        pic_action(s)


def test_invariant_lines_m1():
    E5 = (0, 0, 0, 0, 0, 1)
    L15 = (1, -1, 0, 0, 0, -1)
    assert sorted(invariant_lines(M1)) == sorted([E5, L15])


def test_orbits_gamma1():
    parts = orbits([GAMMA1])
    assert sorted(len(p) for p in parts) == [4, 4, 4, 4]


def test_conjugacy():
    ok, g = conjugate_in_WD5(M1, GAMMA1)
    assert not ok and g is None
    rng = random.Random(19)
    for _ in range(5):
        h = random_wd5(rng)
        conj = h * M1 * h.inverse()
        ok, g = conjugate_in_WD5(M1, conj)
        assert ok
        assert g * M1 * g.inverse() == conj


def test_lattice_h1_examples():
    swap = Mat([[0, 1], [1, 0]])
    assert lattice_h1(swap, 2) == ()
    minus = Mat([[-1, 0], [0, -1]])
    assert lattice_h1(minus, 2) == (2, 2)
    pair = pic_action(SignedPerm((1, 2, 3, 4, 5), (-1, -1, -1, -1, 1)))
    assert lattice_h1(pair, 2) == (2, 2)
    disjoint = pic_action(SignedPerm((1, 2, 3, 4, 5), (1, 1, 1, -1, -1)))
    assert lattice_h1(disjoint, 2) == ()
    assert lattice_h1(Mat.identity(3), 1) == ()


def test_lattice_h1_conjugation_invariant():
    rng = random.Random(23)
    a = pic_action(GAMMA1)
    n = GAMMA1.order()
    base = lattice_h1(a, n)
    m = a.rows
    for _ in range(10):
        u = Mat.identity(m)
        for _ in range(4):
            r, c = rng.sample(range(m), 2)
            elem = [
                [1 if x == y else 0 for y in range(m)] for x in range(m)
            ]
            elem[r][c] = rng.choice([1, -1])
            u = u * Mat(elem)
        # u is unimodular: P u Q = I gives u^-1 = Q P
        d, p, q = smith_normal_form(u)
        assert d == Mat.identity(m)
        uinv = q * p
        assert u * uinv == Mat.identity(m)
        assert lattice_h1(u * a * uinv, n) == base
