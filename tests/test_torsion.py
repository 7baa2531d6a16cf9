import random

import pytest

from twoquadrics import torsion
from twoquadrics.errors import GenusMismatch
from twoquadrics.torsion import (
    TorsionClass,
    act,
    excess_identity,
    fixed_classes,
    section_count_identity,
    torsion_classes,
)


def test_canonicalization():
    assert TorsionClass(2, (1, 2, 3, 4)).subset == (5, 6)
    assert TorsionClass(2, (1, 2, 3)).subset == (1, 2, 3)
    assert TorsionClass(2, (4, 5, 6)).subset == (1, 2, 3)
    assert TorsionClass(2, (1, 2, 3, 4, 5, 6)).subset == ()
    with pytest.raises(ValueError):
        TorsionClass(2, (0,))
    with pytest.raises(ValueError):
        TorsionClass(2, (7,))


def test_counts():
    assert len(torsion_classes(1, "even")) == 4
    assert len(torsion_classes(2, "even")) == 16
    odd = torsion_classes(2, "odd")
    assert len(odd) == 16
    assert sorted(len(c.subset) for c in odd) == [1] * 6 + [3] * 10
    # distinguished point count 2^{2g} (2g+2)
    for g in range(1, 5):
        assert len(torsion_classes(g, "even")) * (2 * g + 2) == 4**g * (2 * g + 2)


def test_a_bad_parity_is_refused():
    for parity in ("foo", "Odd", 2, -1, None):
        with pytest.raises(ValueError, match="parity must be"):
            torsion_classes(2, parity)
    with pytest.raises(ValueError, match="parity must be"):
        fixed_classes([], "Odd", 2)
    assert torsion_classes(2, 1) == torsion_classes(2, "odd") == fixed_classes([], "odd", 2)
    assert torsion_classes(2, 0) == torsion_classes(2, "even")


def test_the_class_table_is_built_once_and_each_call_gets_its_own_list():
    torsion._classes.cache_clear()
    first = torsion_classes(2, "odd")
    want = list(first)
    first.clear()
    second = torsion_classes(2, "odd")
    assert second == want and second is not first
    second.append(TorsionClass(2, ()))
    assert torsion_classes(2, 1) == want
    assert fixed_classes([(2, 1, 3, 4, 5, 6)], "odd", 2) == [c for c in want if act((2, 1, 3, 4, 5, 6), c) == c]
    assert torsion._classes.cache_info().misses == 1


def test_act_is_action():
    rng = random.Random(1)
    classes = torsion_classes(2, "odd")
    for _ in range(20):
        p = list(range(1, 7))
        q = list(range(1, 7))
        rng.shuffle(p)
        rng.shuffle(q)
        pq = tuple(p[q[k] - 1] for k in range(6))
        for c in classes:
            assert act(pq, c) == act(tuple(p), act(tuple(q), c))
            assert len(act(tuple(p), c).subset) % 2 == len(c.subset) % 2
    with pytest.raises(GenusMismatch):
        act((1, 2, 3, 4), TorsionClass(2, (1,)))


def test_fixed_class_count_conjugation_invariant():
    rng = random.Random(2)
    sigma = (1, 2, 4, 5, 6, 3)  # (3 4 5 6)
    for _ in range(10):
        g = list(range(1, 7))
        rng.shuffle(g)
        ginv = [0] * 6
        for k in range(6):
            ginv[g[k] - 1] = k + 1
        conj = tuple(g[sigma[ginv[k] - 1] - 1] for k in range(6))
        assert len(fixed_classes([conj], "odd", 2)) == len(
            fixed_classes([sigma], "odd", 2)
        )


def test_identities():
    assert section_count_identity(2)["rhs"] == 15 + 1
    assert section_count_identity(3)["main"] == 56
    assert section_count_identity(3)["residual"] == [8]
    for g in range(1, 7):
        assert section_count_identity(g)["equal"]
    for g in range(2, 9):
        e = excess_identity(g)
        assert e["equal"]
        assert e["closed"] == (3**g - 2 * g - 1) / 4
    assert excess_identity(3)["closed"] == 5
    with pytest.raises(ValueError):
        excess_identity(1)
