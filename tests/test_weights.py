from itertools import combinations

import pytest
from hypothesis import given, settings

from peritl.fock import support_bounds
from peritl.partitions import add_box, check_partition, enumerate_partitions, staircase
from peritl.strata import cell_index
from peritl.weights import (
    closed_form_weight,
    d_set,
    d_tilde,
    dominant_weight,
    marking,
    partition_from_d_set,
    weight_from_subset,
)

from helpers import mid_partitions, oracle_partition_from_d_set, surgery_case

# the six reference marked diagrams, bottom row first
REFERENCE = {
    (2,): ((1, 2),),
    (1, 1, 1): ((3, 1),),
    (2, 2, 2): ((3, 2), (2, 2)),
    (2, 2, 1, 1): ((4, 1), (2, 2)),
    (3, 2, 2, 2): ((4, 2), (3, 2), (1, 3)),
    (4, 2, 1): ((3, 1), (2, 2), (1, 4)),
}


def test_reference_markings():
    for lam, boxes in REFERENCE.items():
        assert marking(lam) == boxes, lam
    assert marking(()) == ()


def test_d_sets():
    assert d_tilde((1, 1, 1)) == {-2}
    assert d_set((1, 1, 1)) == {-3}
    assert d_tilde((3, 2, 2, 2)) == {-2, -1, 2}
    assert d_set((3, 2, 2, 2)) == {-3, -2, 1}
    assert d_tilde(()) == set() and d_set(()) == set()
    assert d_set((2, 2, 1, 1)) == {-4, -1}


def test_diamond_count_is_cell_index():
    for lam in enumerate_partitions(12):
        assert len(marking(lam)) == cell_index(lam)


def test_weight_from_subset():
    assert weight_from_subset({0}, 1) == (0,)
    assert weight_from_subset({-4, -1}, 2) == (-2, -4)
    for n in range(1, 9):
        assert weight_from_subset({n - 2 - 2 * i for i in range(n)}, n) == tuple(
            -i for i in range(1, n + 1)
        )
    with pytest.raises(ValueError):
        weight_from_subset({1, 2}, 3)


def test_dominant_weight_examples():
    assert dominant_weight(staircase(3)) == (3, (-1, -2, -3))
    assert dominant_weight((2, 2, 1, 1)) == (2, (-2, -4))
    assert dominant_weight((1,)) == (1, (-1,))
    assert dominant_weight(()) == (0, ())
    for lam in enumerate_partitions(12):
        n, omega = dominant_weight(lam)
        assert n == cell_index(lam)
        assert all(omega[i] >= omega[i + 1] for i in range(len(omega) - 1))


def test_staircase_weights():
    for n in range(1, 9):
        assert dominant_weight(staircase(n)) == (n, tuple(-i for i in range(1, n + 1)))


def test_partition_from_d_set_examples():
    # inverting the first and second reference diagrams
    assert partition_from_d_set({0}, 1) == (2,)
    assert partition_from_d_set({-3}, 1) == (1, 1, 1)
    assert partition_from_d_set({1}, 1) == (3,)
    assert partition_from_d_set({-4, -1}, 2) == (2, 2, 1, 1)
    assert partition_from_d_set(set(), 0) == ()
    for n in (*range(1, 7), 200):
        assert partition_from_d_set(d_set(staircase(n)), n) == staircase(n)
    with pytest.raises(ValueError):
        partition_from_d_set({1, 2}, 1)


@pytest.mark.parametrize("decode", [partition_from_d_set, weight_from_subset])
@pytest.mark.parametrize("subset", [{0.5}, {True}, {1.0}, {"1"}, {0, 2.5}])
def test_non_integer_values_rejected(decode, subset):
    with pytest.raises(ValueError):
        decode(subset, len(subset))


def test_d_roundtrip():
    for lam in enumerate_partitions(14):
        d, n = d_set(lam), cell_index(lam)
        assert partition_from_d_set(d, n) == oracle_partition_from_d_set(d, n) == lam


def test_inverse_reaches_every_subset():
    for n in range(5):
        for subset in combinations(range(-7, 6), n):
            lam = check_partition(partition_from_d_set(subset, n))
            assert d_set(lam) == set(subset) and cell_index(lam) == n, subset


@given(mid_partitions())
@settings(max_examples=150, deadline=None)
def test_d_roundtrip_mid_scale(lam):
    n = cell_index(lam)
    assert partition_from_d_set(d_set(lam), n) == lam


def test_closed_form_weight_examples():
    assert closed_form_weight(staircase(4)) == (-1, -2, -3, -4)
    assert closed_form_weight((2,)) == (0,)
    # every admissible cut of (2,2) with distinct column lengths agrees
    assert closed_form_weight((2, 2)) == (-1, -1)
    assert closed_form_weight(()) == ()


def test_closed_form_matches_dictionary():
    generic = absent = 0
    for lam in enumerate_partitions(13):
        closed = closed_form_weight(lam)
        if closed is None:
            absent += 1
            continue
        generic += 1
        assert closed == dominant_weight(lam)[1], lam
    assert generic > absent  # genericity is the common case at this scale


def test_surgery_reference_case():
    # the content-2 box turns (2, 1) into (3, 1): d-set value 0 becomes 1
    assert surgery_case((2, 1), 2) == ("i", 0, 1)
    assert sorted(d_set((2, 1))) == [-2, 0]
    assert sorted(d_set((3, 1))) == [-2, 1]


def test_surgery_not_applicable_when_cell_changes():
    # adding the content -1 box to (2,) deepens the staircase
    assert cell_index(add_box((2,), -1)) != cell_index((2,))
    assert surgery_case((2,), -1) is None
    assert add_box((2, 1), 1) is None
    assert surgery_case((2, 1), 1) is None


def test_surgery_sweep():
    seen_cases = {"i": 0, "ii": 0}
    for lam in enumerate_partitions(11):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 1, qmax + 2):
            rule = surgery_case(lam, q)
            if rule is None:
                continue
            case, old, new = rule
            seen_cases[case] += 1
            before = d_set(lam)
            assert old in before, (lam, q)
            assert d_set(add_box(lam, q)) == (before - {old}) | {new}, (lam, q)
    assert seen_cases["i"] > 0 and seen_cases["ii"] > 0
