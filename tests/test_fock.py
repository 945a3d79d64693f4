import itertools

import pytest
from hypothesis import given, settings

from peritl import fock
from peritl.fock import (
    apply_word,
    classify_case,
    support_bounds,
    tensor_rows,
    vector_from_json,
    vector_to_json,
    xi_on_partition,
    xi_prime_on_partition,
)
from peritl.partitions import (
    add_box,
    addable_contents,
    contains,
    enumerate_partitions,
    staircase,
)

from helpers import mid_partitions, oracle_case, oracle_xi


def test_classify_case_examples():
    assert classify_case((3, 1), 0) == "A"
    assert classify_case((2,), 0) == "D"
    assert classify_case((1, 1), 0) == "E"
    assert classify_case((), 0) == "A"
    assert classify_case((), 3) == "C"
    assert classify_case((2,), 1) == "B"
    assert classify_case((1,), 5) == "C"
    # the window's edges: below -len(lam) and above lam_1 nothing acts, at
    # -len(lam) and lam_1 a box is addable
    for lam in ((3, 1), (2, 2), (1, 1, 1), (4,)):
        n, top = len(lam), lam[0]
        assert classify_case(lam, -n - 1) == "C"
        assert classify_case(lam, -n) == "A"
        assert classify_case(lam, top) == "A"
        assert classify_case(lam, top + 1) == "C"


def test_classify_case_against_box_set_oracle():
    for lam in enumerate_partitions(14):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 3, qmax + 4):
            assert classify_case(lam, q) == oracle_case(lam, q), (lam, q)


@given(mid_partitions())
@settings(max_examples=100, deadline=None)
def test_classify_case_against_box_set_oracle_mid_scale(lam):
    qmin, qmax = support_bounds(lam)
    for q in range(qmin - 3, qmax + 4):
        assert classify_case(lam, q) == oracle_case(lam, q), q


def test_xi_examples():
    assert xi_on_partition((), 0) == (1,)
    assert xi_on_partition((), 1) is None
    assert xi_on_partition((2,), 0) == (1,)
    assert xi_on_partition((3, 3), -1) == (2, 1)
    assert xi_on_partition((2, 2), 0) is None
    assert xi_on_partition((3,), 0) is None


def test_xi_via_relation_chain():
    # (2,) = T_1 T_0 applied to the empty partition through pure box
    # additions, so T_0 (2,) = T_0 T_1 T_0 (empty) = T_0 (empty) = (1,)
    assert add_box(add_box((), 0), 1) == (2,)
    assert apply_word({(): 1}, [0, 1, 0], "xi") == apply_word({(): 1}, [0], "xi")
    assert xi_on_partition((2,), 0) == (1,)


def test_xi_against_box_set_oracle():
    for lam in enumerate_partitions(9):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            assert xi_on_partition(lam, q) == oracle_xi(lam, q), (lam, q)


def test_xi_apply_linearity():
    assert apply_word({(): 1}, [0], "xi") == {(1,): 1}
    assert apply_word({(1,): 2, (2,): -1}, [1], "xi") == {(2,): 2}
    assert apply_word({}, [3], "xi") == {}
    # exact cancellation
    assert apply_word({(1,): 1, (2, 2): 1}, [-1], "xi") == {(1, 1): 1, (2, 1): 1}
    assert apply_word({(): 1, (2,): -1}, [0], "xi") == {}


def test_xi_prime_examples():
    assert xi_prime_on_partition((), 0) == {(1,): 1}
    assert xi_prime_on_partition((1, 1), 0) == {(1,): 1}
    # the index-2 generator on (2,1): adds the content-2 box and removes the
    # content-1 box (1,2)
    assert xi_prime_on_partition((2, 1), 2) == {(3, 1): 1, (1, 1): 1}
    assert apply_word({(2, 1): 1}, [2], "xi-prime") == {(3, 1): 1, (1, 1): 1}


def test_apply_word_order_and_identity():
    assert apply_word({(): 1}, [], "xi") == {(): 1}
    assert apply_word({(): 1}, [0, 1, 0], "xi") == {(1,): 1}
    assert apply_word({(3, 1): 1}, [4, 4], "xi") == {}
    # rightmost generator acts first: T_1 T_0 on empty adds content 0 then 1
    assert apply_word({(): 1}, [1, 0], "xi") == {(2,): 1}
    assert apply_word({(): 1}, [0, 1], "xi") == {}
    with pytest.raises(ValueError):
        apply_word({(): 1}, [0], "bogus")


def test_apply_word_with_a_table_matches_without():
    # one table for every call and both representations: a stale entry or an
    # image filed under the other representation changes some result
    words = [()] + [w for n in (1, 2, 3) for w in itertools.product(range(-3, 4), repeat=n)]
    table: dict = {}
    for word in words:
        for lam in enumerate_partitions(8):
            for rep in fock.REPRESENTATIONS:
                assert apply_word({lam: 1}, word, rep, table) == apply_word(
                    {lam: 1}, word, rep
                ), (word, lam, rep)
    assert {rep for rep, _, _ in table} == set(fock.REPRESENTATIONS)
    assert all(
        type(images) is tuple and all(type(kappa) is tuple for kappa in images)
        for images in table.values()
    )


def test_square_zero_sweep():
    for lam in enumerate_partitions(12):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            assert apply_word({lam: 1}, [q, q], "xi") == {}
            assert apply_word({lam: 1}, [q, q], "xi-prime") == {}


def test_support_bounds():
    assert support_bounds(()) == (0, 0)
    assert support_bounds((1,)) == (-1, 1)
    assert support_bounds((3, 1)) == (-2, 3)
    # exhaustively confirm both actions vanish outside the window
    for lam in enumerate_partitions(10):
        qmin, qmax = support_bounds(lam)
        for q in list(range(qmin - 6, qmin)) + list(range(qmax + 1, qmax + 7)):
            assert xi_on_partition(lam, q) is None
            assert xi_prime_on_partition(lam, q) == {}


def test_tensor_block_multiplicity():
    # kappa has multiplicity one in the index-q block of the box tensor of nu
    # exactly when the twisted generator q sends nu to kappa
    assert xi_on_partition((2, 2), 0) != (1,)
    assert xi_on_partition((3, 3), -1) == (2, 1)
    # adding a box always contributes a unit block entry
    for lam in enumerate_partitions(10):
        for q in addable_contents(lam):
            assert xi_on_partition(lam, q) == add_box(lam, q)


def test_tensor_multiplicity_examples():
    # the total multiplicity of kappa is the number of rows that reach it
    def multiplicity(nu, kappa):
        return sum(1 for _, image in tensor_rows(nu) if image == kappa)

    assert multiplicity((), (1,)) == 1
    assert multiplicity((1,), (2,)) == 1
    assert multiplicity((1,), (1, 1)) == 1
    assert multiplicity((1,), ()) == 0
    # a target reachable at two different indices counts twice
    assert multiplicity((2, 2), (2, 1)) == 2


def test_tensor_rows():
    assert tensor_rows(()) == [(0, (1,))]
    assert tensor_rows((1,)) == [(1, (2,)), (-1, (1, 1))]
    rows = tensor_rows((3, 3))
    assert (-1, (2, 1)) in rows
    for q, kappa in rows:
        assert xi_on_partition((3, 3), q) == kappa


def test_ideal_preservation_small():
    for k in range(4):
        step = staircase(k)
        for lam in enumerate_partitions(9):
            if not contains(lam, step):
                continue
            qmin, qmax = support_bounds(lam)
            for q in range(qmin, qmax + 1):
                kappa = xi_on_partition(lam, q)
                if kappa is not None:
                    assert contains(kappa, step)


def test_vector_json_roundtrip():
    vec = {(3, 1): -2, (1,): 1, (2,): 4}
    data = vector_to_json(vec)
    assert data == [
        {"partition": [1], "coeff": 1},
        {"partition": [2], "coeff": 4},
        {"partition": [3, 1], "coeff": -2},
    ]
    assert vector_from_json(data) == vec
    with pytest.raises(ValueError):
        vector_from_json([{"partition": [1], "coeff": 1}, {"partition": [1], "coeff": 2}])
